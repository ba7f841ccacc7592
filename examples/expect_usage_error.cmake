# Runs `${PROGRAM} ${FLAG} ${VALUE}` and requires that it refuses the value
# before reporting anything: exit status 2, EXPECT in its stderr, and nothing
# on stdout.
#
#   cmake -DPROGRAM=... -DFLAG=... -DVALUE=... -DEXPECT=... -P expect_usage_error.cmake
execute_process(COMMAND ${PROGRAM} ${FLAG} ${VALUE}
                RESULT_VARIABLE status
                OUTPUT_VARIABLE out
                ERROR_VARIABLE err)
if(NOT status STREQUAL "2")
  message(FATAL_ERROR "${FLAG} ${VALUE}: expected exit status 2, got ${status}\n${out}${err}")
endif()
string(FIND "${err}" "${EXPECT}" at)
if(at EQUAL -1)
  message(FATAL_ERROR "${FLAG} ${VALUE}: stderr lacks \"${EXPECT}\":\n${err}")
endif()
if(NOT out STREQUAL "")
  message(FATAL_ERROR "${FLAG} ${VALUE}: printed a report:\n${out}")
endif()
