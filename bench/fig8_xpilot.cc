// Fig. 8(c): xpilot under all seven Save-work protocols.
//
// Paper reference points (4 processes, full speed = 15 fps; reported as the
// max checkpoint rate among processes and the sustained frame rate):
//   cand       455 ckpt/s   DC 15 fps   DC-disk  0 fps
//   cand-log   417 ckpt/s   DC 15 fps   DC-disk  0 fps
//   cpvs        45 ckpt/s   DC 15 fps   DC-disk  8 fps
//   cbndvs      44 ckpt/s   DC 15 fps   DC-disk  9 fps
//   cbndvs-log  43 ckpt/s   DC 15 fps   DC-disk  9 fps
//   cpv-2pc     56 ckpt/s   DC 15 fps   DC-disk  6 fps
//   cbndv-2pc   50 ckpt/s   DC 15 fps   DC-disk  7 fps
// Expected shape: 2PC *increases* commit frequency vs CPVS (the paper's
// noted exception — every client render commits everyone); Discount
// Checking sustains full speed everywhere; DC-disk degrades, to unplayable
// for the CAND variants.

#include <string>

#include "bench/bench_util.h"
#include "src/protocol/protocol.h"

int main(int argc, char** argv) {
  ftx_bench::BenchOptions options = ftx_bench::ParseBenchOptions(argc, argv);
  int scale = ftx_bench::ResolveScale("xpilot", options);

  ftx_bench::Suite suite("fig8_xpilot", options);
  suite.SetMeta("workload", "xpilot");
  suite.SetMeta("scale", scale);
  suite.SetMeta("seed", 33);

  suite.Text(ftx_bench::Fig8Header("Fig 8(c)", "xpilot", scale, /*fps_mode=*/true));
  for (const std::string& protocol : ftx_proto::MeasuredProtocolNames()) {
    ftx_bench::AddFig8Row(suite, "xpilot", protocol, scale, /*seed=*/33, /*fps_mode=*/true);
  }
  return suite.Run();
}
