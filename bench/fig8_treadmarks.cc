// Fig. 8(d): TreadMarks Barnes-Hut under all seven Save-work protocols.
//
// Paper reference points (4-process Barnes-Hut):
//   cand       57825 ckpts   DC 199%   DC-disk 11499%
//   cand-log   37704 ckpts   DC 126%   DC-disk  7700%
//   cpvs       12202 ckpts   DC 129%   DC-disk  7346%
//   cbndvs      8071 ckpts   DC 101%   DC-disk  5743%
//   cbndvs-log  6241 ckpts   DC  73%   DC-disk  4973%
//   cpv-2pc       15 ckpts   DC  12%   DC-disk   319%
//   cbndv-2pc     10 ckpts   DC  12%   DC-disk   252%
// Expected shape: commit counts ordered CAND > CAND-LOG > CPVS > CBNDVS >
// CBNDVS-LOG >> 2PC (visible events are rare, so coordinated commits win
// by orders of magnitude); DC-disk is unusable except under 2PC.

#include <string>

#include "bench/bench_util.h"
#include "src/protocol/protocol.h"

int main(int argc, char** argv) {
  ftx_bench::BenchOptions options = ftx_bench::ParseBenchOptions(argc, argv);
  int scale = ftx_bench::ResolveScale("treadmarks", options);

  ftx_bench::Suite suite("fig8_treadmarks", options);
  suite.SetMeta("workload", "treadmarks");
  suite.SetMeta("scale", scale);
  suite.SetMeta("seed", 44);

  suite.Text(ftx_bench::Fig8Header("Fig 8(d)", "treadmarks barnes-hut", scale,
                                   /*fps_mode=*/false));
  for (const std::string& protocol : ftx_proto::MeasuredProtocolNames()) {
    ftx_bench::AddFig8Row(suite, "treadmarks", protocol, scale, /*seed=*/44, /*fps_mode=*/false);
  }
  return suite.Run();
}
