#ifndef METACOMM_BENCH_BENCH_MAIN_H_
#define METACOMM_BENCH_BENCH_MAIN_H_

#include <string>

namespace metacomm::bench {

/// Shared main() for every bench binary: google-benchmark plus the
/// repo-local `--json` flag. With --json, a machine-readable summary
/// is written to BENCH_<name>.json in the current working directory:
/// per-run time and ops/sec (with every user counter), the invocation
/// arguments, and what built and ran it (CMake build type, whether
/// lockdep was compiled in, and the hardware thread count).
/// tools/bench_report.sh drives this across all benches.
int RunBenchMain(const std::string& name, int argc, char** argv);

}  // namespace metacomm::bench

#endif  // METACOMM_BENCH_BENCH_MAIN_H_
