#include "bench/bench_main.h"

#include <benchmark/benchmark.h>

#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

namespace metacomm::bench {

namespace {

std::string JsonEscape(const std::string& in) {
  std::string out;
  out.reserve(in.size());
  for (char c : in) {
    if (c == '"' || c == '\\') out.push_back('\\');
    if (c == '\n') {
      out += "\\n";
      continue;
    }
    out.push_back(c);
  }
  return out;
}

double ToMillis(double value, benchmark::TimeUnit unit) {
  switch (unit) {
    case benchmark::kNanosecond:
      return value / 1e6;
    case benchmark::kMicrosecond:
      return value / 1e3;
    case benchmark::kMillisecond:
      return value;
    case benchmark::kSecond:
      return value * 1e3;
  }
  return value;
}

/// The normal console output, plus a capture of every non-aggregate
/// run for the JSON summary.
class JsonCapture : public benchmark::ConsoleReporter {
 public:
  struct Sample {
    std::string name;
    int64_t iterations = 0;
    double real_ms = 0;  // Per-iteration wall time.
    double cpu_ms = 0;
    std::vector<std::pair<std::string, double>> counters;
  };

  void ReportRuns(const std::vector<Run>& reports) override {
    benchmark::ConsoleReporter::ReportRuns(reports);
    for (const Run& run : reports) {
      if (run.run_type != Run::RT_Iteration || run.error_occurred) continue;
      Sample sample;
      sample.name = run.benchmark_name();
      sample.iterations = run.iterations;
      sample.real_ms = ToMillis(run.GetAdjustedRealTime(), run.time_unit);
      sample.cpu_ms = ToMillis(run.GetAdjustedCPUTime(), run.time_unit);
      for (const auto& [key, counter] : run.counters) {
        sample.counters.emplace_back(key, counter.value);
      }
      samples_.push_back(std::move(sample));
    }
  }

  const std::vector<Sample>& samples() const { return samples_; }

 private:
  std::vector<Sample> samples_;
};

}  // namespace

int RunBenchMain(const std::string& name, int argc, char** argv) {
  bool json = false;
  std::vector<char*> args;
  std::string config;
  for (int i = 0; i < argc; ++i) {
    if (std::string(argv[i]) == "--json") {
      json = true;
      continue;
    }
    args.push_back(argv[i]);
    if (i > 0) {
      if (!config.empty()) config += " ";
      config += argv[i];
    }
  }
  int filtered_argc = static_cast<int>(args.size());
  benchmark::Initialize(&filtered_argc, args.data());
  if (benchmark::ReportUnrecognizedArguments(filtered_argc, args.data())) {
    return 1;
  }

  JsonCapture reporter;
  benchmark::RunSpecifiedBenchmarks(&reporter);
  benchmark::Shutdown();
  if (!json) return 0;

  std::ostringstream out;
  out << "{\n";
  out << "  \"bench\": \"" << JsonEscape(name) << "\",\n";
  out << "  \"config\": \"" << JsonEscape(config) << "\",\n";
  // What built and ran the numbers: --compare warns when a baseline's
  // build differs from the fresh run's.
  out << "  \"build_type\": \"" << JsonEscape(METACOMM_BUILD_TYPE)
      << "\",\n";
#ifdef METACOMM_LOCKDEP
  out << "  \"lockdep\": true,\n";
#else
  out << "  \"lockdep\": false,\n";
#endif
  out << "  \"nproc\": " << std::thread::hardware_concurrency() << ",\n";
  out << "  \"runs\": [";
  bool first = true;
  for (const JsonCapture::Sample& sample : reporter.samples()) {
    if (!first) out << ",";
    first = false;
    out << "\n    {\"name\": \"" << JsonEscape(sample.name) << "\", "
        << "\"iterations\": " << sample.iterations << ", "
        << "\"real_ms\": " << sample.real_ms << ", "
        << "\"cpu_ms\": " << sample.cpu_ms;
    double ops = sample.real_ms > 0 ? 1e3 / sample.real_ms : 0.0;
    out << ", \"ops_per_sec\": " << ops;
    for (const auto& [key, value] : sample.counters) {
      out << ", \"" << JsonEscape(key) << "\": " << value;
    }
    out << "}";
  }
  out << "\n  ]\n}\n";

  const std::string path = "BENCH_" + name + ".json";
  std::ofstream file(path);
  if (!file) {
    std::fprintf(stderr, "cannot write %s\n", path.c_str());
    return 1;
  }
  file << out.str();
  std::fprintf(stderr, "wrote %s\n", path.c_str());
  return 0;
}

}  // namespace metacomm::bench
