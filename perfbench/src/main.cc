// hqbench: the benchmark binary. Runs one workload and prints, as
// its last line, one JSON object with `correct`, `attempted`, `failed` and
// `metrics` (end-to-end metrics, or per-layer metrics with --trace 1).
//
//   hqbench --workload tpch-warm --seed 1 --seconds 10 --trace 0
//           --work-dir .bench_build/work
//
// perfbench/run.py builds this binary, pins its environment and calls it.

#include <cstdio>
#include <cstdlib>
#include <string>

#include "host.h"
#include "workloads.h"

namespace {

void Usage() {
  std::fprintf(stderr,
               "usage: hqbench --workload {tpch-warm|adhoc-cold|refresh-mixed}"
               " --seed N --seconds S --trace {0|1} [--work-dir DIR]\n");
}

std::string JsonNumber(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.10g", v);
  return buf;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::RunConfig config;
  config.work_dir = ".bench_build/work";
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (i + 1 >= argc) {
      Usage();
      return 2;
    }
    const std::string val = argv[++i];
    if (arg == "--workload") {
      config.workload = val;
      have_workload = true;
    } else if (arg == "--seed") {
      config.seed = std::strtoull(val.c_str(), nullptr, 10);
    } else if (arg == "--seconds") {
      config.seconds = std::strtod(val.c_str(), nullptr);
    } else if (arg == "--trace") {
      config.trace = val == "1";
    } else if (arg == "--work-dir") {
      config.work_dir = val;
    } else {
      Usage();
      return 2;
    }
  }
  if (!have_workload || !(config.seconds > 0)) {
    Usage();
    return 2;
  }
  hique::Status env = perfbench::RefuseEngineEnv();
  if (!env.ok()) {
    std::fprintf(stderr, "hqbench: %s\n", env.ToString().c_str());
    return 2;
  }
  std::printf("# host: %s\n", perfbench::HostFingerprint().c_str());
  std::printf("# workload=%s seed=%llu seconds=%g trace=%d\n",
              config.workload.c_str(),
              static_cast<unsigned long long>(config.seed), config.seconds,
              config.trace ? 1 : 0);
  std::fflush(stdout);

  auto run = perfbench::RunWorkload(config);
  if (!run.ok()) {
    std::fprintf(stderr, "hqbench: %s\n", run.status().ToString().c_str());
    return 1;
  }
  const perfbench::RunResult& r = run.value();
  for (const std::string& n : r.notes) std::printf("# %s\n", n.c_str());
  for (const std::string& e : r.errors) {
    std::fprintf(stderr, "hqbench: WRONG: %s\n", e.c_str());
  }
  std::string json = std::string("{\"correct\": ") +
                     (r.correct ? "true" : "false") +
                     ", \"attempted\": " + std::to_string(r.attempted) +
                     ", \"failed\": " + std::to_string(r.failed) +
                     ", \"metrics\": {";
  for (size_t i = 0; i < r.metrics.size(); ++i) {
    const perfbench::Metric& m = r.metrics[i];
    if (i > 0) json += ", ";
    json += "\"" + m.name + "\": {\"value\": " + JsonNumber(m.value) +
            ", \"unit\": \"" + m.unit + "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  return 0;
}
