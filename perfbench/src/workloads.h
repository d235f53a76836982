#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include <cstdint>
#include <string>
#include <vector>

#include "util/status.h"

namespace perfbench {

struct RunConfig {
  std::string workload;   // tpch-warm | adhoc-cold | refresh-mixed
  uint64_t seed = 1;
  double seconds = 10;    // least length of the timed phase (whole rounds)
  bool trace = false;     // traced run: per-layer metrics instead
  std::string work_dir;   // gen dirs and the span file live here
};

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

struct RunResult {
  bool correct = true;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<Metric> metrics;
  std::vector<std::string> errors;  // wrong results and broken premises
  std::vector<std::string> notes;   // informational lines (# prefixed)
};

const std::vector<std::string>& WorkloadNames();

/// Runs one workload end to end. A non-OK status means it could not run at
/// all (set-up failed); wrong results come back as correct=false.
hique::Result<RunResult> RunWorkload(const RunConfig& config);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
