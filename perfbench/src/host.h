#ifndef PERFBENCH_HOST_H_
#define PERFBENCH_HOST_H_

#include <string>

#include "util/status.h"

namespace perfbench {

/// Fails naming the first engine knob set in the environment. Every knob
/// the engine reads (HQ_THREADS, HQ_SIMD, HQ_COMPRESS, HQ_TRACE_SPANS,
/// HQ_SLOW_QUERY_MS, HQ_BUFFER_PAGES, HQ_GEN_CXXFLAGS, HIQUE_CXX) is
/// pinned by the benchmark's own EngineOptions, so a stray variable would
/// change the numbers without showing in them.
hique::Status RefuseEngineEnv();

/// One line describing the host the figures come from: nproc,
/// hardware_concurrency, resolved SIMD level, CPU model, LLC size, runtime
/// compiler version and the engine's build type.
std::string HostFingerprint();

/// Peak resident set of this process (VmHWM), in MiB.
double PeakRssMiB();

/// User + system CPU seconds of this process plus its reaped children
/// (the runtime g++ invocations).
double ProcessCpuSeconds();

/// CPU seconds of reaped children only.
double ChildCpuSeconds();

}  // namespace perfbench

#endif  // PERFBENCH_HOST_H_
