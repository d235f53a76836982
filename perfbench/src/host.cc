#include "host.h"

#include <sys/resource.h>
#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <thread>

#include "codegen/runtime_abi.h"
#include "exec/compiled_library.h"
#include "exec/compiler.h"
#include "util/cache_info.h"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace perfbench {

namespace {

const char* const kEngineEnvKnobs[] = {
    "HQ_THREADS",       "HQ_SIMD",         "HQ_COMPRESS",
    "HQ_TRACE_SPANS",   "HQ_SLOW_QUERY_MS", "HQ_BUFFER_PAGES",
    "HQ_GEN_CXXFLAGS",  "HIQUE_CXX"};

std::string FirstLineWith(const std::string& path, const std::string& key) {
  std::ifstream in(path);
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind(key, 0) == 0) {
      size_t colon = line.find(':');
      std::string v = colon == std::string::npos ? line : line.substr(colon + 1);
      size_t b = v.find_first_not_of(" \t");
      return b == std::string::npos ? "" : v.substr(b);
    }
  }
  return "";
}

std::string CommandOutput(const std::string& cmd) {
  std::string out;
  FILE* p = ::popen(cmd.c_str(), "r");
  if (p == nullptr) return out;
  char buf[256];
  while (std::fgets(buf, sizeof(buf), p) != nullptr) out += buf;
  ::pclose(p);
  while (!out.empty() && (out.back() == '\n' || out.back() == ' ')) out.pop_back();
  return out;
}

double Seconds(const timeval& tv) {
  return static_cast<double>(tv.tv_sec) + static_cast<double>(tv.tv_usec) * 1e-6;
}

}  // namespace

hique::Status RefuseEngineEnv() {
  for (const char* knob : kEngineEnvKnobs) {
    if (std::getenv(knob) != nullptr) {
      return hique::Status::InvalidArgument(
          std::string("environment variable ") + knob +
          " is set; the benchmark pins every engine knob itself — unset it");
    }
  }
  return hique::Status::OK();
}

std::string HostFingerprint() {
  const int32_t simd = hique::exec::ResolveSimdLevel(true);
  const char* simd_name = simd == HQ_SIMD_AVX2   ? "avx2"
                          : simd == HQ_SIMD_SSE2 ? "sse2"
                                                 : "scalar";
  std::string llc = FirstLineWith("/sys/devices/system/cpu/cpu0/cache/index3/size", "");
  if (llc.empty()) {
    llc = std::to_string(hique::HostCacheInfo().l3_bytes / 1024) + "K";
  }
  std::string model = FirstLineWith("/proc/cpuinfo", "model name");
  std::string cxx = CommandOutput(hique::exec::RuntimeCompilerPath() +
                                  " -dumpfullversion 2>/dev/null");
  return "nproc=" + std::to_string(::sysconf(_SC_NPROCESSORS_ONLN)) +
         " hardware_concurrency=" +
         std::to_string(std::thread::hardware_concurrency()) +
         " simd=" + simd_name + " cpu=\"" + model + "\" llc=" + llc +
         " cxx=" + hique::exec::RuntimeCompilerPath() + "@" + cxx +
         " build_type=" PERFBENCH_BUILD_TYPE;
}

double PeakRssMiB() {
  std::string hwm = FirstLineWith("/proc/self/status", "VmHWM");
  return std::strtod(hwm.c_str(), nullptr) / 1024.0;  // reported in kB
}

double ProcessCpuSeconds() {
  rusage self{}, kids{};
  ::getrusage(RUSAGE_SELF, &self);
  ::getrusage(RUSAGE_CHILDREN, &kids);
  return Seconds(self.ru_utime) + Seconds(self.ru_stime) +
         Seconds(kids.ru_utime) + Seconds(kids.ru_stime);
}

double ChildCpuSeconds() {
  rusage kids{};
  ::getrusage(RUSAGE_CHILDREN, &kids);
  return Seconds(kids.ru_utime) + Seconds(kids.ru_stime);
}

}  // namespace perfbench
