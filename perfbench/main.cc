// The benchmark's measuring program. run.py builds it and runs
//   perfbench --workload NAME --seed N --seconds S --trace 0|1 [--spans FILE]
// which prints one JSON object: the run's metrics, request counts, errors,
// per-request work counters and the machine fingerprint.

#if defined(__x86_64__) || defined(__i386__)
#include <cpuid.h>
#endif

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>

#include "geom/kernels.h"
#include "perfbench.h"

namespace perfbench {
namespace {

[[noreturn]] void Usage(const std::string& problem) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload "
               "kdj_cold|svc_open --seed N --seconds S "
               "--trace 0|1 [--spans FILE]\n",
               problem.c_str());
  std::exit(2);
}

Args ParseArgs(int argc, char** argv) {
  Args args;
  bool have_seed = false, have_seconds = false, have_trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) Usage("missing value for " + flag);
    const std::string value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      args.workload = value;
    } else if (flag == "--seed") {
      args.seed = std::strtoull(value.c_str(), &end, 10);
      have_seed = *end == '\0' && !value.empty();
    } else if (flag == "--seconds") {
      args.seconds = std::strtod(value.c_str(), &end);
      have_seconds = *end == '\0' && args.seconds > 0.0;
    } else if (flag == "--trace") {
      have_trace = value == "0" || value == "1";
      args.trace = value == "1";
    } else if (flag == "--spans") {
      args.spans_path = value;
    } else {
      Usage("unknown argument " + flag);
    }
  }
  if (!have_seed || !have_seconds || !have_trace) {
    Usage("--seed, --seconds and --trace need valid values");
  }
  return args;
}

/// CPU brand string from cpuid, so the fingerprint needs no file outside
/// the checkout.
std::string CpuModel() {
#if defined(__x86_64__) || defined(__i386__)
  unsigned regs[12] = {};
  if (__get_cpuid_max(0x80000000, nullptr) < 0x80000004) return "unknown";
  for (unsigned leaf = 0; leaf < 3; ++leaf) {
    __get_cpuid(0x80000002 + leaf, &regs[4 * leaf], &regs[4 * leaf + 1],
                &regs[4 * leaf + 2], &regs[4 * leaf + 3]);
  }
  char brand[49] = {};
  std::memcpy(brand, regs, 48);
  std::string model = brand;
  const size_t first = model.find_first_not_of(' ');
  return first == std::string::npos ? "unknown" : model.substr(first);
#else
  return "unknown";
#endif
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  const Args args = ParseArgs(argc, argv);
  if (args.workload != "kdj_cold" && args.workload != "svc_open") {
    Usage("unknown workload " + JsonString(args.workload));
  }
  HostProbe probe;  // forks: before any thread starts
  Result result;
  if (args.workload == "kdj_cold") {
    RunKdjCold(args, &probe, &result);
  } else {
    RunSvcOpen(args, &probe, &result);
  }
  if (!args.trace) result.Metric("rss_peak_mb", PeakRssMb(), "MB");
  result.Note("fingerprint",
              "{\"nproc\":" +
                  std::to_string(std::thread::hardware_concurrency()) +
                  ",\"cpu\":" + JsonString(CpuModel()) +
                  ",\"compiler\":" + JsonString(PERFBENCH_COMPILER) +
                  ",\"build_type\":" + JsonString(PERFBENCH_BUILD_TYPE) +
                  ",\"cxx_flags\":" + JsonString(PERFBENCH_CXX_FLAGS) +
                  ",\"kernel_backend\":" +
                  JsonString(amdj::geom::ToString(
                      amdj::geom::ActiveKernelBackend())) +
                  ",\"seed\":" + std::to_string(args.seed) + "}");
  std::printf("%s\n", result.ToJson().c_str());
  return 0;
}
