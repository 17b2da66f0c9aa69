// perfbench: one command for the repository benchmark.
//
//   perfbench --workload serve|churn|tune --seed N --seconds S --trace 0|1
//             [--work-dir DIR]
//
// Prints a run fingerprint, every metric with its unit and sample count,
// the op accounting and the correctness gates, then one JSON line:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// An untraced run (--trace 0) reports the end-to-end metrics; a traced run
// (--trace 1) reports the per-layer metrics and the tracing overhead.
// Exits non-zero when a correctness gate fails.
#include <sched.h>
#include <sys/stat.h>

#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>

#include "common/logging.h"
#include "common/parallel_executor.h"
#include "index/kernels/kernels.h"
#include "workloads.h"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace {

using perfbench::Args;
using perfbench::FormatNumber;
using perfbench::RunResult;

int Usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload serve|churn|tune "
               "--seed N --seconds S --trace 0|1 [--work-dir DIR]\n",
               why);
  return 2;
}

bool MakeDirs(const std::string& path) {
  std::string partial;
  for (size_t i = 0; i <= path.size(); ++i) {
    if (i == path.size() || path[i] == '/') {
      if (!partial.empty() && mkdir(partial.c_str(), 0755) != 0 &&
          errno != EEXIST) {
        return false;
      }
    }
    if (i < path.size()) partial += path[i];
  }
  return true;
}

/// Pins the process to the first `count` CPUs it may run on and describes
/// the result. On a shared 4-vCPU host, steal rose to 10-25% whenever the
/// benchmark woke all four vCPUs and closed-loop throughput swung 4x;
/// confined to two, steal stayed near 1%. Threads started later inherit it.
std::string PinCpus(int count) {
  cpu_set_t allowed;
  CPU_ZERO(&allowed);
  if (sched_getaffinity(0, sizeof(allowed), &allowed) != 0) {
    return "not pinned (sched_getaffinity failed)";
  }
  cpu_set_t pinned;
  CPU_ZERO(&pinned);
  std::string list;
  for (int cpu = 0, n = 0; cpu < CPU_SETSIZE && n < count; ++cpu) {
    if (!CPU_ISSET(cpu, &allowed)) continue;
    CPU_SET(cpu, &pinned);
    list += (n++ > 0 ? "," : "") + std::to_string(cpu);
  }
  if (sched_setaffinity(0, sizeof(pinned), &pinned) != 0) {
    return "not pinned (sched_setaffinity failed)";
  }
  return list + " of " + std::to_string(CPU_COUNT(&allowed)) + " allowed";
}

std::string JsonEscape(const std::string& s) {
  std::string out;
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  // Fixed executor width and CPU set for every workload, before any thread
  // or pool exists.
  setenv("VDT_THREADS", std::to_string(perfbench::kThreads).c_str(), 1);
  const std::string cpus = PinCpus(perfbench::kThreads);

  Args args;
  args.work_dir = ".bench_build/perfbench-work";
  bool have_workload = false, have_seed = false, have_seconds = false,
       have_trace = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    char* end = nullptr;
    if (flag == "--workload") {
      args.workload = value;
      have_workload = true;
    } else if (flag == "--seed") {
      args.seed = std::strtoull(value.c_str(), &end, 10);
      have_seed = end != value.c_str() && *end == '\0';
    } else if (flag == "--seconds") {
      args.seconds = std::strtod(value.c_str(), &end);
      have_seconds = end != value.c_str() && *end == '\0' &&
                     args.seconds > 0 && args.seconds <= 600;
    } else if (flag == "--trace") {
      have_trace = value == "0" || value == "1";
      args.trace = value == "1";
    } else if (flag == "--work-dir") {
      args.work_dir = value;
    } else {
      return Usage(("unknown flag " + flag).c_str());
    }
  }
  if (argc % 2 != 1) return Usage("every flag takes one value");
  if (!have_workload || !have_seed || !have_seconds || !have_trace) {
    return Usage("--workload, --seed, --seconds and --trace are required");
  }
  RunResult (*run)(const Args&) = nullptr;
  if (args.workload == "serve") run = perfbench::RunServe;
  if (args.workload == "churn") run = perfbench::RunChurn;
  if (args.workload == "tune") run = perfbench::RunTune;
  if (run == nullptr) {
    return Usage(("unknown workload " + args.workload).c_str());
  }
  if (!MakeDirs(args.work_dir)) return Usage("cannot create --work-dir");
  vdt::SetLogLevel(vdt::LogLevel::kWarning);

  const char* source = std::getenv("PERFBENCH_SOURCE");
  std::printf("# fingerprint\n");
  std::printf("cpu_model: %s\n", perfbench::CpuModel().c_str());
  std::printf("nproc: %u\n", std::thread::hardware_concurrency());
  std::printf("cpus: %s\n", cpus.c_str());
  std::printf("kernel_backend: %s\n", vdt::kernels::Active().name);
  std::printf("VDT_THREADS: %s (executor width %zu)\n",
              std::getenv("VDT_THREADS"),
              vdt::ParallelExecutor::Global().num_threads());
  std::printf("build_type: %s\n", PERFBENCH_BUILD_TYPE);
  std::printf("source: %s\n", source != nullptr ? source : "unknown");
  std::printf("work_dir: %s (%s)\n", args.work_dir.c_str(),
              perfbench::FsType(args.work_dir).c_str());
  std::printf("workload: %s  seed: %llu  seconds: %s  trace: %d\n",
              args.workload.c_str(),
              static_cast<unsigned long long>(args.seed),
              FormatNumber(args.seconds).c_str(), args.trace ? 1 : 0);
  std::fflush(stdout);

  const double probe_before = perfbench::ProbeGbps();
  RunResult result = run(args);
  const double probe_after = perfbench::ProbeGbps();

  std::printf("# diagnostics (not metrics)\n");
  std::printf("env.steal_pct: %.3f\n", result.steal_pct);
  std::printf("env.probe_gbps: before %.3f after %.3f\n", probe_before,
              probe_after);
  for (const auto& [key, value] : result.info) {
    std::printf("%s: %s\n", key.c_str(), value.c_str());
  }
  std::printf("# metrics (%s)\n", args.trace ? "per-layer" : "end-to-end");
  for (const auto& [name, metric] : result.metrics) {
    if (!std::isfinite(metric.value)) {
      result.Fail("metric " + name + " is not finite");
      continue;
    }
    std::printf("%-28s %16s %-6s n=%zu\n", name.c_str(),
                FormatNumber(metric.value).c_str(), metric.unit.c_str(),
                metric.samples);
  }
  std::printf("# ops: %s\n", result.ops.ToString().c_str());
  if (result.ops.attempted == 0) result.Fail("no op was attempted");
  for (const std::string& why : result.gate_failures) {
    std::printf("GATE FAILED: %s\n", why.c_str());
  }
  std::printf("# gates: %s\n", result.correct ? "pass" : "FAIL");

  std::string json = "{\"correct\": ";
  json += result.correct ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(result.ops.attempted);
  json += ", \"failed\": " + std::to_string(result.ops.failed());
  json += ", \"metrics\": {";
  bool first = true;
  for (const auto& [name, metric] : result.metrics) {
    if (!std::isfinite(metric.value)) continue;
    if (!first) json += ", ";
    first = false;
    json += "\"" + JsonEscape(name) + "\": {\"value\": " +
            FormatNumber(metric.value) + ", \"unit\": \"" +
            JsonEscape(metric.unit) + "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
  return result.correct ? 0 : 1;
}
