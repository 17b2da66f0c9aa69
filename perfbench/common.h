// Shared helpers of the perfbench benchmark: sample statistics, op/failure
// accounting, an in-memory span tracer, host probes (CPU time, RSS, steal,
// a fixed kernel probe), and the per-run result that main.cc prints.
//
// The benchmark drives the library strictly from outside: every number here
// is taken around a public call (VdtClient, VdmsEngine, ShardView,
// SegmentView, CollectionStore, Tuner, ...). Spans are recorded only in a
// traced run; untraced runs never touch the tracer.
#ifndef PERFBENCH_COMMON_H_
#define PERFBENCH_COMMON_H_

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "common/status.h"
#include "index/kernels/kernels.h"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double SecondsBetween(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}
inline double MicrosBetween(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::micro>(b - a).count();
}

// --- sample statistics ------------------------------------------------------

/// Nearest-rank percentile of an ascending-sorted sample: the element at
/// 1-based rank ceil(p * n), clamped to [1, n]. 0 for an empty sample.
double Percentile(const std::vector<double>& sorted, double p);

/// The highest quantile that still has at least ten samples beyond it,
/// capped at 0.99: 1 - 10 / n (p99 from n = 1000 on). Below 20 samples the
/// median is the highest such quantile.
double TailQuantile(size_t n);

/// Median of an unsorted sample (nearest rank).
double Median(std::vector<double> values);

/// Median, tail (at TailQuantile) and count of one latency sample.
struct LatencySummary {
  size_t count = 0;
  double p50 = 0.0;
  double tail = 0.0;
};
LatencySummary Summarize(std::vector<double> samples);

/// A timed phase cut into windows, each summarized on its own and the
/// windows' values reduced by their median, so a burst of host noise that
/// spans a minority of the windows does not move the result.
struct WindowedStats {
  size_t windows = 0;         // windows holding at least one sample
  size_t samples = 0;
  double ops_per_s = 0.0;     // median of per-window count / length
  double p50 = 0.0;           // median of per-window medians
  double tail = 0.0;          // median of per-window tails (TailQuantile)
  double cpu_us_per_op = 0.0;  // median of per-window CPU / count
};

/// `bounds` are the window edges in seconds (size W + 1, ascending) and
/// `cpu` the process CPU seconds read at each edge; `samples` are
/// (completion second, latency) pairs. A sample belongs to the window its
/// completion falls in; samples outside every window are ignored.
WindowedStats Windowed(const std::vector<double>& bounds,
                       const std::vector<double>& cpu,
                       const std::vector<std::pair<double, double>>& samples);

// --- op accounting ----------------------------------------------------------

/// Attempted and failed primary ops, with the failure split by cause.
struct OpCounts {
  uint64_t attempted = 0;
  uint64_t busy = 0;       // BUSY admission rejections (ResourceExhausted)
  uint64_t timeout = 0;    // queue-wait timeouts
  uint64_t transport = 0;  // transport / protocol errors (Internal)
  uint64_t engine = 0;     // every other error the engine or server returned
  uint64_t wrong = 0;      // replies that arrived but failed a result check

  uint64_t failed() const {
    return busy + timeout + transport + engine + wrong;
  }
  uint64_t ok() const { return attempted - failed(); }

  /// Counts one attempt and classifies `status` when it is an error.
  void Record(const vdt::Status& status);
  /// Counts one attempt whose reply arrived but failed a result check.
  void RecordWrong();
  void Add(const OpCounts& other);
  std::string ToString() const;
};

// --- tracing ----------------------------------------------------------------

/// One recorded span: a named interval, the span that caused it (-1 for a
/// root) and the request it belongs to.
struct Span {
  std::string name;
  int64_t parent = -1;
  uint64_t request = 0;
  uint64_t start_ns = 0;
  uint64_t end_ns = 0;
};

/// Self time of a span: its duration minus the part of its interval that
/// the union of `children` ([start, end) pairs, any order, may overlap each
/// other or stick out of the parent) covers.
uint64_t SelfTimeNs(uint64_t start_ns, uint64_t end_ns,
                    std::vector<std::pair<uint64_t, uint64_t>> children);

/// Thread-safe in-memory span recorder. Spans stay in memory until
/// WriteCsv() at the end of the run.
class Tracer {
 public:
  static uint64_t NowNs();

  /// Opens a span and returns its id (its index in spans()).
  int64_t Begin(const std::string& name, int64_t parent, uint64_t request);
  void End(int64_t id);

  /// Self time of every span named `name`, in microseconds.
  std::vector<double> SelfTimesUs(const std::string& name) const;
  /// Durations of every span named `name`, in microseconds.
  std::vector<double> DurationsUs(const std::string& name) const;

  size_t size() const;
  /// Writes "id,parent,request,name,start_ns,end_ns" lines to `path`.
  bool WriteCsv(const std::string& path) const;

 private:
  mutable std::mutex mu_;
  std::vector<Span> spans_;  // guarded by mu_
};

/// RAII span; a no-op when `tracer` is null (untraced runs).
class ScopedSpan {
 public:
  ScopedSpan(Tracer* tracer, const std::string& name, int64_t parent = -1,
             uint64_t request = 0)
      : tracer_(tracer),
        id_(tracer ? tracer->Begin(name, parent, request) : -1) {}
  ~ScopedSpan() {
    if (tracer_ != nullptr) tracer_->End(id_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;
  int64_t id() const { return id_; }

 private:
  Tracer* tracer_;
  int64_t id_;
};

// --- host probes ------------------------------------------------------------

/// Process user + system CPU seconds so far.
double CpuSeconds();
/// Current and peak resident set size of this process, in MB.
double RssMb();
double PeakRssMb();

/// Aggregate CPU jiffies from /proc/stat (all CPUs).
struct CpuStat {
  uint64_t total = 0;
  uint64_t steal = 0;
};
CpuStat ReadCpuStat();
/// Steal share of CPU time between two readings, in percent.
double StealPct(const CpuStat& before, const CpuStat& after);

/// GB/s of `backend`'s dot_batch scanning `rows` x `dim` contiguous floats
/// (the median of `reps` timed passes of at least `min_seconds` / reps each).
double KernelGbps(const vdt::kernels::Backend& backend, const float* rows,
                  size_t n, size_t dim, int reps, double min_seconds);
/// The host-speed probe: the active backend on a fixed L2-resident block.
double ProbeGbps();

std::string CpuModel();
/// Filesystem type name of `path` ("ext4", "tmpfs", ...).
std::string FsType(const std::string& path);
/// Total bytes of the regular files under `dir` (recursive).
uint64_t DirBytes(const std::string& dir);
/// Regular files directly in `dir` with their sizes.
std::map<std::string, uint64_t> ListFiles(const std::string& dir);

// --- run result -------------------------------------------------------------

struct Metric {
  double value = 0.0;
  std::string unit;
  size_t samples = 0;  // 0 = exact count / single measurement
};

/// Everything a workload hands back to main.cc for printing.
struct RunResult {
  bool correct = true;
  std::vector<std::string> gate_failures;
  OpCounts ops;
  std::map<std::string, Metric> metrics;  // end-to-end, or per-layer if traced
  /// Printed with the run, never part of a metric.
  std::vector<std::pair<std::string, std::string>> info;
  double steal_pct = 0.0;  // during the timed phase

  void Fail(const std::string& why);
  void Set(const std::string& name, double value, const std::string& unit,
           size_t samples = 0);
  void Info(const std::string& key, const std::string& value);
};

/// Command-line settings shared by every workload.
struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string work_dir;  // scratch root inside the checkout
};

/// Hex-free decimal formatting with full precision for JSON output.
std::string FormatNumber(double value);

}  // namespace perfbench

#endif  // PERFBENCH_COMMON_H_
