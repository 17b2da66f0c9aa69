// Workload replay: runs every query of a Workload against a Collection and
// reports QPS, recall, and memory. Two modes:
//  - kCostModel (default): QPS derived deterministically from counted work.
//  - kMeasured: wall-clock QPS with `concurrency` worker threads.
#ifndef VDTUNER_WORKLOAD_REPLAY_H_
#define VDTUNER_WORKLOAD_REPLAY_H_

#include <string>

#include "vdms/collection.h"
#include "vdms/memory_model.h"
#include "workload/cost_model.h"
#include "workload/workload.h"

namespace vdt {

class ParallelExecutor;

enum class ReplayMode { kCostModel, kMeasured };

struct ReplayOptions {
  ReplayMode mode = ReplayMode::kCostModel;
  CostModelParams cost;
  /// Executor for the deterministic (kCostModel) batch pass, non-owning;
  /// must outlive the replay. Null uses the process-wide ParallelExecutor.
  /// Results are identical at any width; only wall-clock time changes.
  ///
  /// Replay never builds indexes; the build-side width is each
  /// configuration's IndexParams::build_threads, with the same
  /// only-wall-clock guarantee.
  ParallelExecutor* executor = nullptr;
};

/// Outcome of replaying one workload against one collection configuration.
struct ReplayResult {
  bool failed = false;
  std::string fail_reason;

  double qps = 0.0;
  double recall = 0.0;       // mean recall@k over queries
  MemoryBreakdown memory;    // paper-scale memory projection
  double memory_gib = 0.0;

  WorkCounters work;         // aggregate over all queries
  double replay_seconds = 0.0;  // simulated replay duration
};

/// Replays `workload` against `collection`. The collection must be flushed.
ReplayResult ReplayWorkload(const Collection& collection,
                            const Workload& workload,
                            const ReplayOptions& options);

}  // namespace vdt

#endif  // VDTUNER_WORKLOAD_REPLAY_H_
