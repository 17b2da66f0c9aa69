// The evaluator: turns a TuningConfig into measured objectives by standing
// up a collection (ingest -> seal -> index build) and replaying the
// workload. Handles failures (infeasible parameters, replay timeouts) and
// simulates paper-scale evaluation time for the tuning-time experiments
// (Fig. 7, Table VI). A build cache shares collections across
// configurations that differ only in search-time knobs.
#ifndef VDTUNER_TUNER_EVALUATOR_H_
#define VDTUNER_TUNER_EVALUATOR_H_

#include <list>
#include <map>
#include <string>
#include <utility>

#include "tuner/param_space.h"
#include "vdms/vdms.h"
#include "workload/churn.h"
#include "workload/replay.h"
#include "workload/workload.h"

namespace vdt {

/// Raw outcome of evaluating one configuration.
struct EvalOutcome {
  bool failed = false;
  std::string fail_reason;
  double qps = 0.0;
  double recall = 0.0;
  double memory_gib = 0.0;
  /// Simulated paper-scale seconds this evaluation would take:
  /// data load + index build + workload replay.
  double eval_seconds = 0.0;
};

/// Interface so tests can substitute synthetic objective surfaces.
class Evaluator {
 public:
  virtual ~Evaluator() = default;
  virtual EvalOutcome Evaluate(const TuningConfig& config) = 0;
};

/// Options for the VDMS-backed evaluator.
struct VdmsEvaluatorOptions {
  DatasetProfile profile = DatasetProfile::kGlove;
  ReplayOptions replay;
  uint64_t seed = 13;
  /// Built collections cached across evaluations (keyed by segment layout —
  /// including the shard count — + index build signature). 0 disables
  /// caching.
  size_t cache_capacity = 24;
  /// Churn mode: when set (non-owning, must outlive the evaluator), every
  /// evaluation stands up an *empty* collection with the configuration and
  /// drives it through this mixed insert/delete/search timeline instead of
  /// replaying the static `workload`. Because the timeline mutates the
  /// collection (deletes, compactions), churn evaluations bypass the build
  /// cache entirely. Outcomes stay deterministic at any replay.executor /
  /// IndexParams::build_threads width for the kmeans-family and FLAT index
  /// types (HNSW keeps its documented sequential-vs-batched mode
  /// distinction).
  ///
  /// Pair churn tuning with ParamSpace(/*dynamic_workload=*/true):
  /// otherwise the compaction_deleted_ratio knob — the one dimension that
  /// only a deleting workload can exercise — stays pinned at its default
  /// and the acquisition never explores it.
  const ChurnWorkload* churn = nullptr;
};

/// Evaluates configurations against a real collection built over `data`.
class VdmsEvaluator : public Evaluator {
 public:
  /// `data` and `workload` must outlive the evaluator. In churn mode
  /// (options.churn set) `workload` may be null — the timeline carries its
  /// own queries and per-op live-set ground truth.
  VdmsEvaluator(const FloatMatrix* data, const Workload* workload,
                VdmsEvaluatorOptions options);

  EvalOutcome Evaluate(const TuningConfig& config) override;

  /// Cache statistics (for the overhead analysis).
  size_t cache_hits() const { return cache_hits_; }
  size_t cache_misses() const { return cache_misses_; }

 private:
  std::string CacheKey(const TuningConfig& config) const;
  /// Stands a collection up through the engine under `name` (create +
  /// ingest + flush) and opens a handle on it. On failure the handle is
  /// still valid when the collection exists (its stats feed the simulated
  /// stand-up time); the caller drops the collection.
  Status StandUpCollection(const TuningConfig& config,
                           const std::string& name,
                           CollectionHandle* handle);
  /// Releases `handle` and drops the named collection from the engine.
  void DropCollection(const std::string& name, CollectionHandle* handle);
  /// CollectionOptions for `config` (dataset scale and seed applied)
  /// without ingesting any data.
  CollectionOptions MakeCollectionOptions(const TuningConfig& config) const;
  /// Simulated paper-scale seconds to stand the configuration up (data load
  /// + index build over the indexed fraction of what is stored).
  double AnalyticStandUpSeconds(const TuningConfig& config,
                                const CollectionStats& stats) const;
  /// The churn-mode evaluation path (options_.churn != nullptr).
  EvalOutcome EvaluateChurn(const TuningConfig& config);

  const FloatMatrix* data_;
  const Workload* workload_;
  VdmsEvaluatorOptions options_;

  /// The engine that owns every collection this evaluator stands up;
  /// collections are named by cache key and accessed through ref-counted
  /// handles (never raw pointers), so a cache eviction can only drop a
  /// collection after its handle is released.
  VdmsEngine engine_;
  // LRU cache of built collections (name == cache key), as live handles.
  std::list<std::pair<std::string, CollectionHandle>> lru_;
  size_t cache_hits_ = 0;
  size_t cache_misses_ = 0;
};

}  // namespace vdt

#endif  // VDTUNER_TUNER_EVALUATOR_H_
