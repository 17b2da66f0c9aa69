#include "tuner/evaluator.h"

#include <algorithm>
#include <sstream>

#include "common/logging.h"

namespace vdt {

VdmsEvaluator::VdmsEvaluator(const FloatMatrix* data, const Workload* workload,
                             VdmsEvaluatorOptions options)
    : data_(data), workload_(workload), options_(options) {
  // The replay pass is the hot path of every tuner iteration: when the
  // caller asked for a dedicated width, build the pool once here instead of
  // per replay. eval_threads == 0 leaves the caller's replay options as-is,
  // and a caller-supplied replay.executor always wins over eval_threads.
  if (options_.eval_threads > 0 && options_.replay.executor == nullptr) {
    executor_ = std::make_unique<ParallelExecutor>(options_.eval_threads);
    options_.replay.executor = executor_.get();
  }
}

std::string VdmsEvaluator::CacheKey(const TuningConfig& config) const {
  // Layout-affecting system parameters + the index build signature. Two
  // configurations with equal keys produce identical segment contents and
  // index structures.
  std::ostringstream os;
  os << BuildSignature(config.index_type, config.index) << "|";
  os.precision(6);
  os << config.system.segment_max_size_mb << "|"
     << config.system.seal_proportion << "|"
     << config.system.insert_buf_size_mb << "|"
     << config.system.build_index_threshold << "|"
     << config.system.num_shards;
  return os.str();
}

CollectionOptions VdmsEvaluator::MakeCollectionOptions(
    const TuningConfig& config) const {
  const DatasetSpec& spec = GetDatasetSpec(options_.profile);
  CollectionOptions copts;
  copts.name = spec.name;
  copts.metric = spec.metric;
  copts.system = config.system;
  copts.index.type = config.index_type;
  copts.index.params = config.index;
  if (options_.build_threads > 0) {
    copts.index.params.build_threads =
        static_cast<int>(options_.build_threads);
  }
  copts.scale.dataset_mb = spec.standin_mb;
  copts.scale.memory_mb = spec.PaperMb();
  copts.scale.actual_rows = data_->rows();
  copts.seed = options_.seed;
  return copts;
}

Status VdmsEvaluator::StandUpCollection(const TuningConfig& config,
                                        const std::string& name,
                                        CollectionHandle* handle) {
  CollectionOptions copts = MakeCollectionOptions(config);
  copts.name = name;
  VDT_RETURN_IF_ERROR(engine_.CreateCollection(copts));
  Result<CollectionHandle> opened = engine_.Open(name);
  if (!opened.ok()) return opened.status();  // unreachable: just created
  *handle = std::move(*opened);
  Status st = (*handle)->Insert(*data_);
  if (st.ok()) st = (*handle)->Flush();
  return st;
}

void VdmsEvaluator::DropCollection(const std::string& name,
                                   CollectionHandle* handle) {
  handle->reset();  // the engine refuses to drop while the handle is live
  const Status dropped = engine_.DropCollection(name);
  (void)dropped;  // NotFound when creation itself failed; nothing to do
}

double VdmsEvaluator::AnalyticStandUpSeconds(
    const TuningConfig& config, const CollectionStats& stats) const {
  const DatasetSpec& spec = GetDatasetSpec(options_.profile);
  const double paper_rows_total = static_cast<double>(spec.paper_rows);
  // growing_rows are the brute-force-scanned (unindexed) stored rows.
  const double indexed_fraction =
      stats.stored_rows > 0
          ? 1.0 - static_cast<double>(stats.growing_rows) /
                      static_cast<double>(stats.stored_rows)
          : 0.0;
  return AnalyticLoadSeconds(options_.replay.cost, paper_rows_total,
                             spec.paper_dim) +
         AnalyticBuildSeconds(options_.replay.cost, config.index_type,
                              config.index,
                              paper_rows_total * indexed_fraction,
                              spec.paper_dim);
}

EvalOutcome VdmsEvaluator::EvaluateChurn(const TuningConfig& config) {
  EvalOutcome out;

  // A fresh, empty collection every time: the timeline mutates it (deletes,
  // compactions), so nothing here can be shared through the build cache.
  // Stood up through the engine and driven via a handle, then dropped.
  static constexpr char kChurnName[] = "__vdt_churn_eval__";
  CollectionOptions copts = MakeCollectionOptions(config);
  copts.name = kChurnName;
  Status st = engine_.CreateCollection(copts);
  if (!st.ok()) {
    out.failed = true;
    out.fail_reason = st.ToString();
    return out;
  }
  CollectionHandle handle = *engine_.Open(kChurnName);
  const ChurnReplayResult replay =
      ReplayChurn(handle.get(), *options_.churn, options_.replay);

  out.eval_seconds = AnalyticStandUpSeconds(config, handle->Stats());
  out.qps = replay.qps;
  out.recall = replay.recall;
  out.memory_gib = replay.memory_gib;
  out.eval_seconds += replay.replay_seconds;
  if (replay.failed) {
    out.failed = true;
    out.fail_reason = replay.fail_reason;
    out.eval_seconds += 900.0;  // the paper's 15-minute replay cap
  }
  DropCollection(kChurnName, &handle);
  return out;
}

EvalOutcome VdmsEvaluator::Evaluate(const TuningConfig& config) {
  if (options_.churn != nullptr) return EvaluateChurn(config);

  EvalOutcome out;

  // Look up / build the collection. Cached collections live inside the
  // engine under their cache key; the LRU holds ref-counted handles.
  CollectionHandle collection;
  const std::string key = CacheKey(config);
  for (auto it = lru_.begin(); it != lru_.end(); ++it) {
    if (it->first == key) {
      collection = it->second;
      lru_.splice(lru_.begin(), lru_, it);  // move to front
      ++cache_hits_;
      break;
    }
  }
  Status build_status = Status::OK();
  bool cached = static_cast<bool>(collection);
  if (!collection) {
    ++cache_misses_;
    build_status = StandUpCollection(config, key, &collection);
    if (build_status.ok() && options_.cache_capacity > 0) {
      lru_.emplace_front(key, collection);
      cached = true;
      if (lru_.size() > options_.cache_capacity) {
        auto victim = std::move(lru_.back());
        lru_.pop_back();
        DropCollection(victim.first, &victim.second);
      }
    }
  }

  // Simulated paper-scale evaluation time: every configuration change
  // reloads data and rebuilds indexes (the paper's dominant cost), cache or
  // not — our cache is an implementation shortcut, not part of the model.
  out.eval_seconds = AnalyticStandUpSeconds(
      config, collection ? collection->Stats() : CollectionStats{});

  if (!build_status.ok()) {
    out.failed = true;
    out.fail_reason = build_status.ToString();
    if (collection || engine_.HasCollection(key)) {
      DropCollection(key, &collection);  // failed builds are never cached
    }
    return out;
  }

  // Apply the search-time knobs this configuration requests, then replay
  // through the typed request surface. A refused knob change is a failed
  // evaluation, never a replay under the previous knobs.
  Status knobs = collection->UpdateSearchParams(config.index);
  if (knobs.ok()) knobs = collection->OverrideRuntimeSystem(config.system);
  if (!knobs.ok()) {
    out.failed = true;
    out.fail_reason = knobs.ToString();
    if (!cached) DropCollection(key, &collection);
    return out;
  }
  ReplayResult replay =
      ReplayWorkload(*collection, *workload_, options_.replay);

  out.qps = replay.qps;
  out.recall = replay.recall;
  out.memory_gib = replay.memory_gib;
  out.eval_seconds += replay.replay_seconds;
  if (replay.failed) {
    out.failed = true;
    out.fail_reason = replay.fail_reason;
    // A timed-out replay still consumed the paper's 15-minute cap.
    out.eval_seconds += 900.0;
  }
  if (!cached) DropCollection(key, &collection);
  return out;
}

}  // namespace vdt
