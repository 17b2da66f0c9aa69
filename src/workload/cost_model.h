// The calibrated machine model that converts counted per-query work into
// deterministic QPS, and index parameters into simulated build times. It
// stands in for wall-clock timing: relative orderings come from real work
// ratios; the constants only set absolute magnitudes (calibrated to the
// paper's 10^2..2x10^3 QPS range on a 72-core server).
#ifndef VDTUNER_WORKLOAD_COST_MODEL_H_
#define VDTUNER_WORKLOAD_COST_MODEL_H_

#include <cstddef>

#include "index/index.h"
#include "vdms/collection.h"
#include "vdms/system_config.h"

namespace vdt {

/// Machine/calibration constants. All times in seconds.
struct CostModelParams {
  double sec_per_flop = 6.0e-8;        // float multiply-add (1 lane)
  double sec_per_code_op = 2.4e-8;     // SQ8 scan element
  double sec_per_pq_lookup = 8.0e-9;   // PQ ADC table lookup-add
  double sec_per_hop = 2.0e-7;         // graph node expansion overhead
  double sec_per_segment = 1.5e-4;     // per-segment dispatch + merge
  double sec_per_miss_byte = 1.0e-9;   // cache-miss bandwidth penalty
  double sync_lag_ms = 500.0;          // ingest clock lag (bounded staleness)
  double stall_fraction = 0.08;        // queries hitting the staleness gate
  int simulated_cores = 72;            // the paper's testbed width
  double oversub_penalty = 0.02;       // scheduler cost per thread beyond cores
  /// Paper-scale queries represented by one replayed batch (sets the
  /// simulated replay duration: replay_sec = virtual_queries / qps).
  double virtual_queries = 100000.0;
  /// A configuration is declared failed when slower than this (the paper's
  /// 15-minute replay cap at virtual_queries volume).
  double min_qps = 110.0;
};

/// Deterministic QPS from aggregated query work.
/// `work` is the total over `num_queries` queries; `dim` is the vector
/// dimension; `stats`/`system` provide segment counts and cache/concurrency
/// settings; `concurrency` is the workload's concurrent request count.
double ComputeQps(const CostModelParams& params, const WorkCounters& work,
                  size_t num_queries, size_t dim, const CollectionStats& stats,
                  const SystemConfig& system, int concurrency);

/// Simulated seconds to build `type` over `paper_rows` rows of dimension
/// `paper_dim` (paper-scale). Used for tuning-time accounting (Table VI,
/// Fig. 7) — magnitudes match the paper's minutes-per-build experience.
double AnalyticBuildSeconds(const CostModelParams& params, IndexType type,
                            const IndexParams& index_params, double paper_rows,
                            size_t paper_dim);

/// Simulated seconds to (re)load/ingest the collection data.
double AnalyticLoadSeconds(const CostModelParams& params, double paper_rows,
                           size_t paper_dim);

}  // namespace vdt

#endif  // VDTUNER_WORKLOAD_COST_MODEL_H_
