#include "workload/replay.h"

#include <mutex>

#include "common/parallel_executor.h"
#include "common/stopwatch.h"

namespace vdt {

ReplayResult ReplayWorkload(const Collection& collection,
                            const Workload& workload,
                            const ReplayOptions& options) {
  ReplayResult result;
  const size_t nq = workload.queries.rows();
  if (nq == 0) {
    result.failed = true;
    result.fail_reason = "empty workload";
    return result;
  }

  // In cost-model mode the stats are replaced by the ones of the snapshot
  // that served the batch, so QPS and memory describe one collection state.
  CollectionStats stats = collection.Stats();
  const SystemConfig& system = collection.options().system;

  double recall_sum = 0.0;
  WorkCounters total;
  // Requests view the workload's query rows (FloatMatrix::Borrow), so
  // nothing is copied per replay.
  const auto borrow = [&workload](size_t first, size_t rows) {
    SearchRequest request;
    request.queries = FloatMatrix::Borrow(workload.queries.Row(first), rows,
                                          workload.queries.dim(), nullptr);
    request.k = workload.k;
    return request;
  };
  const auto fail = [&result](const Status& status) {
    result.failed = true;
    result.fail_reason = status.ToString();
    return result;
  };

  if (options.mode == ReplayMode::kMeasured) {
    // Wall-clock replay with `concurrency` workers pulling from a shared
    // queue (the vector-db-benchmark client model). Each query is a one-row
    // request on the same pool, so its shard scatter runs inline on the
    // worker that claimed it.
    std::mutex agg_mu;
    Status error;
    Stopwatch timer;
    ParallelExecutor pool(static_cast<size_t>(std::max(1, workload.concurrency)));
    pool.ParallelFor(nq, [&](size_t q) {
      const Result<SearchResponse> response =
          collection.Search(borrow(q, 1), &pool);
      const double r = response.ok() ? RecallAtK(response->top(),
                                                 workload.ground_truth[q])
                                     : 0.0;
      std::lock_guard<std::mutex> lock(agg_mu);
      if (!response.ok()) {
        error = response.status();
        return;
      }
      recall_sum += r;
      total.Add(response->work);
    });
    const double wall = timer.ElapsedSeconds();
    if (!error.ok()) return fail(error);
    result.qps = static_cast<double>(nq) / std::max(1e-9, wall);
    result.replay_seconds = wall;
  } else {
    // Deterministic pass: count work, derive QPS from the machine model.
    // Queries run as one typed request against one snapshot; recall is
    // folded in query order so the floating-point sum is bit-identical to
    // the sequential loop.
    const Result<SearchResponse> response =
        collection.Search(borrow(0, nq), options.executor);
    if (!response.ok()) return fail(response.status());
    for (size_t q = 0; q < nq; ++q) {
      recall_sum += RecallAtK(response->neighbors[q], workload.ground_truth[q]);
    }
    total = response->work;
    stats = response->stats;
    result.qps = ComputeQps(options.cost, total, nq, collection.dim(), stats,
                            system, workload.concurrency);
    result.replay_seconds =
        options.cost.virtual_queries / std::max(1e-9, result.qps);
  }

  result.recall = recall_sum / static_cast<double>(nq);
  result.work = total;
  result.memory = ComputeMemory(stats, system);
  result.memory_gib = result.memory.TotalGib();

  if (options.mode == ReplayMode::kCostModel &&
      result.qps < options.cost.min_qps) {
    result.failed = true;
    result.fail_reason = "replay timeout: qps below floor";
  }
  return result;
}

}  // namespace vdt
