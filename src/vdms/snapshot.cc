#include "vdms/snapshot.h"

#include <cassert>
#include <string>

#include "common/parallel_executor.h"
#include "index/topk.h"

namespace vdt {

std::vector<Neighbor> GrowingView::Search(Metric metric, const float* query,
                                          size_t k, WorkCounters* counters,
                                          const IdFilter* id_filter) const {
  TopKCollector topk(k);
  size_t offset = 0;
  for (const std::shared_ptr<const GrowingChunk>& chunk : chunks) {
    // The overlay spans all chunks; offsetting the bitmap pointer gives
    // each chunk its local view of it.
    const uint8_t* bits =
        deleted_rows() > 0 ? tombstones->bits.data() + offset : nullptr;
    RowFilter::Predicate local_pred;
    if (id_filter != nullptr) {
      local_pred = [id_filter, ids = chunk->ids.data()](int64_t local) {
        return (*id_filter)(ids[local]);
      };
    }
    const RowFilter filter(bits,
                           id_filter != nullptr ? &local_pred : nullptr);
    const RowFilter* fp =
        bits != nullptr || id_filter != nullptr ? &filter : nullptr;
    ScanRows(chunk->data, metric, query, chunk->ids.data(), fp, counters,
             &topk);
    offset += chunk->ids.size();
  }
  return topk.Take();
}

std::vector<Neighbor> SegmentView::Search(Metric metric, const float* query,
                                          size_t k, WorkCounters* counters,
                                          const IdFilter* id_filter,
                                          const IndexParams* knobs) const {
  const uint8_t* bits = tombstones != nullptr && tombstones->deleted > 0
                            ? tombstones->bits.data()
                            : nullptr;
  // Translate the collection-id predicate into this segment's local ids.
  RowFilter::Predicate local_pred;
  if (id_filter != nullptr) {
    local_pred = [this, id_filter](int64_t local) {
      return (*id_filter)(segment->IdAt(static_cast<size_t>(local)));
    };
  }
  const RowFilter filter(bits, id_filter != nullptr ? &local_pred : nullptr);
  const RowFilter* fp =
      bits != nullptr || id_filter != nullptr ? &filter : nullptr;
  return segment->Search(metric, query, k, counters, fp, knobs);
}

std::vector<Neighbor> ShardView::Search(Metric metric, const float* query,
                                        size_t k, WorkCounters* counters,
                                        const IdFilter* id_filter,
                                        const IndexParams* knobs) const {
  // Knob-override contract: the caller (CollectionSnapshot::Search) resolves
  // any per-request override exactly once and hands every shard of the
  // scatter the same effective knobs — a shard never falls back on its own.
  assert(knobs != nullptr &&
         "ShardView::Search requires caller-resolved knobs");
  TopKCollector merged(k);
  for (const SegmentView& view : sealed) {
    for (const Neighbor& n :
         view.Search(metric, query, k, counters, id_filter, knobs)) {
      merged.Offer(n.id, n.distance);
    }
  }
  if (growing.rows > 0) {
    for (const Neighbor& n :
         growing.Search(metric, query, k, counters, id_filter)) {
      merged.Offer(n.id, n.distance);
    }
  }
  if (counters != nullptr) ++counters->shard_scatters;
  return merged.Take();
}

Result<SearchResponse> CollectionSnapshot::Search(
    const SearchRequest& request, ParallelExecutor* executor) const {
  const FloatMatrix& queries = request.queries;
  const size_t k = request.k;
  const size_t nq = queries.rows();
  if (k == 0) return Status::InvalidArgument("search: k must be > 0");
  if (nq > 0 && dim != 0 && queries.dim() != dim) {
    return Status::InvalidArgument(
        "search: query dim " + std::to_string(queries.dim()) +
        " != collection dim " + std::to_string(dim));
  }
  SearchResponse response;
  response.neighbors.resize(nq);
  response.query_work.resize(nq);
  response.stats = stats;
  if (nq == 0) return response;

  // Resolve the per-request override once, up front. The scatter below
  // hands this same pointer to every (query, shard) task, which is what
  // guarantees overrides apply identically on every shard.
  const IndexParams* effective =
      request.params.has_value() ? &request.params.value() : &params;
  const IdFilter* id_filter = request.filter ? &request.filter : nullptr;
  const size_t num_shards = shards.size();

  // Scatter: one task per (query, shard) pair — a single slow shard no
  // longer serializes the whole query, and wide queries use every core even
  // at nq == 1. Each task owns its partial-result and counter slot, so no
  // synchronization is needed inside the search.
  std::vector<std::vector<Neighbor>> partial(nq * num_shards);
  std::vector<WorkCounters> scatter_work(nq * num_shards);
#ifndef NDEBUG
  // Debug cross-check of the knob-override contract: every scatter task
  // records the effective search knobs it applied; they must all agree.
  struct AppliedKnobs {
    int nprobe = 0;
    int ef = 0;
    int reorder_k = 0;
  };
  std::vector<AppliedKnobs> applied(nq * num_shards);
#endif
  if (executor == nullptr) executor = &ParallelExecutor::Global();
  executor->ParallelFor(nq * num_shards, [&](size_t t) {
    const size_t q = t / num_shards;
    const size_t s = t % num_shards;
#ifndef NDEBUG
    applied[t] = {effective->nprobe, effective->ef, effective->reorder_k};
#endif
    partial[t] = shards[s].Search(metric, queries.Row(q), k,
                                  &scatter_work[t], id_filter, effective);
  });
#ifndef NDEBUG
  for (size_t t = 1; t < applied.size(); ++t) {
    assert(applied[t].nprobe == applied[0].nprobe &&
           applied[t].ef == applied[0].ef &&
           applied[t].reorder_k == applied[0].reorder_k &&
           "scatter tasks resolved different effective knobs");
  }
#endif

  // Gather: per query, fold the shard partials (lists and counters) in
  // shard order, then fold per-query counters in query order — the
  // aggregate is bit-identical to a sequential loop no matter how the
  // scatter was scheduled.
  for (size_t q = 0; q < nq; ++q) {
    std::vector<std::vector<Neighbor>> lists;
    lists.reserve(num_shards);
    size_t offered = 0;
    for (size_t s = 0; s < num_shards; ++s) {
      response.query_work[q].Add(scatter_work[q * num_shards + s]);
      offered += partial[q * num_shards + s].size();
      lists.push_back(std::move(partial[q * num_shards + s]));
    }
    response.query_work[q].gather_candidates += offered;
    response.neighbors[q] = MergeTopK(std::move(lists), k);
    response.work.Add(response.query_work[q]);
  }
  return response;
}

}  // namespace vdt
