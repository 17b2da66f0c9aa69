#include "workload/churn.h"

#include <algorithm>
#include <utility>

#include "common/random.h"

namespace vdt {

const char* OpKindName(OpKind kind) {
  switch (kind) {
    case OpKind::kInsert:
      return "insert";
    case OpKind::kDelete:
      return "delete";
    case OpKind::kSearch:
      return "search";
  }
  return "?";
}

size_t ChurnWorkload::num_searches() const {
  size_t n = 0;
  for (const ChurnOp& op : ops) n += op.kind == OpKind::kSearch ? 1 : 0;
  return n;
}

size_t ChurnWorkload::num_deletes() const {
  size_t n = 0;
  for (const ChurnOp& op : ops) {
    if (op.kind == OpKind::kDelete) n += op.delete_ids.size();
  }
  return n;
}

ChurnWorkload MakeChurnWorkload(DatasetProfile profile, const FloatMatrix& data,
                                const ChurnSpec& spec, uint64_t seed) {
  const DatasetSpec& ds = GetDatasetSpec(profile);
  ChurnWorkload w;
  w.profile = profile;
  w.base = &data;
  w.k = spec.k;
  w.concurrency = spec.concurrency;
  w.queries = GenerateQueries(profile, std::max<size_t>(1, spec.num_queries),
                              data.dim(), seed ^ 0x5EED);

  Rng rng(seed);
  const size_t n = data.rows();
  // 1 = not live (not yet inserted, or deleted): the same bitmap feeds the
  // brute-force oracle through a RowFilter, so ground truth is exact over
  // the live set at each search op.
  std::vector<uint8_t> dead(n, 1);
  size_t inserted_end = 0;
  size_t live_count = 0;
  size_t next_query = 0;

  auto oracle = [&](size_t q) {
    const RowFilter filter(dead.data());
    const auto hits = BruteForceSearch(data, ds.metric, w.queries.Row(q),
                                       spec.k, nullptr, &filter);
    std::vector<int64_t> ids;
    ids.reserve(hits.size());
    for (const Neighbor& hit : hits) ids.push_back(hit.id);
    return ids;
  };

  auto push_insert = [&](size_t begin, size_t end) {
    if (begin >= end) return;
    ChurnOp op;
    op.kind = OpKind::kInsert;
    op.insert_begin = begin;
    op.insert_end = end;
    w.ops.push_back(std::move(op));
    for (size_t i = begin; i < end; ++i) dead[i] = 0;
    live_count += end - begin;
    inserted_end = end;
  };

  const double init_frac = std::clamp(spec.initial_fraction, 0.0, 1.0);
  push_insert(0, static_cast<size_t>(static_cast<double>(n) * init_frac));

  const size_t rounds = std::max<size_t>(1, spec.rounds);
  const size_t per_round = (n - inserted_end) / rounds;
  for (size_t r = 0; r < rounds; ++r) {
    const size_t begin = inserted_end;
    const size_t end =
        r + 1 == rounds ? n : std::min(n, begin + per_round);
    push_insert(begin, end);

    const double del_frac = std::clamp(spec.delete_fraction, 0.0, 0.9);
    const size_t want = static_cast<size_t>(
        static_cast<double>(live_count) * del_frac);
    if (want > 0) {
      std::vector<int64_t> live_ids;
      live_ids.reserve(live_count);
      for (size_t i = 0; i < inserted_end; ++i) {
        if (dead[i] == 0) live_ids.push_back(static_cast<int64_t>(i));
      }
      // Partial Fisher-Yates: the first `want` entries become a uniform
      // sample of the live set, deterministic under the seed.
      for (size_t j = 0; j < want; ++j) {
        const size_t pick =
            j + static_cast<size_t>(rng.UniformInt(
                    static_cast<uint64_t>(live_ids.size() - j)));
        std::swap(live_ids[j], live_ids[pick]);
      }
      ChurnOp op;
      op.kind = OpKind::kDelete;
      op.delete_ids.assign(live_ids.begin(),
                           live_ids.begin() + static_cast<ptrdiff_t>(want));
      for (const int64_t id : op.delete_ids) dead[id] = 1;
      live_count -= want;
      w.ops.push_back(std::move(op));
    }

    for (size_t s = 0; s < spec.searches_per_round; ++s) {
      ChurnOp op;
      op.kind = OpKind::kSearch;
      op.query = next_query++ % w.queries.rows();
      op.truth = oracle(op.query);
      w.ops.push_back(std::move(op));
    }
  }
  return w;
}

ChurnReplayResult ReplayChurn(Collection* collection,
                              const ChurnWorkload& workload,
                              const ReplayOptions& options) {
  ChurnReplayResult result;
  if (collection == nullptr || workload.base == nullptr) {
    result.failed = true;
    result.fail_reason = "churn replay: null collection or base data";
    return result;
  }
  if (workload.num_searches() == 0) {
    result.failed = true;
    result.fail_reason = "churn replay: timeline has no search ops";
    return result;
  }
  if (options.mode != ReplayMode::kCostModel) {
    result.failed = true;
    result.fail_reason =
        "churn replay: only ReplayMode::kCostModel is supported";
    return result;
  }

  const size_t base_compactions = collection->Stats().num_compactions;
  double recall_sum = 0.0;
  WorkCounters total;

  size_t i = 0;
  while (i < workload.ops.size()) {
    const ChurnOp& op = workload.ops[i];
    if (op.kind == OpKind::kInsert) {
      const Status st = collection->Insert(
          workload.base->Slice(op.insert_begin, op.insert_end));
      if (!st.ok()) {
        result.failed = true;
        result.fail_reason = st.ToString();
        return result;
      }
      ++i;
      continue;
    }
    if (op.kind == OpKind::kDelete) {
      size_t deleted = 0;
      const Status st = collection->Delete(op.delete_ids, &deleted);
      if (!st.ok()) {
        result.failed = true;
        result.fail_reason = st.ToString();
        return result;
      }
      result.rows_deleted += deleted;
      ++i;
      continue;
    }
    // A run of consecutive search ops executes as one deterministic batch;
    // recall is folded in op order, so results are identical at any width.
    size_t j = i;
    while (j < workload.ops.size() &&
           workload.ops[j].kind == OpKind::kSearch) {
      ++j;
    }
    FloatMatrix batch(0, workload.queries.dim());
    for (size_t q = i; q < j; ++q) {
      batch.AppendRow(workload.queries.Row(workload.ops[q].query),
                      workload.queries.dim());
    }
    const Result<SearchResponse> response = collection->Search(
        SearchRequest::Batch(std::move(batch), workload.k), options.executor);
    if (!response.ok()) {
      result.failed = true;
      result.fail_reason = response.status().ToString();
      return result;
    }
    total.Add(response->work);
    for (size_t q = i; q < j; ++q) {
      recall_sum +=
          RecallAtK(response->neighbors[q - i], workload.ops[q].truth);
      ++result.searches;
    }
    i = j;
  }

  const CollectionStats stats = collection->Stats();
  const SystemConfig& system = collection->options().system;
  result.compactions = stats.num_compactions - base_compactions;
  result.recall = recall_sum / static_cast<double>(result.searches);
  result.work = total;
  result.qps = ComputeQps(options.cost, total, result.searches,
                          collection->dim(), stats, system,
                          workload.concurrency);
  result.replay_seconds =
      options.cost.virtual_queries / std::max(1e-9, result.qps);
  result.memory = ComputeMemory(stats, system);
  result.memory_gib = result.memory.TotalGib();

  if (result.qps < options.cost.min_qps) {
    result.failed = true;
    result.fail_reason = "replay timeout: qps below floor";
  }
  return result;
}

}  // namespace vdt
