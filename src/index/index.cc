#include "index/index.h"

#include <map>
#include <mutex>
#include <sstream>

#include "common/parallel_executor.h"
#include "index/topk.h"

namespace vdt {

const char* IndexTypeName(IndexType type) {
  switch (type) {
    case IndexType::kFlat:
      return "FLAT";
    case IndexType::kIvfFlat:
      return "IVF_FLAT";
    case IndexType::kIvfSq8:
      return "IVF_SQ8";
    case IndexType::kIvfPq:
      return "IVF_PQ";
    case IndexType::kHnsw:
      return "HNSW";
    case IndexType::kScann:
      return "SCANN";
    case IndexType::kAutoIndex:
      return "AUTOINDEX";
  }
  return "?";
}

std::string IndexParams::ToString() const {
  std::ostringstream os;
  os << "nlist=" << nlist << " nprobe=" << nprobe << " m=" << m
     << " nbits=" << nbits << " M=" << hnsw_m
     << " efConstruction=" << ef_construction << " ef=" << ef
     << " reorder_k=" << reorder_k;
  return os.str();
}

void WorkCounters::Add(const WorkCounters& other) {
  full_distance_evals += other.full_distance_evals;
  coarse_distance_evals += other.coarse_distance_evals;
  code_distance_evals += other.code_distance_evals;
  pq_lookup_ops += other.pq_lookup_ops;
  table_build_flops += other.table_build_flops;
  graph_hops += other.graph_hops;
  reorder_evals += other.reorder_evals;
  shard_scatters += other.shard_scatters;
  gather_candidates += other.gather_candidates;
}

uint64_t WorkCounters::Total() const {
  return full_distance_evals + coarse_distance_evals + code_distance_evals +
         pq_lookup_ops + table_build_flops + graph_hops + reorder_evals;
}

std::string BuildSignature(IndexType type, const IndexParams& params) {
  std::ostringstream os;
  os << IndexTypeName(type);
  switch (type) {
    case IndexType::kFlat:
    case IndexType::kAutoIndex:
      break;  // no build parameters
    case IndexType::kIvfFlat:
    case IndexType::kIvfSq8:
    case IndexType::kScann:
      os << "/nlist=" << params.nlist;
      break;
    case IndexType::kIvfPq:
      os << "/nlist=" << params.nlist << "/m=" << params.m
         << "/nbits=" << params.nbits;
      break;
    case IndexType::kHnsw:
      os << "/M=" << params.hnsw_m << "/efC=" << params.ef_construction;
      break;
  }
  return os.str();
}

ParallelExecutor* ResolveBuildExecutor(int build_threads) {
  if (build_threads == 1) return nullptr;
  if (build_threads <= 0) return &ParallelExecutor::Global();
  // One long-lived pool per requested width (callers use a handful of
  // widths at most), so back-to-back segment seals share threads.
  static std::mutex mu;
  static std::map<int, std::unique_ptr<ParallelExecutor>>* pools =
      new std::map<int, std::unique_ptr<ParallelExecutor>>();
  std::lock_guard<std::mutex> lock(mu);
  auto& pool = (*pools)[build_threads];
  if (pool == nullptr) {
    pool = std::make_unique<ParallelExecutor>(
        static_cast<size_t>(build_threads));
  }
  return pool.get();
}

std::vector<Neighbor> BruteForceSearch(const FloatMatrix& data, Metric metric,
                                       const float* query, size_t k,
                                       WorkCounters* counters,
                                       const RowFilter* filter) {
  TopKCollector topk(k);
  ScanRows(data, metric, query, nullptr, filter, counters, &topk);
  return topk.Take();
}

void ScanRows(const FloatMatrix& data, Metric metric, const float* query,
              const int64_t* ids, const RowFilter* filter,
              WorkCounters* counters, TopKCollector* topk) {
  uint64_t scanned = 0;
  const size_t n = data.rows();
  // Block scan over maximal live runs: contiguous live rows go through the
  // one-to-many kernel in kDistanceScanBlock chunks; dead rows are skipped
  // without a distance evaluation (the counters charge live rows only).
  float dist[kDistanceScanBlock];
  size_t i = 0;
  while (i < n) {
    if (!RowIsLive(filter, static_cast<int64_t>(i))) {
      ++i;
      continue;
    }
    size_t run = i + 1;
    while (run < n && run - i < kDistanceScanBlock &&
           RowIsLive(filter, static_cast<int64_t>(run))) {
      ++run;
    }
    DistanceBatch(metric, query, data.Row(i), data.dim(), run - i, dist);
    for (size_t j = 0; j < run - i; ++j) {
      topk->Offer(ids != nullptr ? ids[i + j] : static_cast<int64_t>(i + j),
                  dist[j]);
    }
    scanned += run - i;
    i = run;
  }
  if (counters != nullptr) counters->full_distance_evals += scanned;
}

}  // namespace vdt
