#include "index/scann_index.h"

#include <algorithm>
#include <limits>
#include <string>

#include "common/parallel_executor.h"
#include "index/index_io.h"
#include "index/sq8.h"
#include "index/topk.h"

namespace vdt {

Status ScannIndex::Build(const FloatMatrix& data) {
  if (data.empty()) {
    return Status::InvalidArgument("SCANN build: empty data");
  }
  if (params_.nlist < 1) {
    return Status::InvalidArgument(
        "SCANN build: nlist must be >= 1 (got " +
        std::to_string(params_.nlist) + ")");
  }
  data_ = &data;
  const size_t nlist =
      std::min<size_t>(static_cast<size_t>(params_.nlist), data.rows());

  ParallelExecutor* executor = ResolveBuildExecutor(params_.build_threads);

  // Partitioning: parallel chunked k-means + deterministic scatter.
  KMeansOptions kopts;
  kopts.seed = seed_ + 17;
  kopts.executor = executor;
  KMeansResult km = KMeansCluster(data, nlist, kopts);
  centroids_ = std::move(km.centroids);
  list_ids_ = BucketByAssignment(km.assignments, centroids_.rows(), executor);

  // Quantization: global per-dimension SQ8 range + per-list codes.
  FitSq8Range(data, executor, &vmin_, &vscale_);
  EncodeSq8Lists(data, list_ids_, vmin_, vscale_, executor, &list_codes_);
  return Status::OK();
}

std::vector<Neighbor> ScannIndex::SearchFiltered(
    const float* query, size_t k, const RowFilter* filter,
    WorkCounters* counters, const IndexParams* knobs) const {
  const size_t dim = data_->dim();
  const size_t nlist = centroids_.rows();
  const int nprobe_knob = knobs != nullptr ? knobs->nprobe : params_.nprobe;
  const size_t nprobe = std::min<size_t>(std::max(1, nprobe_knob), nlist);

  // Coarse probe: the centroid table is one contiguous block scan.
  std::vector<float> cdist(nlist);
  L2Batch(query, centroids_.Row(0), dim, nlist, cdist.data());
  std::vector<std::pair<float, int32_t>> cd;
  cd.reserve(nlist);
  for (size_t c = 0; c < nlist; ++c) {
    cd.emplace_back(cdist[c], static_cast<int32_t>(c));
  }
  if (counters != nullptr) counters->coarse_distance_evals += nlist;
  std::partial_sort(cd.begin(), cd.begin() + nprobe, cd.end());

  // Approximate scoring pass: live slot runs of each list's contiguous
  // code block through the SQ8 block kernel.
  const int reorder_knob =
      knobs != nullptr ? knobs->reorder_k : params_.reorder_k;
  const size_t reorder_k =
      std::max<size_t>(k, static_cast<size_t>(std::max(1, reorder_knob)));
  TopKCollector approx(reorder_k);
  uint64_t scanned = 0;
  float dist[kDistanceScanBlock];
  for (size_t p = 0; p < nprobe; ++p) {
    const int32_t list = cd[p].second;
    const auto& ids = list_ids_[list];
    const uint8_t* codes = list_codes_[list].data();
    size_t j = 0;
    while (j < ids.size()) {
      if (!RowIsLive(filter, ids[j])) {
        ++j;
        continue;
      }
      size_t run = j + 1;
      while (run < ids.size() && run - j < kDistanceScanBlock &&
             RowIsLive(filter, ids[run])) {
        ++run;
      }
      Sq8Batch(metric_, query, codes + j * dim, vmin_.data(), vscale_.data(),
               dim, run - j, dist);
      for (size_t t = 0; t < run - j; ++t) approx.Offer(ids[j + t], dist[t]);
      scanned += run - j;
      j = run;
    }
  }
  if (counters != nullptr) counters->code_distance_evals += scanned;

  // Exact re-ranking of the surviving candidates: candidate rows are
  // scattered, so gather them into one contiguous block and run a single
  // one-to-many scan (the gather is a straight memcpy; the scan is where
  // the flops are). The rescored list reduces to top-k through MergeTopK,
  // the same deterministic (distance, id)-ordered reduce the scatter/gather
  // search path uses.
  std::vector<Neighbor> candidates = approx.Take();
  std::vector<float> gathered(candidates.size() * dim);
  for (size_t i = 0; i < candidates.size(); ++i) {
    std::copy_n(data_->Row(candidates[i].id), dim, &gathered[i * dim]);
  }
  std::vector<float> exact_dist(candidates.size());
  DistanceBatch(metric_, query, gathered.data(), dim, candidates.size(),
                exact_dist.data());
  if (counters != nullptr) {
    counters->reorder_evals += candidates.size();
    counters->full_distance_evals += candidates.size();
  }
  for (size_t i = 0; i < candidates.size(); ++i) {
    candidates[i].distance = exact_dist[i];
  }
  std::vector<std::vector<Neighbor>> rescored;
  rescored.push_back(std::move(candidates));
  return MergeTopK(std::move(rescored), k);
}

Status ScannIndex::SerializeState(ByteWriter* writer) const {
  if (data_ == nullptr) {
    return Status::FailedPrecondition("SCANN serialize: index not built");
  }
  WriteIndexParams(writer, params_);
  writer->U64(seed_);
  WriteFloatMatrix(writer, centroids_);
  WriteIdLists(writer, list_ids_);
  WriteFloatVec(writer, vmin_);
  WriteFloatVec(writer, vscale_);
  WriteU8Lists(writer, list_codes_);
  return Status::OK();
}

Status ScannIndex::RestoreState(ByteReader* reader, const FloatMatrix& data) {
  if (data.empty()) {
    return MalformedIndexState(Name(), "state over empty data");
  }
  if (!ReadIndexParams(reader, &params_) || !reader->U64(&seed_)) {
    return MalformedIndexState(Name(), "header");
  }
  if (!ReadFloatMatrix(reader, &centroids_)) {
    return MalformedIndexState(Name(), "centroids");
  }
  if (centroids_.empty() || centroids_.dim() != data.dim()) {
    return MalformedIndexState(Name(), "centroid shape");
  }
  if (!ReadIdLists(reader, data.rows(), &list_ids_)) {
    return MalformedIndexState(Name(), "posting lists");
  }
  if (list_ids_.size() != centroids_.rows()) {
    return MalformedIndexState(Name(), "posting-list count");
  }
  if (!ReadFloatVec(reader, &vmin_) || !ReadFloatVec(reader, &vscale_)) {
    return MalformedIndexState(Name(), "SQ8 quantization range");
  }
  if (vmin_.size() != data.dim() || vscale_.size() != data.dim()) {
    return MalformedIndexState(Name(), "SQ8 range length");
  }
  if (!ReadU8Lists(reader, &list_codes_) ||
      list_codes_.size() != list_ids_.size()) {
    return MalformedIndexState(Name(), "SQ8 code lists");
  }
  for (size_t l = 0; l < list_codes_.size(); ++l) {
    if (list_codes_[l].size() != list_ids_[l].size() * data.dim()) {
      return MalformedIndexState(Name(), "SQ8 code-list size");
    }
  }
  data_ = &data;
  return Status::OK();
}

std::unique_ptr<VectorIndex> ScannIndex::FilteredCopy(
    const std::vector<int64_t>& old_to_new, const FloatMatrix& data) const {
  auto copy = std::make_unique<ScannIndex>(*this);
  copy->data_ = &data;
  FilterPostingLists(old_to_new, data.dim(), &copy->list_ids_,
                     &copy->list_codes_);
  return copy;
}

size_t ScannIndex::MemoryBytes() const {
  size_t bytes = centroids_.MemoryBytes();
  bytes += (vmin_.size() + vscale_.size()) * sizeof(float);
  for (const auto& list : list_ids_) bytes += list.size() * sizeof(int64_t);
  for (const auto& codes : list_codes_) bytes += codes.size();
  return bytes;
}

}  // namespace vdt
