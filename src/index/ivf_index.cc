#include "index/ivf_index.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <string>

#include "common/parallel_executor.h"
#include "index/index_io.h"
#include "index/topk.h"

namespace vdt {

Status IvfBaseIndex::Build(const FloatMatrix& data) {
  if (data.empty()) {
    return Status::InvalidArgument(std::string(Name()) +
                                   " build: empty data");
  }
  if (params_.nlist < 1) {
    return Status::InvalidArgument(std::string(Name()) +
                                   " build: nlist must be >= 1 (got " +
                                   std::to_string(params_.nlist) + ")");
  }
  data_ = &data;

  ParallelExecutor* executor = ResolveBuildExecutor(params_.build_threads);

  // Milvus requires nlist <= n; clamp rather than fail so small sealed
  // segments remain indexable under large-nlist configurations.
  const size_t nlist =
      std::min<size_t>(static_cast<size_t>(params_.nlist), data.rows());

  KMeansOptions kopts;
  kopts.seed = CoarseSeed();
  kopts.executor = executor;
  KMeansResult km = KMeansCluster(data, nlist, kopts);
  centroids_ = std::move(km.centroids);
  list_ids_ = BucketByAssignment(km.assignments, centroids_.rows(), executor);
  return EncodeLists(data, executor);
}

Status IvfBaseIndex::SerializeState(ByteWriter* writer) const {
  if (data_ == nullptr) {
    return Status::FailedPrecondition(std::string(Name()) +
                                      " serialize: index not built");
  }
  WriteBuiltIndexParams(writer, params_);
  writer->U64(seed_);
  WriteFloatMatrix(writer, centroids_);
  WriteIdLists(writer, list_ids_);
  return SerializeExtra(writer);
}

Status IvfBaseIndex::RestoreState(ByteReader* reader, const FloatMatrix& data) {
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
  data_ = &data;
  return RestoreExtra(reader, data);
}

std::vector<int32_t> IvfBaseIndex::ProbeLists(const float* query, int nprobe_in,
                                              WorkCounters* counters) const {
  const size_t nlist = centroids_.rows();
  const size_t nprobe = std::min<size_t>(std::max(1, nprobe_in), nlist);
  // The centroid table is one contiguous block: a single one-to-many scan.
  std::vector<float> cdist(nlist);
  L2Batch(query, centroids_.Row(0), centroids_.dim(), nlist, cdist.data());
  std::vector<std::pair<float, int32_t>> dists;
  dists.reserve(nlist);
  for (size_t c = 0; c < nlist; ++c) {
    dists.emplace_back(cdist[c], static_cast<int32_t>(c));
  }
  if (counters != nullptr) counters->coarse_distance_evals += nlist;
  std::partial_sort(dists.begin(), dists.begin() + nprobe, dists.end());
  std::vector<int32_t> out(nprobe);
  for (size_t i = 0; i < nprobe; ++i) out[i] = dists[i].second;
  return out;
}

// ---------------------------------------------------------------- IVF_FLAT

std::vector<Neighbor> IvfFlatIndex::SearchFiltered(
    const float* query, size_t k, const RowFilter* filter,
    WorkCounters* counters, const IndexParams* knobs) const {
  TopKCollector topk(k);
  uint64_t scanned = 0;
  // Posting lists store row ids, not row copies, so members are scattered
  // in the segment matrix — except that insertion order makes consecutive
  // ids common within a list. Runs of consecutive live ids scan through the
  // one-to-many kernel; isolated rows fall back to the one-row kernel
  // (identical values either way, by block-invariance).
  float dist[kDistanceScanBlock];
  for (int32_t list : ProbeLists(query, EffectiveNprobe(knobs), counters)) {
    const auto& ids = list_ids_[list];
    size_t j = 0;
    while (j < ids.size()) {
      if (!RowIsLive(filter, ids[j])) {
        ++j;
        continue;
      }
      size_t run = j + 1;
      while (run < ids.size() && run - j < kDistanceScanBlock &&
             ids[run] == ids[run - 1] + 1 && RowIsLive(filter, ids[run])) {
        ++run;
      }
      DistanceBatch(metric_, query, data_->Row(ids[j]), data_->dim(), run - j,
                    dist);
      for (size_t t = 0; t < run - j; ++t) topk.Offer(ids[j + t], dist[t]);
      scanned += run - j;
      j = run;
    }
  }
  if (counters != nullptr) counters->full_distance_evals += scanned;
  return topk.Take();
}

// The k-means-family compaction contract (VectorIndex::FilteredCopy): copy
// the trained structures, then drop the dead members from every posting list
// (and their codes, slot for slot) and renumber the survivors.
std::unique_ptr<VectorIndex> IvfFlatIndex::FilteredCopy(
    const std::vector<int64_t>& old_to_new, const FloatMatrix& data) const {
  auto copy = std::make_unique<IvfFlatIndex>(*this);
  copy->data_ = &data;
  FilterPostingLists<uint8_t>(old_to_new, 0, &copy->list_ids_, nullptr);
  return copy;
}

size_t IvfFlatIndex::MemoryBytes() const {
  size_t bytes = centroids_.MemoryBytes();
  for (const auto& list : list_ids_) bytes += list.size() * sizeof(int64_t);
  return bytes;
}

// ----------------------------------------------------------------- IVF_SQ8

namespace {

/// Fits the per-dimension [vmin, vmin + 255 * vscale] range over all rows of
/// `data`. Per-chunk min/max partials merge in chunk order (min/max is
/// order-independent, so this is exact for any executor width).
void FitSq8Range(const FloatMatrix& data, ParallelExecutor* executor,
                 std::vector<float>* vmin, std::vector<float>* vscale) {
  const size_t dim = data.dim();
  constexpr size_t kChunk = 1024;
  const size_t num_chunks = (data.rows() + kChunk - 1) / kChunk;
  std::vector<std::vector<float>> chunk_min(num_chunks), chunk_max(num_chunks);
  ParallelChunks(executor, data.rows(), kChunk,
                 [&](size_t chunk, size_t begin, size_t end) {
                   std::vector<float>& lo = chunk_min[chunk];
                   std::vector<float>& hi = chunk_max[chunk];
                   lo.assign(dim, std::numeric_limits<float>::max());
                   hi.assign(dim, std::numeric_limits<float>::lowest());
                   for (size_t i = begin; i < end; ++i) {
                     const float* row = data.Row(i);
                     for (size_t d = 0; d < dim; ++d) {
                       lo[d] = std::min(lo[d], row[d]);
                       hi[d] = std::max(hi[d], row[d]);
                     }
                   }
                 });
  vmin->assign(dim, std::numeric_limits<float>::max());
  std::vector<float> vmax(dim, std::numeric_limits<float>::lowest());
  for (size_t chunk = 0; chunk < num_chunks; ++chunk) {
    for (size_t d = 0; d < dim; ++d) {
      (*vmin)[d] = std::min((*vmin)[d], chunk_min[chunk][d]);
      vmax[d] = std::max(vmax[d], chunk_max[chunk][d]);
    }
  }
  vscale->resize(dim);
  for (size_t d = 0; d < dim; ++d) {
    (*vscale)[d] = (vmax[d] - (*vmin)[d]) / 255.0f;
    if ((*vscale)[d] <= 0.f) (*vscale)[d] = 1e-12f;
  }
}

/// Encodes every list's members into contiguous SQ8 codes, one task per
/// list across the executor (each list's codes are independent).
void EncodeSq8Lists(const FloatMatrix& data,
                    const std::vector<std::vector<int64_t>>& list_ids,
                    const std::vector<float>& vmin,
                    const std::vector<float>& vscale,
                    ParallelExecutor* executor,
                    std::vector<std::vector<uint8_t>>* list_codes) {
  const size_t dim = data.dim();
  list_codes->resize(list_ids.size());
  auto encode_list = [&](size_t l) {
    (*list_codes)[l].resize(list_ids[l].size() * dim);
    for (size_t j = 0; j < list_ids[l].size(); ++j) {
      const float* row = data.Row(list_ids[l][j]);
      uint8_t* code = &(*list_codes)[l][j * dim];
      for (size_t d = 0; d < dim; ++d) {
        const float q = (row[d] - vmin[d]) / vscale[d];
        code[d] = static_cast<uint8_t>(std::clamp(q + 0.5f, 0.0f, 255.0f));
      }
    }
  };
  ParallelForOrInline(executor, list_ids.size(), encode_list);
}

}  // namespace

Status IvfSq8Index::EncodeLists(const FloatMatrix& data,
                                ParallelExecutor* executor) {
  FitSq8Range(data, executor, &vmin_, &vscale_);
  EncodeSq8Lists(data, list_ids_, vmin_, vscale_, executor, &list_codes_);
  return Status::OK();
}

Status IvfSq8Index::SerializeExtra(ByteWriter* writer) const {
  WriteFloatVec(writer, vmin_);
  WriteFloatVec(writer, vscale_);
  WriteU8Lists(writer, list_codes_);
  return Status::OK();
}

Status IvfSq8Index::RestoreExtra(ByteReader* reader, const FloatMatrix& data) {
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
  return Status::OK();
}

void IvfSq8Index::ScanProbedCells(const float* query, const RowFilter* filter,
                                  WorkCounters* counters,
                                  const IndexParams* knobs,
                                  TopKCollector* topk) const {
  const size_t dim = data_->dim();
  uint64_t scanned = 0;
  // Each list's codes are one contiguous block (list slot j at codes +
  // j * dim), so live slot runs scan through the SQ8 block kernel; dead
  // slots are skipped without a distance evaluation.
  float dist[kDistanceScanBlock];
  for (int32_t list : ProbeLists(query, EffectiveNprobe(knobs), counters)) {
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
      for (size_t t = 0; t < run - j; ++t) topk->Offer(ids[j + t], dist[t]);
      scanned += run - j;
      j = run;
    }
  }
  if (counters != nullptr) counters->code_distance_evals += scanned;
}

std::vector<Neighbor> IvfSq8Index::SearchFiltered(
    const float* query, size_t k, const RowFilter* filter,
    WorkCounters* counters, const IndexParams* knobs) const {
  TopKCollector topk(k);
  ScanProbedCells(query, filter, counters, knobs, &topk);
  return topk.Take();
}

void IvfSq8Index::KeepRows(const std::vector<int64_t>& old_to_new,
                           const FloatMatrix& data) {
  data_ = &data;
  FilterPostingLists(old_to_new, data.dim(), &list_ids_, &list_codes_);
}

std::unique_ptr<VectorIndex> IvfSq8Index::FilteredCopy(
    const std::vector<int64_t>& old_to_new, const FloatMatrix& data) const {
  auto copy = std::make_unique<IvfSq8Index>(*this);
  copy->KeepRows(old_to_new, data);
  return copy;
}

size_t IvfSq8Index::MemoryBytes() const {
  size_t bytes = centroids_.MemoryBytes();
  bytes += (vmin_.size() + vscale_.size()) * sizeof(float);
  for (const auto& list : list_ids_) bytes += list.size() * sizeof(int64_t);
  for (const auto& codes : list_codes_) bytes += codes.size();
  return bytes;
}

// ------------------------------------------------------------------- SCANN

std::vector<Neighbor> ScannIndex::SearchFiltered(
    const float* query, size_t k, const RowFilter* filter,
    WorkCounters* counters, const IndexParams* knobs) const {
  const int reorder_knob =
      knobs != nullptr ? knobs->reorder_k : params_.reorder_k;
  const size_t reorder_k =
      std::max<size_t>(k, static_cast<size_t>(std::max(1, reorder_knob)));
  TopKCollector approx(reorder_k);
  ScanProbedCells(query, filter, counters, knobs, &approx);

  // Exact re-ranking of the surviving candidates: candidate rows are
  // scattered, so gather them into one contiguous block and run a single
  // one-to-many scan (the gather is a straight memcpy; the scan is where
  // the flops are). The rescored list reduces to top-k through MergeTopK,
  // the same deterministic (distance, id)-ordered reduce the scatter/gather
  // search path uses.
  const size_t dim = data_->dim();
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

std::unique_ptr<VectorIndex> ScannIndex::FilteredCopy(
    const std::vector<int64_t>& old_to_new, const FloatMatrix& data) const {
  auto copy = std::make_unique<ScannIndex>(*this);
  copy->KeepRows(old_to_new, data);
  return copy;
}

// ------------------------------------------------------------------ IVF_PQ

Status IvfPqIndex::EncodeLists(const FloatMatrix& data,
                               ParallelExecutor* executor) {
  const size_t dim = data.dim();
  if (params_.m < 1) {
    return Status::InvalidArgument("IVF_PQ build: m must be >= 1 (got " +
                                   std::to_string(params_.m) + ")");
  }
  if (dim % static_cast<size_t>(params_.m) != 0) {
    return Status::InvalidArgument(
        "IVF_PQ build: m must divide the vector dimension (m=" +
        std::to_string(params_.m) + ", dim=" + std::to_string(dim) + ")");
  }
  if (params_.nbits < 4 || params_.nbits > 12) {
    return Status::InvalidArgument(
        "IVF_PQ build: nbits must be in [4, 12] (got " +
        std::to_string(params_.nbits) + ")");
  }
  const size_t m = static_cast<size_t>(params_.m);
  dsub_ = dim / m;
  ksub_ = 1 << params_.nbits;

  // Train one codebook per subspace, one task per subspace: each writes a
  // disjoint codebook slice and a disjoint stride of assign_all, and seeds
  // are per-subspace, so the result never depends on scheduling. The nested
  // KMeansCluster calls run their chunks inline on whichever thread (pool
  // worker or the calling thread) trains the subspace.
  codebooks_ = FloatMatrix(m * ksub_, dsub_);
  std::vector<uint16_t> assign_all(data.rows() * m);
  auto train_subspace = [&](size_t s) {
    FloatMatrix sub(data.rows(), dsub_);
    for (size_t i = 0; i < data.rows(); ++i) {
      std::copy_n(data.Row(i) + s * dsub_, dsub_, sub.Row(i));
    }
    KMeansOptions kopts;
    kopts.seed = seed_ + 7919 * (s + 1);
    kopts.max_iters = 8;
    kopts.executor = executor;
    KMeansResult km = KMeansCluster(sub, ksub_, kopts);
    // Copy trained codewords; clusters beyond km size stay zero.
    for (size_t c = 0; c < km.centroids.rows(); ++c) {
      std::copy_n(km.centroids.Row(c), dsub_, codebooks_.Row(s * ksub_ + c));
    }
    for (size_t i = 0; i < data.rows(); ++i) {
      assign_all[i * m + s] = static_cast<uint16_t>(km.assignments[i]);
    }
  };
  ParallelForOrInline(executor, m, train_subspace);

  // Per-list code gather, one task per list.
  list_codes_.resize(list_ids_.size());
  auto encode_list = [&](size_t l) {
    list_codes_[l].resize(list_ids_[l].size() * m);
    for (size_t j = 0; j < list_ids_[l].size(); ++j) {
      const int64_t id = list_ids_[l][j];
      std::copy_n(&assign_all[id * m], m, &list_codes_[l][j * m]);
    }
  };
  ParallelForOrInline(executor, list_ids_.size(), encode_list);
  return Status::OK();
}

Status IvfPqIndex::SerializeExtra(ByteWriter* writer) const {
  writer->I32(ksub_);
  writer->U64(dsub_);
  WriteFloatMatrix(writer, codebooks_);
  WriteU16Lists(writer, list_codes_);
  return Status::OK();
}

Status IvfPqIndex::RestoreExtra(ByteReader* reader, const FloatMatrix& data) {
  int32_t ksub = 0;
  uint64_t dsub = 0;
  if (!reader->I32(&ksub) || !reader->U64(&dsub)) {
    return MalformedIndexState(Name(), "PQ header");
  }
  const size_t dim = data.dim();
  if (params_.m < 1 || dim % static_cast<size_t>(params_.m) != 0 ||
      dsub != dim / static_cast<size_t>(params_.m) || ksub < 1 ||
      ksub > (1 << 12)) {
    return MalformedIndexState(Name(), "PQ geometry");
  }
  ksub_ = ksub;
  dsub_ = static_cast<size_t>(dsub);
  const size_t m = static_cast<size_t>(params_.m);
  if (!ReadFloatMatrix(reader, &codebooks_)) {
    return MalformedIndexState(Name(), "PQ codebooks");
  }
  if (codebooks_.rows() != m * static_cast<size_t>(ksub_) ||
      codebooks_.dim() != dsub_) {
    return MalformedIndexState(Name(), "PQ codebook shape");
  }
  if (!ReadU16Lists(reader, &list_codes_) ||
      list_codes_.size() != list_ids_.size()) {
    return MalformedIndexState(Name(), "PQ code lists");
  }
  // Codes index the ADC table at search time, so each must name a valid
  // codeword — enforced here, once, instead of per lookup.
  for (size_t l = 0; l < list_codes_.size(); ++l) {
    if (list_codes_[l].size() != list_ids_[l].size() * m) {
      return MalformedIndexState(Name(), "PQ code-list size");
    }
    for (uint16_t code : list_codes_[l]) {
      if (code >= static_cast<uint16_t>(ksub_)) {
        return MalformedIndexState(Name(), "PQ code value");
      }
    }
  }
  return Status::OK();
}

namespace {

/// Scratch reused across IvfPqIndex::SearchFiltered calls on one thread:
/// the ADC table (m * ksub floats — 16 KiB at m=16, nbits=8) and the
/// negated-query staging buffer for dot metrics. Allocating the table per
/// query put a malloc + free — and allocator contention across searching
/// threads — on every search; SearchFiltered is const and each searching
/// thread gets its own buffers, so reuse is race-free.
/// bench/micro_engine.cc (BM_EngineSearch_IvfPq) quantifies the win.
struct PqScratch {
  std::vector<float> table;
  std::vector<float> neg_query;
};

PqScratch& TlsPqScratch() {
  thread_local PqScratch scratch;
  return scratch;
}

}  // namespace

std::vector<Neighbor> IvfPqIndex::SearchFiltered(
    const float* query, size_t k, const RowFilter* filter,
    WorkCounters* counters, const IndexParams* knobs) const {
  const size_t m = static_cast<size_t>(params_.m);
  const size_t ksub = static_cast<size_t>(ksub_);
  PqScratch& scratch = TlsPqScratch();

  // ADC lookup table: partial distance of each (subspace, codeword) pair.
  // A subspace's ksub codewords are contiguous codebook rows, so each
  // subspace is one one-to-many block scan. Dot metrics need the *negated*
  // dot in the table; negating the query once folds the sign into the batch
  // kernel (bit-exact: IEEE multiplication is sign-symmetric, so
  // dot(-q, c) == -dot(q, c) term by term), writing every table entry
  // exactly once instead of writing it and then flipping it in a second
  // pass over all m * ksub entries.
  scratch.table.resize(m * ksub);
  float* table = scratch.table.data();
  const float* tq = query;
  if (metric_ != Metric::kL2) {
    scratch.neg_query.resize(m * dsub_);
    for (size_t d = 0; d < m * dsub_; ++d) scratch.neg_query[d] = -query[d];
    tq = scratch.neg_query.data();
  }
  for (size_t s = 0; s < m; ++s) {
    const float* cb = codebooks_.Row(s * ksub);
    float* row = table + s * ksub;
    if (metric_ == Metric::kL2) {
      L2Batch(query + s * dsub_, cb, dsub_, ksub, row);
    } else {
      DotBatch(tq + s * dsub_, cb, dsub_, ksub, row);
    }
  }
  if (counters != nullptr) counters->table_build_flops += m * ksub * dsub_;
  const float bias = metric_ == Metric::kAngular ? 1.0f : 0.0f;

  TopKCollector topk(k);
  uint64_t scanned = 0;
  // Each list's codes are one contiguous block (list slot j at codes +
  // j * m), so live slot runs score through the batch ADC kernel; dead
  // slots are skipped without a lookup.
  float dist[kDistanceScanBlock];
  for (int32_t list : ProbeLists(query, EffectiveNprobe(knobs), counters)) {
    const auto& ids = list_ids_[list];
    const uint16_t* codes = list_codes_[list].data();
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
      PqLookupBatch(table, codes + j * m, m, ksub, run - j, bias, dist);
      for (size_t t = 0; t < run - j; ++t) topk.Offer(ids[j + t], dist[t]);
      scanned += run - j;
      j = run;
    }
  }
  if (counters != nullptr) counters->pq_lookup_ops += scanned * m;
  return topk.Take();
}

std::unique_ptr<VectorIndex> IvfPqIndex::FilteredCopy(
    const std::vector<int64_t>& old_to_new, const FloatMatrix& data) const {
  auto copy = std::make_unique<IvfPqIndex>(*this);
  copy->data_ = &data;
  FilterPostingLists(old_to_new, static_cast<size_t>(params_.m),
                     &copy->list_ids_, &copy->list_codes_);
  return copy;
}

size_t IvfPqIndex::MemoryBytes() const {
  size_t bytes = centroids_.MemoryBytes() + codebooks_.MemoryBytes();
  for (const auto& list : list_ids_) bytes += list.size() * sizeof(int64_t);
  for (const auto& codes : list_codes_) bytes += codes.size() * sizeof(uint16_t);
  return bytes;
}

}  // namespace vdt
