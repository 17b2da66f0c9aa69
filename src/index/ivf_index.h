// The IVF (inverted-file) index family: IVF_FLAT, IVF_SQ8, IVF_PQ and
// SCANN (paper Table I). A k-means coarse quantizer partitions the segment
// into nlist cells; queries probe the nprobe nearest cells and score their
// members exactly (FLAT), via 8-bit scalar quantization (SQ8), or via
// product-quantization ADC (PQ). SCANN is IVF_SQ8 plus an exact re-rank of
// the best reorder_k SQ8 candidates.
#ifndef VDTUNER_INDEX_IVF_INDEX_H_
#define VDTUNER_INDEX_IVF_INDEX_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "index/index.h"
#include "index/kmeans.h"

namespace vdt {

/// Shared coarse-quantizer machinery of the IVF family.
class IvfBaseIndex : public VectorIndex {
 public:
  IvfBaseIndex(Metric metric, const IndexParams& params, uint64_t seed)
      : metric_(metric), params_(params), seed_(seed) {}

  Status Build(const FloatMatrix& data) override;
  size_t Size() const override { return data_ ? data_->rows() : 0; }

  /// Shared IVF layout (params, seed, centroids, posting lists) followed by
  /// the subclass payload (SerializeExtra / RestoreExtra).
  Status SerializeState(ByteWriter* writer) const override;
  Status RestoreState(ByteReader* reader, const FloatMatrix& data) override;

 protected:
  /// Hook: append / decode the subclass payload (SQ8 ranges + codes, PQ
  /// codebooks + codes) after the shared IVF layout. RestoreExtra runs with
  /// params_, centroids_, list_ids_, and data_ already restored+validated.
  virtual Status SerializeExtra(ByteWriter* writer) const {
    (void)writer;
    return Status::OK();
  }
  virtual Status RestoreExtra(ByteReader* reader, const FloatMatrix& data) {
    (void)reader;
    (void)data;
    return Status::OK();
  }
  /// Hook: the k-means seed of the coarse quantizer. SerializeState records
  /// seed_, never this.
  virtual uint64_t CoarseSeed() const { return seed_; }
  /// Hook: encode the per-list payload after coarse clustering. `executor`
  /// is the build executor resolved from params_.build_threads (null = run
  /// inline); implementations must keep the encoded payload bit-identical
  /// for every executor width.
  virtual Status EncodeLists(const FloatMatrix& data,
                             ParallelExecutor* executor) = 0;

  /// The effective nprobe for one search call: `knobs` when present,
  /// params_.nprobe otherwise.
  int EffectiveNprobe(const IndexParams* knobs) const {
    return knobs != nullptr ? knobs->nprobe : params_.nprobe;
  }

  /// Returns the `nprobe` nearest list ids for `query` (adds coarse work).
  std::vector<int32_t> ProbeLists(const float* query, int nprobe,
                                  WorkCounters* counters) const;

  Metric metric_;
  IndexParams params_;
  uint64_t seed_;
  const FloatMatrix* data_ = nullptr;
  FloatMatrix centroids_;                       // nlist x dim
  std::vector<std::vector<int64_t>> list_ids_;  // member row ids per list
};

/// IVF_FLAT: probed cells are scored with exact distances.
class IvfFlatIndex : public IvfBaseIndex {
 public:
  using IvfBaseIndex::IvfBaseIndex;

  std::vector<Neighbor> SearchFiltered(const float* query, size_t k,
                                       const RowFilter* filter,
                                       WorkCounters* counters,
                                       const IndexParams* knobs) const override;
  size_t MemoryBytes() const override;
  IndexType type() const override { return IndexType::kIvfFlat; }
  std::unique_ptr<VectorIndex> FilteredCopy(
      const std::vector<int64_t>& old_to_new,
      const FloatMatrix& data) const override;

 protected:
  Status EncodeLists(const FloatMatrix&, ParallelExecutor*) override {
    return Status::OK();
  }
};

/// IVF_SQ8: probed cells are scored on 8-bit scalar-quantized codes
/// (4x memory reduction; small recall loss from quantization error). The
/// quantizer is global and per dimension, value = vmin[d] + code[d] *
/// vscale[d], fitted over every row; each list's codes are one contiguous
/// block, list slot j at j * dim.
class IvfSq8Index : public IvfBaseIndex {
 public:
  using IvfBaseIndex::IvfBaseIndex;

  std::vector<Neighbor> SearchFiltered(const float* query, size_t k,
                                       const RowFilter* filter,
                                       WorkCounters* counters,
                                       const IndexParams* knobs) const override;
  size_t MemoryBytes() const override;
  IndexType type() const override { return IndexType::kIvfSq8; }
  std::unique_ptr<VectorIndex> FilteredCopy(
      const std::vector<int64_t>& old_to_new,
      const FloatMatrix& data) const override;

 protected:
  Status EncodeLists(const FloatMatrix& data,
                     ParallelExecutor* executor) override;
  Status SerializeExtra(ByteWriter* writer) const override;
  Status RestoreExtra(ByteReader* reader, const FloatMatrix& data) override;

  /// Probes the cells `knobs` (or params_) selects and offers their members
  /// that `filter` declares live to `topk`, scored on their codes. Charges
  /// the coarse probe and one code evaluation per offered row.
  void ScanProbedCells(const float* query, const RowFilter* filter,
                       WorkCounters* counters, const IndexParams* knobs,
                       TopKCollector* topk) const;
  /// Attaches this copy to `data` and drops the rows `old_to_new` maps to
  /// -1 from every list, codes slot for slot (the FilteredCopy contract).
  void KeepRows(const std::vector<int64_t>& old_to_new,
                const FloatMatrix& data);

 private:
  std::vector<float> vmin_, vscale_;
  std::vector<std::vector<uint8_t>> list_codes_;  // per list: n_i * dim codes
};

/// SCANN: IVF_SQ8's scan picks the best reorder_k candidates (at least k),
/// which are re-ranked on exact distances. Its cells use a salted k-means
/// seed. Search parameters: nprobe, reorder_k.
class ScannIndex : public IvfSq8Index {
 public:
  using IvfSq8Index::IvfSq8Index;

  /// Reads nprobe and reorder_k from `knobs` (null = the built params).
  std::vector<Neighbor> SearchFiltered(const float* query, size_t k,
                                       const RowFilter* filter,
                                       WorkCounters* counters,
                                       const IndexParams* knobs) const override;
  IndexType type() const override { return IndexType::kScann; }
  std::unique_ptr<VectorIndex> FilteredCopy(
      const std::vector<int64_t>& old_to_new,
      const FloatMatrix& data) const override;

 protected:
  uint64_t CoarseSeed() const override { return seed_ + 17; }
};

/// IVF_PQ: probed cells are scored with product-quantization asymmetric
/// distance (ADC). Requires dim % m == 0 — violations fail the build, which
/// the evaluator reports as a failed configuration.
class IvfPqIndex : public IvfBaseIndex {
 public:
  using IvfBaseIndex::IvfBaseIndex;

  std::vector<Neighbor> SearchFiltered(const float* query, size_t k,
                                       const RowFilter* filter,
                                       WorkCounters* counters,
                                       const IndexParams* knobs) const override;
  size_t MemoryBytes() const override;
  IndexType type() const override { return IndexType::kIvfPq; }
  std::unique_ptr<VectorIndex> FilteredCopy(
      const std::vector<int64_t>& old_to_new,
      const FloatMatrix& data) const override;

 protected:
  Status EncodeLists(const FloatMatrix& data,
                     ParallelExecutor* executor) override;
  Status SerializeExtra(ByteWriter* writer) const override;
  Status RestoreExtra(ByteReader* reader, const FloatMatrix& data) override;

 private:
  int ksub_ = 0;        // 2^nbits codewords per subspace
  size_t dsub_ = 0;     // dims per subspace
  FloatMatrix codebooks_;  // (m * ksub) x dsub
  std::vector<std::vector<uint16_t>> list_codes_;  // per list: n_i * m codes
};

}  // namespace vdt

#endif  // VDTUNER_INDEX_IVF_INDEX_H_
