// SCANN-style index (paper Table I): IVF partitioning + fast scoring on
// 8-bit scalar-quantized codes + exact re-ranking of the top reorder_k
// candidates. Build parameter: nlist. Search parameters: nprobe, reorder_k.
#ifndef VDTUNER_INDEX_SCANN_INDEX_H_
#define VDTUNER_INDEX_SCANN_INDEX_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "index/index.h"
#include "index/kmeans.h"

namespace vdt {

class ScannIndex : public VectorIndex {
 public:
  ScannIndex(Metric metric, const IndexParams& params, uint64_t seed)
      : metric_(metric), params_(params), seed_(seed) {}

  Status Build(const FloatMatrix& data) override;
  /// `knobs` (may be null) overrides nprobe/reorder_k for this call only —
  /// the fields UpdateSearchParams() would set, with no index mutation.
  std::vector<Neighbor> SearchFiltered(const float* query, size_t k,
                                       const RowFilter* filter,
                                       WorkCounters* counters,
                                       const IndexParams* knobs) const override;
  void UpdateSearchParams(const IndexParams& params) override {
    params_.nprobe = params.nprobe;
    params_.reorder_k = params.reorder_k;
  }
  size_t MemoryBytes() const override;
  IndexType type() const override { return IndexType::kScann; }
  size_t Size() const override { return data_ ? data_->rows() : 0; }

  Status SerializeState(ByteWriter* writer) const override;
  Status RestoreState(ByteReader* reader, const FloatMatrix& data) override;
  std::unique_ptr<VectorIndex> FilteredCopy(
      const std::vector<int64_t>& old_to_new,
      const FloatMatrix& data) const override;

 private:
  Metric metric_;
  IndexParams params_;
  uint64_t seed_;
  const FloatMatrix* data_ = nullptr;

  FloatMatrix centroids_;
  std::vector<std::vector<int64_t>> list_ids_;
  std::vector<float> vmin_, vscale_;              // SQ8 dequantization
  std::vector<std::vector<uint8_t>> list_codes_;  // per list: n_i * dim codes
};

}  // namespace vdt

#endif  // VDTUNER_INDEX_SCANN_INDEX_H_
