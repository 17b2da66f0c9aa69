// AUTOINDEX (paper Table I): Milvus' no-knob default. Picks a sensible
// pre-tuned configuration from the data size — FLAT for tiny segments,
// HNSW with fixed defaults otherwise. Exposes no tunable parameters.
#ifndef VDTUNER_INDEX_AUTO_INDEX_H_
#define VDTUNER_INDEX_AUTO_INDEX_H_

#include <memory>

#include "index/index.h"

namespace vdt {

class AutoIndex : public VectorIndex {
 public:
  /// `build_threads` passes through to the delegate's build (see
  /// IndexParams::build_threads); AUTOINDEX exposes no other knobs.
  AutoIndex(Metric metric, uint64_t seed, int build_threads = 0)
      : metric_(metric), seed_(seed), build_threads_(build_threads) {}

  Status Build(const FloatMatrix& data) override;
  /// AUTOINDEX has no user-visible knobs: `knobs` is ignored.
  std::vector<Neighbor> SearchFiltered(const float* query, size_t k,
                                       const RowFilter* filter,
                                       WorkCounters* counters,
                                       const IndexParams* knobs) const override;
  size_t MemoryBytes() const override;
  IndexType type() const override { return IndexType::kAutoIndex; }
  size_t Size() const override;

  /// The index AUTOINDEX delegated to after Build (FLAT or HNSW).
  IndexType delegate_type() const;

  /// Records the delegate's type tag followed by the delegate's own state;
  /// restore recreates the delegate and forwards to its RestoreState.
  Status SerializeState(ByteWriter* writer) const override;
  Status RestoreState(ByteReader* reader, const FloatMatrix& data) override;

 private:
  Metric metric_;
  uint64_t seed_;
  int build_threads_;
  std::unique_ptr<VectorIndex> delegate_;
};

}  // namespace vdt

#endif  // VDTUNER_INDEX_AUTO_INDEX_H_
