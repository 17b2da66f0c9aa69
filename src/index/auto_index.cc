#include "index/auto_index.h"

#include "index/flat_index.h"
#include "index/hnsw_index.h"
#include "index/index_io.h"

namespace vdt {

namespace {
constexpr size_t kFlatThreshold = 512;  // below this, brute force is best
}  // namespace

Status AutoIndex::Build(const FloatMatrix& data) {
  if (data.empty()) {
    return Status::InvalidArgument("AUTOINDEX build: empty data");
  }
  if (data.rows() < kFlatThreshold) {
    delegate_ = std::make_unique<FlatIndex>(metric_);
  } else {
    // Milvus' AUTOINDEX is a pre-tuned HNSW profile; only the build
    // parallelism knob passes through.
    IndexParams params;
    params.hnsw_m = 16;
    params.ef_construction = 128;
    params.ef = 64;
    params.build_threads = build_threads_;
    delegate_ = std::make_unique<HnswIndex>(metric_, params, seed_);
  }
  return delegate_->Build(data);
}

std::vector<Neighbor> AutoIndex::SearchFiltered(const float* query, size_t k,
                                                const RowFilter* filter,
                                                WorkCounters* counters,
                                                const IndexParams* /*knobs*/)
    const {
  // The delegate keeps its pre-tuned profile: overrides do not pass through.
  return delegate_->SearchFiltered(query, k, filter, counters, nullptr);
}

size_t AutoIndex::MemoryBytes() const {
  return delegate_ ? delegate_->MemoryBytes() : 0;
}

size_t AutoIndex::Size() const { return delegate_ ? delegate_->Size() : 0; }

IndexType AutoIndex::delegate_type() const {
  return delegate_ ? delegate_->type() : IndexType::kAutoIndex;
}

Status AutoIndex::SerializeState(ByteWriter* writer) const {
  if (!delegate_) {
    return Status::FailedPrecondition("AUTOINDEX serialize: index not built");
  }
  writer->U8(delegate_->type() == IndexType::kFlat ? 0 : 1);
  return delegate_->SerializeState(writer);
}

Status AutoIndex::RestoreState(ByteReader* reader, const FloatMatrix& data) {
  uint8_t tag = 0;
  if (!reader->U8(&tag) || tag > 1) {
    return MalformedIndexState(Name(), "delegate tag");
  }
  if (tag == 0) {
    delegate_ = std::make_unique<FlatIndex>(metric_);
  } else {
    // The delegate's pre-tuned params travel inside its own state blob and
    // overwrite these placeholder values during its RestoreState.
    delegate_ = std::make_unique<HnswIndex>(metric_, IndexParams{}, seed_);
  }
  return delegate_->RestoreState(reader, data);
}

}  // namespace vdt
