#include "index/auto_index.h"
#include "index/flat_index.h"
#include "index/hnsw_index.h"
#include "index/index.h"
#include "index/ivf_index.h"

namespace vdt {

std::unique_ptr<VectorIndex> CreateIndex(IndexType type, Metric metric,
                                         const IndexParams& params,
                                         uint64_t seed) {
  switch (type) {
    case IndexType::kFlat:
      return std::make_unique<FlatIndex>(metric);
    case IndexType::kIvfFlat:
      return std::make_unique<IvfFlatIndex>(metric, params, seed);
    case IndexType::kIvfSq8:
      return std::make_unique<IvfSq8Index>(metric, params, seed);
    case IndexType::kIvfPq:
      return std::make_unique<IvfPqIndex>(metric, params, seed);
    case IndexType::kHnsw:
      return std::make_unique<HnswIndex>(metric, params, seed);
    case IndexType::kScann:
      return std::make_unique<ScannIndex>(metric, params, seed);
    case IndexType::kAutoIndex:
      return std::make_unique<AutoIndex>(metric, seed, params.build_threads);
  }
  return nullptr;
}

}  // namespace vdt
