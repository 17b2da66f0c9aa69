// Lloyd k-means with k-means++ seeding: the clustering core of the IVF
// family, SCANN partitioning, and PQ codebook training. Both the assignment
// and the update steps run over a fixed chunk grid (see ParallelChunks), so
// the result is bit-identical for any executor width — including none.
#ifndef VDTUNER_INDEX_KMEANS_H_
#define VDTUNER_INDEX_KMEANS_H_

#include <algorithm>
#include <cstdint>
#include <vector>

#include "common/float_matrix.h"
#include "common/random.h"

namespace vdt {

class ParallelExecutor;

struct KMeansOptions {
  int max_iters = 10;
  /// Training subsample cap; k-means runs on at most this many points.
  size_t max_train_points = 16384;
  uint64_t seed = 1;
  /// Executor for the chunked assignment/accumulation passes (non-owning;
  /// null runs the chunks inline). Centroids and assignments are
  /// bit-identical for every executor width: chunk boundaries are fixed and
  /// per-chunk partials merge in chunk order.
  ParallelExecutor* executor = nullptr;
};

struct KMeansResult {
  FloatMatrix centroids;             // k x dim
  std::vector<int32_t> assignments;  // size = data.rows(), in [0, k)
};

/// Clusters `data` into `k` centroids (k is clamped to data.rows()).
/// Empty clusters are re-seeded from random training points, so every
/// centroid is meaningful. Deterministic given options.seed, independent of
/// options.executor.
KMeansResult KMeansCluster(const FloatMatrix& data, size_t k,
                           const KMeansOptions& options);

/// Scatters row ids into per-cluster lists: result[c] holds every i with
/// assignments[i] == c, ascending. Chunk-counted and offset-filled so the
/// parallel scatter produces exactly the sequential push_back order for any
/// executor width (null executor runs inline).
std::vector<std::vector<int64_t>> BucketByAssignment(
    const std::vector<int32_t>& assignments, size_t k,
    ParallelExecutor* executor);

/// Restricts posting lists in place to the rows `old_to_new` keeps (see
/// VectorIndex::FilteredCopy): member i becomes old_to_new[i], members
/// mapped to -1 are dropped, and survivors keep their list and slot order.
/// `codes` (may be null) holds `width` codes per member, slot for slot with
/// `lists`, and is filtered in the same order. Shared by every k-means-family
/// index, so they all compact alike.
template <typename Code>
void FilterPostingLists(const std::vector<int64_t>& old_to_new, size_t width,
                        std::vector<std::vector<int64_t>>* lists,
                        std::vector<std::vector<Code>>* codes) {
  for (size_t l = 0; l < lists->size(); ++l) {
    std::vector<int64_t>& ids = (*lists)[l];
    Code* slots = codes != nullptr ? (*codes)[l].data() : nullptr;
    size_t kept = 0;
    for (size_t j = 0; j < ids.size(); ++j) {
      const int64_t to = old_to_new[static_cast<size_t>(ids[j])];
      if (to < 0) continue;
      // Survivors only move down (kept <= j); skipping kept == j keeps the
      // destination out of the source range, as std::copy_n requires.
      if (slots != nullptr && kept != j) {
        std::copy_n(slots + j * width, width, slots + kept * width);
      }
      ids[kept++] = to;
    }
    ids.resize(kept);
    if (codes != nullptr) (*codes)[l].resize(kept * width);
  }
}

}  // namespace vdt

#endif  // VDTUNER_INDEX_KMEANS_H_
