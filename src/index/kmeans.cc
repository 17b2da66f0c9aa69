#include "index/kmeans.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <limits>

#include "common/parallel_executor.h"
#include "index/distance.h"

namespace vdt {
namespace {

/// Chunk granularity of every build-side pass. Fixed (never derived from the
/// executor width) so per-chunk partials merge identically no matter how
/// many threads run them.
constexpr size_t kBuildChunk = 1024;

/// k-means++ seeding over the training set. The per-point distance updates
/// and the D^2 mass are chunked; the draw itself stays sequential (each
/// centroid depends on the previous one).
FloatMatrix SeedPlusPlus(const FloatMatrix& train, size_t k, Rng* rng,
                         ParallelExecutor* executor) {
  const size_t n = train.rows();
  const size_t dim = train.dim();
  FloatMatrix centroids(k, dim);

  size_t first = static_cast<size_t>(rng->UniformInt(n));
  std::copy_n(train.Row(first), dim, centroids.Row(0));

  const size_t num_chunks = (n + kBuildChunk - 1) / kBuildChunk;
  std::vector<double> chunk_mass(num_chunks);
  std::vector<float> min_d2(n, std::numeric_limits<float>::max());
  for (size_t c = 1; c < k; ++c) {
    // Update the distance of each point to its nearest chosen centroid;
    // fold each chunk's D^2 mass separately and merge in chunk order. Each
    // chunk is a contiguous row block, so the update is one one-to-many
    // kernel scan per chunk (L2 is symmetric in its float evaluation —
    // (a-b)^2 and (b-a)^2 round identically — so swapping query/row sides
    // is exact).
    const float* last = centroids.Row(c - 1);
    ParallelChunks(executor, n, kBuildChunk,
                   [&](size_t chunk, size_t begin, size_t end) {
                     std::vector<float> d2(end - begin);
                     L2Batch(last, train.Row(begin), dim, end - begin,
                             d2.data());
                     double mass = 0.0;
                     for (size_t i = begin; i < end; ++i) {
                       min_d2[i] = std::min(min_d2[i], d2[i - begin]);
                       mass += min_d2[i];
                     }
                     chunk_mass[chunk] = mass;
                   });
    double total = 0.0;
    for (size_t chunk = 0; chunk < num_chunks; ++chunk) {
      total += chunk_mass[chunk];
    }
    // D^2-weighted draw (falls back to uniform if all distances are zero).
    size_t chosen = 0;
    if (total > 0.0) {
      double target = rng->Uniform() * total;
      for (size_t i = 0; i < n; ++i) {
        target -= min_d2[i];
        if (target <= 0.0) {
          chosen = i;
          break;
        }
      }
    } else {
      chosen = static_cast<size_t>(rng->UniformInt(n));
    }
    std::copy_n(train.Row(chosen), dim, centroids.Row(c));
  }
  return centroids;
}

/// Argmin over a precomputed centroid-distance buffer; first index wins
/// ties, matching the historic sequential comparison loop exactly.
int32_t ArgminDistance(const float* dist, size_t k) {
  int32_t best = 0;
  float best_d = std::numeric_limits<float>::max();
  for (size_t c = 0; c < k; ++c) {
    if (dist[c] < best_d) {
      best_d = dist[c];
      best = static_cast<int32_t>(c);
    }
  }
  return best;
}

/// Nearest-centroid assignment for rows [0, n) of `data`, chunked across
/// `executor`. The centroid table is contiguous, so each point is one
/// one-to-many kernel scan into a per-chunk buffer. Each point's assignment
/// is independent, so this is trivially bit-identical to the sequential
/// loop.
void AssignAll(const FloatMatrix& centroids, const FloatMatrix& data,
               ParallelExecutor* executor, std::vector<int32_t>* assign) {
  const size_t k = centroids.rows();
  const size_t dim = centroids.dim();
  ParallelChunks(executor, data.rows(), kBuildChunk,
                 [&](size_t, size_t begin, size_t end) {
                   std::vector<float> dist(k);
                   for (size_t i = begin; i < end; ++i) {
                     L2Batch(data.Row(i), centroids.Row(0), dim, k,
                             dist.data());
                     (*assign)[i] = ArgminDistance(dist.data(), k);
                   }
                 });
}

}  // namespace

KMeansResult KMeansCluster(const FloatMatrix& data, size_t k,
                           const KMeansOptions& options) {
  KMeansResult result;
  const size_t n = data.rows();
  const size_t dim = data.dim();
  assert(n > 0 && dim > 0);
  k = std::max<size_t>(1, std::min(k, n));

  Rng rng(options.seed);
  ParallelExecutor* executor = options.executor;

  // Train on a subsample for speed; assign the full set at the end.
  FloatMatrix train;
  if (n > options.max_train_points) {
    auto idx = rng.SampleWithoutReplacement(n, options.max_train_points);
    train = FloatMatrix(idx.size(), dim);
    for (size_t i = 0; i < idx.size(); ++i) {
      std::copy_n(data.Row(idx[i]), dim, train.Row(i));
    }
  } else {
    train = data.Slice(0, n);
  }

  FloatMatrix centroids = SeedPlusPlus(train, k, &rng, executor);

  const size_t tn = train.rows();
  const size_t num_chunks = (tn + kBuildChunk - 1) / kBuildChunk;
  std::vector<int32_t> assign(tn, 0);
  std::vector<int32_t> prev(tn, -1);
  std::vector<size_t> counts(k, 0);
  // Per-chunk centroid accumulators, merged in chunk order: the summation
  // tree depends only on the chunk grid, so centroids are bit-identical for
  // any executor width. Buffers are allocated once; each iteration zeroes
  // and merges only the clusters a chunk actually touched, keeping the
  // merge O(occupied rows) instead of O(num_chunks * k * dim) when k is
  // large (e.g. PQ codebooks with 2^nbits clusters).
  std::vector<FloatMatrix> chunk_sums(num_chunks);
  std::vector<std::vector<size_t>> chunk_counts(num_chunks);
  for (size_t chunk = 0; chunk < num_chunks; ++chunk) {
    chunk_sums[chunk] = FloatMatrix(k, dim, 0.f);
    chunk_counts[chunk].assign(k, 0);
  }
  FloatMatrix sums(k, dim, 0.f);
  for (int iter = 0; iter < options.max_iters; ++iter) {
    // Assignment step.
    AssignAll(centroids, train, executor, &assign);
    if (assign == prev && iter > 0) break;
    prev = assign;

    // Update step: accumulate per chunk, then merge in fixed chunk order.
    ParallelChunks(executor, tn, kBuildChunk,
                   [&](size_t chunk, size_t begin, size_t end) {
                     FloatMatrix& cs = chunk_sums[chunk];
                     std::vector<size_t>& cnt = chunk_counts[chunk];
                     for (size_t c = 0; c < k; ++c) {
                       if (cnt[c] != 0) {
                         std::fill_n(cs.Row(c), dim, 0.f);
                         cnt[c] = 0;
                       }
                     }
                     for (size_t i = begin; i < end; ++i) {
                       const int32_t c = assign[i];
                       const float* row = train.Row(i);
                       float* s = cs.Row(c);
                       for (size_t d = 0; d < dim; ++d) s[d] += row[d];
                       ++cnt[c];
                     }
                   });
    for (size_t c = 0; c < k; ++c) {
      if (counts[c] != 0) {
        std::fill_n(sums.Row(c), dim, 0.f);
        counts[c] = 0;
      }
    }
    for (size_t chunk = 0; chunk < num_chunks; ++chunk) {
      const FloatMatrix& cs = chunk_sums[chunk];
      for (size_t c = 0; c < k; ++c) {
        if (chunk_counts[chunk][c] == 0) continue;
        float* s = sums.Row(c);
        const float* p = cs.Row(c);
        for (size_t d = 0; d < dim; ++d) s[d] += p[d];
        counts[c] += chunk_counts[chunk][c];
      }
    }
    for (size_t c = 0; c < k; ++c) {
      if (counts[c] == 0) {
        // Re-seed an empty cluster from a random training point.
        const size_t pick = static_cast<size_t>(rng.UniformInt(tn));
        std::copy_n(train.Row(pick), dim, centroids.Row(c));
        continue;
      }
      const float inv = 1.0f / static_cast<float>(counts[c]);
      float* cr = centroids.Row(c);
      const float* s = sums.Row(c);
      for (size_t d = 0; d < dim; ++d) cr[d] = s[d] * inv;
    }
  }

  // Final assignment over the full dataset.
  result.assignments.resize(n);
  AssignAll(centroids, data, executor, &result.assignments);
  result.centroids = std::move(centroids);
  return result;
}

std::vector<std::vector<int64_t>> BucketByAssignment(
    const std::vector<int32_t>& assignments, size_t k,
    ParallelExecutor* executor) {
  const size_t n = assignments.size();
  const size_t num_chunks = (n + kBuildChunk - 1) / kBuildChunk;
  std::vector<std::vector<int64_t>> lists(k);
  if (n == 0) return lists;

  // Pass 1: per-chunk occupancy histograms.
  std::vector<std::vector<size_t>> chunk_hist(num_chunks);
  ParallelChunks(executor, n, kBuildChunk,
                 [&](size_t chunk, size_t begin, size_t end) {
                   std::vector<size_t>& hist = chunk_hist[chunk];
                   hist.assign(k, 0);
                   for (size_t i = begin; i < end; ++i) {
                     ++hist[assignments[i]];
                   }
                 });

  // Exclusive prefix over chunks: where each chunk starts within each list.
  std::vector<std::vector<size_t>> chunk_offset(num_chunks,
                                                std::vector<size_t>(k, 0));
  std::vector<size_t> totals(k, 0);
  for (size_t chunk = 0; chunk < num_chunks; ++chunk) {
    for (size_t c = 0; c < k; ++c) {
      chunk_offset[chunk][c] = totals[c];
      totals[c] += chunk_hist[chunk][c];
    }
  }
  for (size_t c = 0; c < k; ++c) lists[c].resize(totals[c]);

  // Pass 2: scatter into the pre-sized slots. Each chunk writes a disjoint
  // range of every list, and in-chunk order is ascending, so the result is
  // exactly the sequential push_back order.
  ParallelChunks(executor, n, kBuildChunk,
                 [&](size_t chunk, size_t begin, size_t end) {
                   std::vector<size_t> cursor = chunk_offset[chunk];
                   for (size_t i = begin; i < end; ++i) {
                     const int32_t c = assignments[i];
                     lists[c][cursor[c]++] = static_cast<int64_t>(i);
                   }
                 });
  return lists;
}

}  // namespace vdt
