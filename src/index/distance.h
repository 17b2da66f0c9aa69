// Distance entry points. The evaluated datasets use angular distance
// (Table III); vectors are L2-normalized at ingest so angular reduces to
// 1 - dot. Every function here routes through the active SIMD kernel
// backend (index/kernels/kernels.h): runtime-dispatched on CPU features,
// overridable via VDT_KERNEL=scalar|avx2|avx512|native. Per-row results are
// block-invariant — a batch call produces bit-identical values to the
// corresponding one-row calls — so callers may block scans any way they
// like without changing results.
#ifndef VDTUNER_INDEX_DISTANCE_H_
#define VDTUNER_INDEX_DISTANCE_H_

#include <cstddef>
#include <cstdint>

namespace vdt {

/// Distance metric of a collection.
enum class Metric {
  kL2,            // squared Euclidean
  kInnerProduct,  // negative dot product (smaller = more similar)
  kAngular,       // 1 - cosine similarity; assumes normalized vectors
};

const char* MetricName(Metric metric);

float DotProduct(const float* a, const float* b, size_t dim);
float L2SquaredDistance(const float* a, const float* b, size_t dim);
float Norm(const float* a, size_t dim);

/// In-place L2 normalization (no-op on the zero vector).
void NormalizeVector(float* a, size_t dim);

/// Distance under `metric`; smaller is more similar for every metric.
float Distance(Metric metric, const float* a, const float* b, size_t dim);

// ------------------------------------------------------- block kernels
// One query against n contiguous rows (`rows` holds n * dim floats),
// filling out[0..n). These are the hot-path scan primitives: FLAT scans,
// IVF posting lists, PQ table builds, SCANN reorder, HNSW neighbor
// expansion, and kmeans assignment all run through them.

/// Fixed row-block granularity for scans that stage distances through a
/// stack buffer. Purely a buffering choice: per-row kernel results are
/// block-invariant, so the block size never affects any result.
inline constexpr size_t kDistanceScanBlock = 256;

/// out[i] = dot(query, rows + i * dim).
void DotBatch(const float* query, const float* rows, size_t dim, size_t n,
              float* out);

/// out[i] = squared L2 distance of query to rows + i * dim.
void L2Batch(const float* query, const float* rows, size_t dim, size_t n,
             float* out);

/// out[i] = Distance(metric, query, rows + i * dim): the metric transform
/// (negate for IP, 1 - x for angular) applied on top of the raw kernel.
void DistanceBatch(Metric metric, const float* query, const float* rows,
                   size_t dim, size_t n, float* out);

/// SQ8-asymmetric scan: one float query against n contiguous 8-bit code
/// rows (`codes` holds n * dim bytes; value = vmin[d] + vscale[d] *
/// code[d], the IVF_SQ8 layout in index/ivf_index.h). Fills out[i] with the
/// metric-transformed distance, matching what Distance() would return on
/// the dequantized row.
void Sq8Batch(Metric metric, const float* query, const uint8_t* codes,
              const float* vmin, const float* vscale, size_t dim, size_t n,
              float* out);

/// PQ ADC lookup-accumulate scan: n rows of m uint16 codes against an
/// m x ksub table (subspace s at table + s * ksub);
/// out[i] = bias + sum_s table[s * ksub + codes[i * m + s]]. The bias
/// carries the metric's constant (1.0 for angular) so the table itself
/// holds the per-subspace contributions. Block-invariant like every
/// batch kernel.
void PqLookupBatch(const float* table, const uint16_t* codes, size_t m,
                   size_t ksub, size_t n, float bias, float* out);

}  // namespace vdt

#endif  // VDTUNER_INDEX_DISTANCE_H_
