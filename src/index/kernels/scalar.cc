// The portable reference backend. The one-to-one kernels keep the historic
// 4-accumulator scheme from the pre-subsystem src/index/distance.cc
// bit-for-bit (the interleaving exposes instruction-level parallelism and
// gcc/clang auto-vectorize the shape well); the SQ8 kernels apply the same
// scheme to dequantized codes. Batch kernels loop the one-row core, which
// makes block-invariance true by construction.
#include "index/kernels/kernels.h"

namespace vdt {
namespace kernels {
namespace {

float ScalarDot(const float* a, const float* b, size_t dim) {
  float acc0 = 0.f, acc1 = 0.f, acc2 = 0.f, acc3 = 0.f;
  size_t i = 0;
  for (; i + 4 <= dim; i += 4) {
    acc0 += a[i] * b[i];
    acc1 += a[i + 1] * b[i + 1];
    acc2 += a[i + 2] * b[i + 2];
    acc3 += a[i + 3] * b[i + 3];
  }
  for (; i < dim; ++i) acc0 += a[i] * b[i];
  return acc0 + acc1 + acc2 + acc3;
}

float ScalarL2(const float* a, const float* b, size_t dim) {
  float acc0 = 0.f, acc1 = 0.f, acc2 = 0.f, acc3 = 0.f;
  size_t i = 0;
  for (; i + 4 <= dim; i += 4) {
    const float d0 = a[i] - b[i];
    const float d1 = a[i + 1] - b[i + 1];
    const float d2 = a[i + 2] - b[i + 2];
    const float d3 = a[i + 3] - b[i + 3];
    acc0 += d0 * d0;
    acc1 += d1 * d1;
    acc2 += d2 * d2;
    acc3 += d3 * d3;
  }
  for (; i < dim; ++i) {
    const float d = a[i] - b[i];
    acc0 += d * d;
  }
  return acc0 + acc1 + acc2 + acc3;
}

// Dequantization matches IVF_SQ8 (index/ivf_index.h) exactly: vmin[d] +
// vscale[d] * code[d], each step rounded in float.
float ScalarSq8L2(const float* q, const uint8_t* code, const float* vmin,
                  const float* vscale, size_t dim) {
  float acc0 = 0.f, acc1 = 0.f, acc2 = 0.f, acc3 = 0.f;
  size_t d = 0;
  for (; d + 4 <= dim; d += 4) {
    const float d0 = q[d] - (vmin[d] + vscale[d] * code[d]);
    const float d1 = q[d + 1] - (vmin[d + 1] + vscale[d + 1] * code[d + 1]);
    const float d2 = q[d + 2] - (vmin[d + 2] + vscale[d + 2] * code[d + 2]);
    const float d3 = q[d + 3] - (vmin[d + 3] + vscale[d + 3] * code[d + 3]);
    acc0 += d0 * d0;
    acc1 += d1 * d1;
    acc2 += d2 * d2;
    acc3 += d3 * d3;
  }
  for (; d < dim; ++d) {
    const float diff = q[d] - (vmin[d] + vscale[d] * code[d]);
    acc0 += diff * diff;
  }
  return acc0 + acc1 + acc2 + acc3;
}

float ScalarSq8Dot(const float* q, const uint8_t* code, const float* vmin,
                   const float* vscale, size_t dim) {
  float acc0 = 0.f, acc1 = 0.f, acc2 = 0.f, acc3 = 0.f;
  size_t d = 0;
  for (; d + 4 <= dim; d += 4) {
    acc0 += q[d] * (vmin[d] + vscale[d] * code[d]);
    acc1 += q[d + 1] * (vmin[d + 1] + vscale[d + 1] * code[d + 1]);
    acc2 += q[d + 2] * (vmin[d + 2] + vscale[d + 2] * code[d + 2]);
    acc3 += q[d + 3] * (vmin[d + 3] + vscale[d + 3] * code[d + 3]);
  }
  for (; d < dim; ++d) {
    acc0 += q[d] * (vmin[d] + vscale[d] * code[d]);
  }
  return acc0 + acc1 + acc2 + acc3;
}

void ScalarDotBatch(const float* query, const float* rows, size_t dim,
                    size_t n, float* out) {
  for (size_t i = 0; i < n; ++i) out[i] = ScalarDot(query, rows + i * dim, dim);
}

void ScalarL2Batch(const float* query, const float* rows, size_t dim, size_t n,
                   float* out) {
  for (size_t i = 0; i < n; ++i) out[i] = ScalarL2(query, rows + i * dim, dim);
}

void ScalarSq8L2Batch(const float* query, const uint8_t* codes,
                      const float* vmin, const float* vscale, size_t dim,
                      size_t n, float* out) {
  for (size_t i = 0; i < n; ++i) {
    out[i] = ScalarSq8L2(query, codes + i * dim, vmin, vscale, dim);
  }
}

void ScalarSq8DotBatch(const float* query, const uint8_t* codes,
                       const float* vmin, const float* vscale, size_t dim,
                       size_t n, float* out) {
  for (size_t i = 0; i < n; ++i) {
    out[i] = ScalarSq8Dot(query, codes + i * dim, vmin, vscale, dim);
  }
}

// The historic IvfPqIndex ADC loop, preserved bit-for-bit: one sequential
// float accumulation per row, seeded with the bias.
void ScalarPqLookupBatch(const float* table, const uint16_t* codes, size_t m,
                         size_t ksub, size_t n, float bias, float* out) {
  for (size_t i = 0; i < n; ++i) {
    const uint16_t* code = codes + i * m;
    float acc = bias;
    for (size_t s = 0; s < m; ++s) acc += table[s * ksub + code[s]];
    out[i] = acc;
  }
}

bool AlwaysAvailable() { return true; }

}  // namespace

const Backend& ScalarBackend() {
  static const Backend backend = {
      .name = "scalar",
      .available = AlwaysAvailable,
      .dot = ScalarDot,
      .l2 = ScalarL2,
      .dot_batch = ScalarDotBatch,
      .l2_batch = ScalarL2Batch,
      .sq8_l2_batch = ScalarSq8L2Batch,
      .sq8_dot_batch = ScalarSq8DotBatch,
      .pq_lookup_batch = ScalarPqLookupBatch,
      // The quantized-dot slot is the float reference itself: scalar
      // results are pinned bit-for-bit regardless of which slot a caller
      // routes through.
      .sq8_dot_i8 = ScalarSq8DotBatch,
  };
  return backend;
}

}  // namespace kernels
}  // namespace vdt
