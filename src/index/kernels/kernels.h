// The SIMD distance-kernel subsystem: scalar reference kernels plus
// vectorized variants (AVX2 and AVX-512 on x86-64) behind
// a runtime dispatch registry. Every one-query-vs-many-rows scan in the
// engine — FLAT scans, IVF posting lists, PQ ADC lookups, SCANN reorder,
// HNSW neighbor expansion, kmeans assignment — bottoms out in these
// kernels, so they are the floor under every QPS number the tuner ever
// sees.
//
// Determinism contract: each backend computes a row's distance with one
// fixed accumulation scheme that depends only on (query, row, dim) — never
// on the batch size, the row's position within a batch, or how a caller
// blocks a scan. Consequently batch kernels are *block-invariant*: splitting
// one n-row batch into any sequence of sub-batches produces bit-identical
// per-row results, and `dot(a, b, dim) == dot_batch(a, b, dim, 1)` exactly.
// Different backends use different (documented) schemes, so results are
// bit-stable per backend per machine, and agree across backends only within
// the tolerance bounds below.
//
// Tolerance policy (vs a double-precision oracle; eps = 2^-23):
//   scalar: 4-way interleaved accumulators, products rounded individually.
//           |err| <= ~(dim/4 + 2) * eps * sum_i |term_i|.
//   avx2:   8-lane FMA accumulators (2-way unrolled), lanewise pairwise
//           horizontal reduction, scalar tail. FMA rounds a*b+acc once, so
//           individual terms can differ from scalar by one rounding each;
//           the bound has the same ~dim * eps * sum|term| shape.
//   avx512: 16-lane FMA accumulators (2-way unrolled); the remainder runs
//           as one masked-load FMA into accumulator 0 instead of a scalar
//           tail loop (masked-off lanes contribute +0). Same bound shape
//           as avx2.
// tests/kernel_test.cc enforces |got - oracle| <= 4 * dim * eps *
// sum|term| + dim * FLT_MIN (the additive floor covers underflow of
// subnormal products) for every registered backend across dims 1..257.
//
// The pq_lookup_batch slot sums m table entries per row; its bound is the
// same shape with dim replaced by m. The sq8_dot_i8 slot is the one
// exception to the float-rounding-only rule: a backend may serve it with a
// fixed-point scheme (AVX-512 VNNI, below), whose documented error is
// dominated by query quantization, not rounding:
//   The query is folded into the scale once per call: s[d] = q[d] *
//   vscale[d] (rounded float), amax = max_d |s[d]|, alpha = amax / 127,
//   s8[d] = clamp(lrintf((s[d] / amax) * 127), -127, 127). Each row then
//   reduces exactly in int32 via vpdpbusd (isum = sum_d code[d] * s8[d];
//   integer, so block-invariant by construction) and the result is
//   base + alpha * isum with base = dot(q, vmin) under the backend's float
//   dot scheme. Documented bound, enforced by tests/kernel_test.cc:
//   |err| <= alpha * (0.5 * sum_d code[d] + 4 * dim) + the float-dot bound
//   above. Valid for dim < 2^18 (int32 lane headroom). Backends without a
//   fixed-point path alias sq8_dot_i8 to their float sq8 dot kernel, and
//   the scalar slot is the float reference itself, so VDT_KERNEL=scalar
//   results never change.
#ifndef VDTUNER_INDEX_KERNELS_KERNELS_H_
#define VDTUNER_INDEX_KERNELS_KERNELS_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace vdt {
namespace kernels {

/// One-to-one kernels: distance core between two dim-float vectors.
using DotFn = float (*)(const float* a, const float* b, size_t dim);
using L2Fn = float (*)(const float* a, const float* b, size_t dim);

/// One-to-many block kernels: one query against n contiguous rows
/// (`rows` holds n * dim floats, row i at rows + i * dim), filling
/// out[i] with the raw kernel value for row i. Per-row results are
/// block-invariant (see the determinism contract above).
using DotBatchFn = void (*)(const float* query, const float* rows, size_t dim,
                            size_t n, float* out);
using L2BatchFn = void (*)(const float* query, const float* rows, size_t dim,
                           size_t n, float* out);

/// SQ8-asymmetric block kernels: one float query against n contiguous
/// 8-bit-code rows (`codes` holds n * dim bytes). Codes dequantize per
/// dimension as value = vmin[d] + vscale[d] * code[d] (the IVF_SQ8 layout
/// in index/ivf_index.h); the query stays full precision.
using Sq8L2BatchFn = void (*)(const float* query, const uint8_t* codes,
                              const float* vmin, const float* vscale,
                              size_t dim, size_t n, float* out);
using Sq8DotBatchFn = void (*)(const float* query, const uint8_t* codes,
                               const float* vmin, const float* vscale,
                               size_t dim, size_t n, float* out);

/// PQ ADC lookup-accumulate block kernel: n rows of m uint16 codes
/// (`codes` holds n * m codes, row i at codes + i * m) against an
/// m x ksub lookup table (subspace s's entries at table + s * ksub);
/// out[i] = bias + sum_s table[s * ksub + codes[i * m + s]]. Every code
/// must be < ksub (validated at index build/restore, not per lookup).
/// Block-invariant like every batch kernel.
using PqLookupBatchFn = void (*)(const float* table, const uint16_t* codes,
                                 size_t m, size_t ksub, size_t n, float bias,
                                 float* out);

/// Quantized-dot slot: same signature and semantics as Sq8DotBatchFn, but
/// a backend may serve it with a fixed-point scheme (the VNNI scheme in
/// the header comment) instead of per-element dequantize-to-float. The
/// scalar slot is the float reference bit-for-bit.
using Sq8DotI8BatchFn = Sq8DotBatchFn;

/// One kernel backend: a named, internally consistent set of kernels.
/// All registered backends are listed by AllBackends(); the ones the
/// current CPU can execute by AvailableBackends().
struct Backend {
  const char* name;          // "scalar", "avx2", "avx512"
  bool (*available)();       // runtime CPU support check

  DotFn dot;
  L2Fn l2;
  DotBatchFn dot_batch;
  L2BatchFn l2_batch;
  Sq8L2BatchFn sq8_l2_batch;
  Sq8DotBatchFn sq8_dot_batch;
  PqLookupBatchFn pq_lookup_batch;
  Sq8DotI8BatchFn sq8_dot_i8;
};

/// The portable reference backend; always available, and the oracle the
/// vectorized backends are tested against. Its one-to-one kernels preserve
/// the historic 4-accumulator scheme bit-for-bit (pinned by
/// tests/kernel_test.cc regression cases).
const Backend& ScalarBackend();

/// Compiled-in vectorized backends; null when this build has no such
/// backend (e.g. Avx2Backend() on aarch64). A non-null pointer does not
/// imply the running CPU supports it — check available(). The avx512
/// backend requires AVX-512F/VL/BW and serves sq8_dot_i8 with the VNNI
/// fixed-point scheme when the CPU also has AVX512-VNNI (falling back to
/// its float sq8 dot kernel otherwise — fixed per machine, so results
/// stay bit-stable).
const Backend* Avx2Backend();
const Backend* Avx512Backend();

/// Every backend compiled into this binary, scalar first.
std::vector<const Backend*> AllBackends();

/// The subset of AllBackends() the running CPU supports.
std::vector<const Backend*> AvailableBackends();

/// Looks a backend up by its registered name, or resolves "native" to the
/// best available backend (vectorized over scalar). Returns null for
/// unknown names and for backends the CPU cannot run.
const Backend* ResolveBackend(const std::string& name);

/// The names accepted by ResolveBackend in this build, " | "-separated and
/// ending with "native" (e.g. "scalar | avx2 | avx512 | native" on
/// x86-64). Enumerated from the registry, never hard-coded, so new
/// backends report correctly in every warning, startup log, and doc
/// string that embeds it.
std::string RegisteredBackendNames();

/// The active backend. Resolved once, on first use, from the VDT_KERNEL
/// environment variable (any RegisteredBackendNames() entry; default
/// native — see KernelEnv() in common/env). An unavailable or unknown
/// request logs a warning and falls back to native. The resolution is
/// logged, and the active name is surfaced through
/// CollectionStats::kernel_backend.
const Backend& Active();

/// Swaps the active backend by name ("native" allowed). Returns false and
/// changes nothing when ResolveBackend() rejects the name. Intended for
/// startup and tests (the cross-backend parity suite); must not run
/// concurrently with searches or builds.
bool SetActive(const std::string& name);

}  // namespace kernels
}  // namespace vdt

#endif  // VDTUNER_INDEX_KERNELS_KERNELS_H_
