// The kernel parity harness: every registered distance-kernel backend is
// checked against a double-precision oracle across all tail lengths (dims
// 1..257), unaligned row offsets, zero / subnormal / large-magnitude
// inputs, and every block size 1..N (block-invariance must hold bitwise),
// plus bitwise argument symmetry of dot/L2 and their batch forms. Also pins
// the scalar reference to the historic 4-accumulator loop bit-for-bit (the
// pre-subsystem src/index/distance.cc behavior, including its dim < 4 tail
// handling), and covers the runtime-dispatch registry.
//
// Error-bound policy: a float accumulation of m rounded terms satisfies
// |got - exact| <= ~m * eps * sum_i |term_i| (eps = 2^-23); FMA variants do
// strictly better. The harness enforces the relaxed bound
//   |got - oracle| <= 4 * dim * eps * sum|term| + dim * FLT_MIN
// where the additive floor absorbs products that underflow to zero in
// float but not in the double oracle (subnormal inputs).
#include <gtest/gtest.h>

#include <algorithm>
#include <cfloat>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <string>
#include <vector>

#include "common/env.h"
#include "common/random.h"
#include "index/distance.h"
#include "index/kernels/kernels.h"
#include "tests/test_util.h"

namespace vdt {
namespace {

using testing_util::BackendGuard;

// ----------------------------------------------------- dispatch startup

// Defined first in this file so it observes the backend resolved from the
// environment before any test calls SetActive. Ties the CI matrix (the
// suite runs once with VDT_KERNEL=scalar, once native) to the dispatch.
TEST(KernelDispatchStartup, ActiveMatchesEnvRequest) {
  const std::string want = KernelEnv();
  const kernels::Backend* resolved = kernels::ResolveBackend(want);
  if (resolved != nullptr) {
    EXPECT_STREQ(kernels::Active().name, resolved->name)
        << "VDT_KERNEL=" << want << " did not select the requested backend";
  } else {
    // Unknown/unsupported request: must have fallen back to native.
    EXPECT_STREQ(kernels::Active().name,
                 kernels::ResolveBackend("native")->name);
  }
}

// ------------------------------------------------------------- helpers

struct Oracle {
  double value;      // exact (double-accumulated) result
  double magnitude;  // sum of |term| — the conditioning scale
};

Oracle OracleDot(const float* a, const float* b, size_t dim) {
  double v = 0.0, m = 0.0;
  for (size_t i = 0; i < dim; ++i) {
    const double t = static_cast<double>(a[i]) * static_cast<double>(b[i]);
    v += t;
    m += std::fabs(t);
  }
  return {v, m};
}

Oracle OracleL2(const float* a, const float* b, size_t dim) {
  double v = 0.0;
  for (size_t i = 0; i < dim; ++i) {
    // a - b is exact in double for float inputs.
    const double d = static_cast<double>(a[i]) - static_cast<double>(b[i]);
    v += d * d;
  }
  return {v, v};  // all terms non-negative: magnitude == value
}

/// Dequantized oracles; mirror value = vmin[d] + vscale[d] * code[d] in
/// double. The float kernels round the dequantization itself, and q - deq
/// cancels catastrophically when the query sits near the quantized value,
/// so the error is proportional to the *dequantization scale* (|q| +
/// |vmin| + |vscale * code|), not to the residual — the magnitude reported
/// here is the per-term square of that scale.
Oracle OracleSq8L2(const float* q, const uint8_t* code, const float* vmin,
                   const float* vscale, size_t dim) {
  double v = 0.0, m = 0.0;
  for (size_t d = 0; d < dim; ++d) {
    const double deq = static_cast<double>(vmin[d]) +
                       static_cast<double>(vscale[d]) * code[d];
    const double diff = static_cast<double>(q[d]) - deq;
    v += diff * diff;
    const double scale = std::fabs(static_cast<double>(q[d])) +
                         std::fabs(static_cast<double>(vmin[d])) +
                         std::fabs(static_cast<double>(vscale[d])) * code[d];
    m += scale * scale;
  }
  return {v, m};
}

Oracle OracleSq8Dot(const float* q, const uint8_t* code, const float* vmin,
                    const float* vscale, size_t dim) {
  double v = 0.0, m = 0.0;
  for (size_t d = 0; d < dim; ++d) {
    const double deq = static_cast<double>(vmin[d]) +
                       static_cast<double>(vscale[d]) * code[d];
    v += static_cast<double>(q[d]) * deq;
    const double scale = std::fabs(static_cast<double>(q[d])) +
                         std::fabs(static_cast<double>(vmin[d])) +
                         std::fabs(static_cast<double>(vscale[d])) * code[d];
    m += scale * scale;
  }
  return {v, m};
}

double Tolerance(size_t dim, double magnitude) {
  constexpr double kEps = 1.1920929e-7;  // 2^-23
  return 4.0 * static_cast<double>(dim) * kEps * magnitude +
         static_cast<double>(dim) * FLT_MIN;
}

#define EXPECT_WITHIN_ORACLE(got, oracle, dim)                             \
  EXPECT_LE(std::fabs(static_cast<double>(got) - (oracle).value),          \
            Tolerance(dim, (oracle).magnitude))                            \
      << "dim=" << dim << " got=" << got << " oracle=" << (oracle).value

/// Fills [out, out + n) with reproducible values in roughly [-scale, scale].
void FillRandom(float* out, size_t n, double scale, Rng* rng) {
  for (size_t i = 0; i < n; ++i) {
    out[i] = static_cast<float>(rng->Uniform(-scale, scale));
  }
}

// ------------------------------------------ oracle sweep, all backends

class KernelOracleTest
    : public ::testing::TestWithParam<const kernels::Backend*> {};

// Every tail length matters: dims 1..257 cross every vector-width boundary
// (4, 8, 16) plus one element, so main-loop/tail splits of every backend
// are all exercised.
TEST_P(KernelOracleTest, DotAndL2MatchOracleAcrossAllTailLengths) {
  const kernels::Backend& backend = *GetParam();
  Rng rng(0xD157);
  std::vector<float> a(257), b(257);
  for (size_t dim = 1; dim <= 257; ++dim) {
    FillRandom(a.data(), dim, 2.0, &rng);
    FillRandom(b.data(), dim, 2.0, &rng);
    const Oracle dot = OracleDot(a.data(), b.data(), dim);
    const Oracle l2 = OracleL2(a.data(), b.data(), dim);
    EXPECT_WITHIN_ORACLE(backend.dot(a.data(), b.data(), dim), dot, dim);
    EXPECT_WITHIN_ORACLE(backend.l2(a.data(), b.data(), dim), l2, dim);
  }
}

// Rows at every misalignment 0..7 floats off a fresh allocation: loadu
// paths must not care, and values must stay within the oracle bound.
TEST_P(KernelOracleTest, UnalignedRowOffsets) {
  const kernels::Backend& backend = *GetParam();
  Rng rng(0xA117);
  for (size_t offset = 0; offset < 8; ++offset) {
    for (size_t dim : {1u, 7u, 16u, 31u, 64u, 129u}) {
      std::vector<float> buf_a(offset + dim), buf_b(offset + dim + 3);
      FillRandom(buf_a.data(), buf_a.size(), 1.5, &rng);
      FillRandom(buf_b.data(), buf_b.size(), 1.5, &rng);
      const float* a = buf_a.data() + offset;
      const float* b = buf_b.data() + (offset + 3) % 8;
      const Oracle dot = OracleDot(a, b, dim);
      const Oracle l2 = OracleL2(a, b, dim);
      EXPECT_WITHIN_ORACLE(backend.dot(a, b, dim), dot, dim);
      EXPECT_WITHIN_ORACLE(backend.l2(a, b, dim), l2, dim);
    }
  }
}

// Zero vectors, subnormal inputs (products underflow in float — the
// additive floor of the bound covers the loss), and large magnitudes near
// the float overflow cliff.
TEST_P(KernelOracleTest, ZeroSubnormalAndLargeMagnitudeInputs) {
  const kernels::Backend& backend = *GetParam();
  const std::vector<double> scales = {0.0, 1e-40, 1e-20, 1.0, 1e15};
  Rng rng(0x5CA1E);
  for (const double scale : scales) {
    for (size_t dim : {1u, 3u, 8u, 33u, 130u, 257u}) {
      std::vector<float> a(dim), b(dim);
      if (scale == 0.0) {
        std::fill(a.begin(), a.end(), 0.f);
        std::fill(b.begin(), b.end(), 0.f);
      } else {
        FillRandom(a.data(), dim, scale, &rng);
        FillRandom(b.data(), dim, scale, &rng);
      }
      const Oracle dot = OracleDot(a.data(), b.data(), dim);
      const Oracle l2 = OracleL2(a.data(), b.data(), dim);
      const float got_dot = backend.dot(a.data(), b.data(), dim);
      const float got_l2 = backend.l2(a.data(), b.data(), dim);
      ASSERT_TRUE(std::isfinite(got_dot)) << "scale=" << scale;
      ASSERT_TRUE(std::isfinite(got_l2)) << "scale=" << scale;
      EXPECT_WITHIN_ORACLE(got_dot, dot, dim);
      EXPECT_WITHIN_ORACLE(got_l2, l2, dim);
    }
  }
}

// Block-invariance, the determinism contract's teeth: splitting an n-row
// batch into blocks of every size 1..n is bit-identical to the full batch,
// and batch row i is bit-identical to the one-to-one kernel on that row.
TEST_P(KernelOracleTest, BatchKernelsAreBlockInvariantBitwise) {
  const kernels::Backend& backend = *GetParam();
  constexpr size_t kRows = 33;
  Rng rng(0xB10C);
  for (size_t dim : {1u, 5u, 16u, 23u, 96u, 131u}) {
    std::vector<float> query(dim), rows(kRows * dim);
    FillRandom(query.data(), dim, 1.0, &rng);
    FillRandom(rows.data(), rows.size(), 1.0, &rng);

    std::vector<float> full_dot(kRows), full_l2(kRows);
    backend.dot_batch(query.data(), rows.data(), dim, kRows, full_dot.data());
    backend.l2_batch(query.data(), rows.data(), dim, kRows, full_l2.data());

    for (size_t i = 0; i < kRows; ++i) {
      EXPECT_EQ(full_dot[i], backend.dot(query.data(), &rows[i * dim], dim));
      EXPECT_EQ(full_l2[i], backend.l2(query.data(), &rows[i * dim], dim));
    }

    std::vector<float> blocked(kRows);
    for (size_t block = 1; block <= kRows; ++block) {
      for (size_t begin = 0; begin < kRows; begin += block) {
        const size_t n = std::min(block, kRows - begin);
        backend.dot_batch(query.data(), &rows[begin * dim], dim, n,
                          &blocked[begin]);
      }
      EXPECT_EQ(blocked, full_dot) << "dim=" << dim << " block=" << block;
      for (size_t begin = 0; begin < kRows; begin += block) {
        const size_t n = std::min(block, kRows - begin);
        backend.l2_batch(query.data(), &rows[begin * dim], dim, n,
                         &blocked[begin]);
      }
      EXPECT_EQ(blocked, full_l2) << "dim=" << dim << " block=" << block;
    }
  }
}

// Argument symmetry, bitwise: dot and L2 give the same bits with their
// arguments swapped, and batch row i equals the one-to-one kernel called as
// (row i, query). HNSW construction relies on this: it reuses the distance a
// candidate search measured from the new node as the distance from each
// neighbor back to it.
TEST_P(KernelOracleTest, DotAndL2AreSymmetricBitwise) {
  const kernels::Backend& backend = *GetParam();
  const auto bits = [](float v) {
    uint32_t b;
    std::memcpy(&b, &v, sizeof(b));
    return b;
  };
  constexpr size_t kRows = 5;
  Rng rng(0x5711);
  for (size_t dim = 1; dim <= 130; ++dim) {
    std::vector<float> query(dim), rows(kRows * dim);
    FillRandom(query.data(), dim, 1.5, &rng);
    FillRandom(rows.data(), rows.size(), 1.5, &rng);
    std::vector<float> batch_dot(kRows), batch_l2(kRows);
    backend.dot_batch(query.data(), rows.data(), dim, kRows, batch_dot.data());
    backend.l2_batch(query.data(), rows.data(), dim, kRows, batch_l2.data());
    for (size_t i = 0; i < kRows; ++i) {
      const float* row = &rows[i * dim];
      const float dot_qr = backend.dot(query.data(), row, dim);
      const float dot_rq = backend.dot(row, query.data(), dim);
      const float l2_qr = backend.l2(query.data(), row, dim);
      const float l2_rq = backend.l2(row, query.data(), dim);
      EXPECT_EQ(bits(dot_qr), bits(dot_rq)) << "dim=" << dim << " row=" << i;
      EXPECT_EQ(bits(l2_qr), bits(l2_rq)) << "dim=" << dim << " row=" << i;
      EXPECT_EQ(bits(batch_dot[i]), bits(dot_rq))
          << "dim=" << dim << " row=" << i;
      EXPECT_EQ(bits(batch_l2[i]), bits(l2_rq))
          << "dim=" << dim << " row=" << i;
    }
  }
}

// SQ8 asymmetric kernels against the dequantized double oracle, with codes
// produced by the real quantizer formula, across tail lengths and block
// sizes (bitwise block-invariance again).
TEST_P(KernelOracleTest, Sq8KernelsMatchOracleAndAreBlockInvariant) {
  const kernels::Backend& backend = *GetParam();
  constexpr size_t kRows = 17;
  Rng rng(0x508);
  for (size_t dim : {1u, 4u, 9u, 16u, 31u, 64u, 129u}) {
    std::vector<float> query(dim), vmin(dim), vscale(dim);
    FillRandom(query.data(), dim, 1.0, &rng);
    for (size_t d = 0; d < dim; ++d) {
      vmin[d] = static_cast<float>(rng.Uniform(-1.5, -0.5));
      vscale[d] = static_cast<float>(rng.Uniform(0.002, 0.02));
    }
    std::vector<uint8_t> codes(kRows * dim);
    for (auto& c : codes) c = static_cast<uint8_t>(rng.UniformInt(256));

    std::vector<float> full_l2(kRows), full_dot(kRows);
    backend.sq8_l2_batch(query.data(), codes.data(), vmin.data(),
                         vscale.data(), dim, kRows, full_l2.data());
    backend.sq8_dot_batch(query.data(), codes.data(), vmin.data(),
                          vscale.data(), dim, kRows, full_dot.data());
    for (size_t i = 0; i < kRows; ++i) {
      const uint8_t* code = &codes[i * dim];
      const Oracle l2 =
          OracleSq8L2(query.data(), code, vmin.data(), vscale.data(), dim);
      const Oracle dot =
          OracleSq8Dot(query.data(), code, vmin.data(), vscale.data(), dim);
      EXPECT_WITHIN_ORACLE(full_l2[i], l2, dim);
      EXPECT_WITHIN_ORACLE(full_dot[i], dot, dim);
    }

    std::vector<float> blocked(kRows);
    for (size_t block : {1u, 2u, 5u, 16u, 17u}) {
      for (size_t begin = 0; begin < kRows; begin += block) {
        const size_t n = std::min(block, kRows - begin);
        backend.sq8_l2_batch(query.data(), &codes[begin * dim], vmin.data(),
                             vscale.data(), dim, n, &blocked[begin]);
      }
      EXPECT_EQ(blocked, full_l2) << "dim=" << dim << " block=" << block;
      for (size_t begin = 0; begin < kRows; begin += block) {
        const size_t n = std::min(block, kRows - begin);
        backend.sq8_dot_batch(query.data(), &codes[begin * dim], vmin.data(),
                              vscale.data(), dim, n, &blocked[begin]);
      }
      EXPECT_EQ(blocked, full_dot) << "dim=" << dim << " block=" << block;
    }
  }
}

// PQ ADC lookup against a double oracle: m table entries plus the bias,
// across subspace counts straddling every gather width (the m % 16 masked
// tail edge included), both practically relevant ksub values, and both
// bias constants the engine uses (0 for L2/IP, 1 for angular). Bitwise
// block-invariance as always.
TEST_P(KernelOracleTest, PqLookupMatchesOracleAndIsBlockInvariant) {
  const kernels::Backend& backend = *GetParam();
  // 70 rows: crosses a 64-row vector row-block boundary (with a non-multiple
  // of-4 remainder), so row-blocked batch layouts are exercised against the
  // row-at-a-time splits below.
  constexpr size_t kRows = 70;
  Rng rng(0xADC);
  for (size_t ksub : {16u, 256u}) {
    for (size_t m : {1u, 2u, 7u, 8u, 15u, 16u, 17u, 31u, 32u, 33u, 48u}) {
      std::vector<float> table(m * ksub);
      FillRandom(table.data(), table.size(), 2.0, &rng);
      std::vector<uint16_t> codes(kRows * m);
      for (auto& c : codes) {
        c = static_cast<uint16_t>(rng.UniformInt(static_cast<int>(ksub)));
      }
      for (const float bias : {0.0f, 1.0f}) {
        std::vector<float> full(kRows);
        backend.pq_lookup_batch(table.data(), codes.data(), m, ksub, kRows,
                                bias, full.data());
        for (size_t i = 0; i < kRows; ++i) {
          double v = bias, mag = std::fabs(static_cast<double>(bias));
          for (size_t s = 0; s < m; ++s) {
            const double t = table[s * ksub + codes[i * m + s]];
            v += t;
            mag += std::fabs(t);
          }
          const Oracle oracle{v, mag};
          EXPECT_WITHIN_ORACLE(full[i], oracle, m + 1);
        }
        std::vector<float> blocked(kRows);
        for (size_t block : {1u, 3u, 8u, 19u, 70u}) {
          for (size_t begin = 0; begin < kRows; begin += block) {
            const size_t n = std::min(block, kRows - begin);
            backend.pq_lookup_batch(table.data(), &codes[begin * m], m, ksub,
                                    n, bias, &blocked[begin]);
          }
          EXPECT_EQ(blocked, full)
              << "m=" << m << " ksub=" << ksub << " block=" << block;
        }
      }
    }
  }
}

// The quantized-dot slot: backends that alias it to their float sq8 dot
// kernel must match it bit-for-bit; a fixed-point implementation (AVX-512
// VNNI) must stay within the documented bound from kernels.h —
// alpha * (0.5 * sum_d code[d] + 4 * dim) + the float-dot tolerance, with
// alpha derived exactly as the scheme prescribes. Bitwise block-invariance
// holds either way (integer row accumulation is exact).
TEST_P(KernelOracleTest, Sq8DotI8WithinDocumentedSchemeBound) {
  const kernels::Backend& backend = *GetParam();
  constexpr size_t kRows = 17;
  Rng rng(0x1D8);
  for (size_t dim : {1u, 4u, 16u, 31u, 63u, 64u, 65u, 129u}) {
    std::vector<float> query(dim), vmin(dim), vscale(dim);
    FillRandom(query.data(), dim, 1.0, &rng);
    for (size_t d = 0; d < dim; ++d) {
      vmin[d] = static_cast<float>(rng.Uniform(-1.5, -0.5));
      vscale[d] = static_cast<float>(rng.Uniform(0.002, 0.02));
    }
    std::vector<uint8_t> codes(kRows * dim);
    for (auto& c : codes) c = static_cast<uint8_t>(rng.UniformInt(256));

    std::vector<float> full(kRows);
    backend.sq8_dot_i8(query.data(), codes.data(), vmin.data(), vscale.data(),
                       dim, kRows, full.data());

    if (backend.sq8_dot_i8 == backend.sq8_dot_batch) {
      std::vector<float> viafloat(kRows);
      backend.sq8_dot_batch(query.data(), codes.data(), vmin.data(),
                            vscale.data(), dim, kRows, viafloat.data());
      EXPECT_EQ(full, viafloat) << "aliased slot must be the float kernel";
    } else {
      float amax = 0.f;
      for (size_t d = 0; d < dim; ++d) {
        amax = std::max(amax, std::fabs(query[d] * vscale[d]));
      }
      const double alpha = static_cast<double>(amax) / 127.0;
      for (size_t i = 0; i < kRows; ++i) {
        const uint8_t* code = &codes[i * dim];
        const Oracle oracle =
            OracleSq8Dot(query.data(), code, vmin.data(), vscale.data(), dim);
        double code_sum = 0.0;
        for (size_t d = 0; d < dim; ++d) code_sum += code[d];
        const double bound = alpha * (0.5 * code_sum + 4.0 * dim) +
                             Tolerance(dim, oracle.magnitude);
        EXPECT_LE(std::fabs(static_cast<double>(full[i]) - oracle.value),
                  bound)
            << "dim=" << dim << " row=" << i;
      }
    }

    std::vector<float> blocked(kRows);
    for (size_t block : {1u, 2u, 5u, 17u}) {
      for (size_t begin = 0; begin < kRows; begin += block) {
        const size_t n = std::min(block, kRows - begin);
        backend.sq8_dot_i8(query.data(), &codes[begin * dim], vmin.data(),
                           vscale.data(), dim, n, &blocked[begin]);
      }
      EXPECT_EQ(blocked, full) << "dim=" << dim << " block=" << block;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllAvailableBackends, KernelOracleTest,
    ::testing::ValuesIn(kernels::AvailableBackends()),
    [](const ::testing::TestParamInfo<const kernels::Backend*>& info) {
      return std::string(info.param->name);
    });

// -------------------------------------- scalar reference tail pinning

/// The pre-subsystem DotProduct loop (src/index/distance.cc before the
/// kernel subsystem), reproduced verbatim: 4 interleaved accumulators, a
/// scalar remainder loop, accumulators summed left-to-right. For dim < 4
/// the main loop never runs and everything lands in acc0. The scalar
/// backend must match this bit-for-bit, forever.
float LegacyDot(const float* a, const float* b, size_t dim) {
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

float LegacyL2(const float* a, const float* b, size_t dim) {
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

// Regression for the 4-accumulator tail behavior at dim < 4 (and every
// other tail length): values chosen so accumulation order is observable in
// the float result — catastrophic-cancellation pairs plus small residuals
// produce different floats under different summation orders.
TEST(ScalarReferenceRegressionTest, TailBehaviorPinnedBitForBit) {
  Rng rng(0x7A11);
  for (size_t dim = 1; dim <= 19; ++dim) {
    for (int rep = 0; rep < 50; ++rep) {
      std::vector<float> a(dim), b(dim);
      for (size_t i = 0; i < dim; ++i) {
        // Wildly varying exponents make the sum order-sensitive.
        const double mag = std::pow(10.0, rng.Uniform(-6.0, 6.0));
        a[i] = static_cast<float>(rng.Uniform(-mag, mag));
        b[i] = static_cast<float>(rng.Uniform(-2.0, 2.0));
      }
      const kernels::Backend& scalar = kernels::ScalarBackend();
      EXPECT_EQ(scalar.dot(a.data(), b.data(), dim),
                LegacyDot(a.data(), b.data(), dim))
          << "dim=" << dim;
      EXPECT_EQ(scalar.l2(a.data(), b.data(), dim),
                LegacyL2(a.data(), b.data(), dim))
          << "dim=" << dim;
    }
  }
}

// The historic IvfPqIndex ADC accumulation (pre-pq_lookup_batch
// SearchFiltered), reproduced verbatim: one sequential float sum per row,
// seeded with the bias. The reference kernel — and therefore every scalar
// search — must match it bit-for-bit, forever.
TEST(ScalarReferenceRegressionTest, PqLookupPinnedToHistoricAdcLoop) {
  Rng rng(0xADC2);
  for (size_t m : {1u, 3u, 8u, 13u, 16u, 29u}) {
    const size_t ksub = 32;
    for (int rep = 0; rep < 20; ++rep) {
      std::vector<float> table(m * ksub);
      for (auto& t : table) {
        // Wildly varying exponents make the sum order-sensitive.
        const double mag = std::pow(10.0, rng.Uniform(-6.0, 6.0));
        t = static_cast<float>(rng.Uniform(-mag, mag));
      }
      std::vector<uint16_t> codes(m);
      for (auto& c : codes) {
        c = static_cast<uint16_t>(rng.UniformInt(static_cast<int>(ksub)));
      }
      for (const float bias : {0.0f, 1.0f}) {
        float legacy = bias;
        for (size_t s = 0; s < m; ++s) legacy += table[s * ksub + codes[s]];
        float got = 0.f;
        kernels::ScalarBackend().pq_lookup_batch(table.data(), codes.data(),
                                                 m, ksub, 1, bias, &got);
        EXPECT_EQ(got, legacy) << "m=" << m << " bias=" << bias;
      }
    }
  }
}

// Under VDT_KERNEL=scalar the quantized-dot slot must be the float
// reference itself (same function, not merely close values), so routing
// Sq8Batch through it changed nothing for scalar runs.
TEST(ScalarReferenceRegressionTest, Sq8DotI8SlotIsTheFloatReference) {
  const kernels::Backend& scalar = kernels::ScalarBackend();
  EXPECT_EQ(scalar.sq8_dot_i8, scalar.sq8_dot_batch);
}

// The public entry points route through the scalar backend when it is
// active, preserving the historic values exactly.
TEST(ScalarReferenceRegressionTest, PublicApiMatchesLegacyUnderScalar) {
  BackendGuard guard;
  ASSERT_TRUE(kernels::SetActive("scalar"));
  const float a[] = {1e6f, -1e6f, 3.25f};
  const float b[] = {1.f, 1.f, 1.f};
  for (size_t dim = 1; dim <= 3; ++dim) {
    EXPECT_EQ(DotProduct(a, b, dim), LegacyDot(a, b, dim));
    EXPECT_EQ(L2SquaredDistance(a, b, dim), LegacyL2(a, b, dim));
  }
}

// --------------------------------------------- public batch entry points

// DistanceBatch must equal Distance() per row, bitwise, for every metric
// (same backend, same transform order); Sq8Batch must equal the raw sq8
// kernel plus the same transform.
TEST(DistanceBatchTest, MatchesPerRowDistanceBitwise) {
  Rng rng(0xD157B);
  const size_t dim = 37, n = 11;
  std::vector<float> query(dim), rows(n * dim), out(n);
  FillRandom(query.data(), dim, 1.0, &rng);
  FillRandom(rows.data(), rows.size(), 1.0, &rng);
  for (const Metric metric :
       {Metric::kL2, Metric::kInnerProduct, Metric::kAngular}) {
    DistanceBatch(metric, query.data(), rows.data(), dim, n, out.data());
    for (size_t i = 0; i < n; ++i) {
      EXPECT_EQ(out[i], Distance(metric, query.data(), &rows[i * dim], dim))
          << MetricName(metric) << " row " << i;
    }
  }
}

TEST(DistanceBatchTest, Sq8BatchAppliesMetricTransform) {
  Rng rng(0x5C8);
  const size_t dim = 24, n = 7;
  std::vector<float> query(dim), vmin(dim), vscale(dim), out(n), raw(n);
  FillRandom(query.data(), dim, 1.0, &rng);
  for (size_t d = 0; d < dim; ++d) {
    vmin[d] = -1.f;
    vscale[d] = static_cast<float>(rng.Uniform(0.002, 0.01));
  }
  std::vector<uint8_t> codes(n * dim);
  for (auto& c : codes) c = static_cast<uint8_t>(rng.UniformInt(256));

  const kernels::Backend& backend = kernels::Active();
  Sq8Batch(Metric::kL2, query.data(), codes.data(), vmin.data(), vscale.data(),
           dim, n, out.data());
  backend.sq8_l2_batch(query.data(), codes.data(), vmin.data(), vscale.data(),
                       dim, n, raw.data());
  EXPECT_EQ(out, raw);

  // Dot metrics route through the quantized-dot slot (which may be a
  // fixed-point kernel); the transform must sit on top of exactly that
  // slot's raw values.
  Sq8Batch(Metric::kAngular, query.data(), codes.data(), vmin.data(),
           vscale.data(), dim, n, out.data());
  backend.sq8_dot_i8(query.data(), codes.data(), vmin.data(),
                     vscale.data(), dim, n, raw.data());
  for (size_t i = 0; i < n; ++i) EXPECT_EQ(out[i], 1.0f - raw[i]);

  Sq8Batch(Metric::kInnerProduct, query.data(), codes.data(), vmin.data(),
           vscale.data(), dim, n, out.data());
  for (size_t i = 0; i < n; ++i) EXPECT_EQ(out[i], -raw[i]);
}

// ------------------------------------------------------------ dispatch

TEST(KernelDispatchTest, RegistryListsScalarFirstAndAlwaysAvailable) {
  const auto all = kernels::AllBackends();
  ASSERT_FALSE(all.empty());
  EXPECT_STREQ(all[0]->name, "scalar");
  EXPECT_TRUE(all[0]->available());
  const auto available = kernels::AvailableBackends();
  ASSERT_FALSE(available.empty());
  EXPECT_STREQ(available[0]->name, "scalar");
}

TEST(KernelDispatchTest, SetActiveSwapsAndRejectsUnknown) {
  BackendGuard guard;
  ASSERT_TRUE(kernels::SetActive("scalar"));
  EXPECT_STREQ(kernels::Active().name, "scalar");

  const std::string before = kernels::Active().name;
  EXPECT_FALSE(kernels::SetActive("definitely-not-a-backend"));
  EXPECT_EQ(before, kernels::Active().name) << "failed swap must not change"
                                               " the active backend";

  ASSERT_TRUE(kernels::SetActive("native"));
  EXPECT_STREQ(kernels::Active().name,
               kernels::AvailableBackends().back()->name);
}

TEST(KernelDispatchTest, NativeResolvesToBestAvailable) {
  const kernels::Backend* native = kernels::ResolveBackend("native");
  ASSERT_NE(native, nullptr);
  EXPECT_STREQ(native->name, kernels::AvailableBackends().back()->name);
  // Vectorized wins over scalar whenever the CPU has one.
  if (kernels::AvailableBackends().size() > 1) {
    EXPECT_STRNE(native->name, "scalar");
  }
}

TEST(KernelDispatchTest, UnavailableBackendsAreNotResolvable) {
  for (const kernels::Backend* backend : kernels::AllBackends()) {
    const kernels::Backend* resolved = kernels::ResolveBackend(backend->name);
    if (backend->available()) {
      EXPECT_EQ(resolved, backend);
    } else {
      EXPECT_EQ(resolved, nullptr);
    }
  }
}

// The registered-name string is enumerated from the registry — every
// compiled-in backend appears, scalar first, "native" last — so warnings
// and startup logs can never drift from what ResolveBackend accepts.
TEST(KernelDispatchTest, RegisteredBackendNamesEnumerateTheRegistry) {
  const std::string names = kernels::RegisteredBackendNames();
  EXPECT_EQ(names.rfind("scalar | ", 0), 0u) << names;
  EXPECT_EQ(names.substr(names.size() - std::string("native").size()),
            "native");
  for (const kernels::Backend* backend : kernels::AllBackends()) {
    EXPECT_NE(names.find(std::string(backend->name) + " | "),
              std::string::npos)
        << names << " is missing " << backend->name;
  }
}

// Every Backend must populate the two new slots — a null pointer here
// would only surface as a crash deep inside a PQ or SQ8 search.
TEST(KernelDispatchTest, AllBackendsPopulateEverySlot) {
  for (const kernels::Backend* backend : kernels::AllBackends()) {
    EXPECT_NE(backend->pq_lookup_batch, nullptr) << backend->name;
    EXPECT_NE(backend->sq8_dot_i8, nullptr) << backend->name;
  }
}

// The public PqLookupBatch entry routes through the active backend.
TEST(KernelDispatchTest, PublicPqLookupRoutesThroughActiveBackend) {
  const size_t m = 8, ksub = 16, n = 5;
  Rng rng(0xF00);
  std::vector<float> table(m * ksub);
  FillRandom(table.data(), table.size(), 1.0, &rng);
  std::vector<uint16_t> codes(n * m);
  for (auto& c : codes) {
    c = static_cast<uint16_t>(rng.UniformInt(static_cast<int>(ksub)));
  }
  std::vector<float> via_api(n), via_backend(n);
  PqLookupBatch(table.data(), codes.data(), m, ksub, n, 1.0f,
                via_api.data());
  kernels::Active().pq_lookup_batch(table.data(), codes.data(), m, ksub, n,
                                    1.0f, via_backend.data());
  EXPECT_EQ(via_api, via_backend);
}

}  // namespace
}  // namespace vdt
