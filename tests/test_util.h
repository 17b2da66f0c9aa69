// Shared helpers for the test suite.
#ifndef VDTUNER_TESTS_TEST_UTIL_H_
#define VDTUNER_TESTS_TEST_UTIL_H_

#include <string>

#include "common/float_matrix.h"
#include "common/random.h"
#include "index/distance.h"
#include "index/kernels/kernels.h"

namespace vdt {
namespace testing_util {

/// Random matrix with i.i.d. normal entries (optionally normalized rows).
inline FloatMatrix RandomMatrix(size_t rows, size_t dim, uint64_t seed,
                                bool normalize = true) {
  Rng rng(seed);
  FloatMatrix m(rows, dim);
  for (size_t i = 0; i < rows; ++i) {
    float* row = m.Row(i);
    for (size_t d = 0; d < dim; ++d) {
      row[d] = static_cast<float>(rng.Normal());
    }
    if (normalize) NormalizeVector(row, dim);
  }
  return m;
}

/// Clustered matrix: `clusters` Gaussian blobs on the sphere.
inline FloatMatrix ClusteredMatrix(size_t rows, size_t dim, int clusters,
                                   double spread, uint64_t seed,
                                   bool normalize = true) {
  Rng rng(seed);
  FloatMatrix centers = RandomMatrix(clusters, dim, seed ^ 0xC3, true);
  FloatMatrix m(rows, dim);
  for (size_t i = 0; i < rows; ++i) {
    const float* c = centers.Row(i % clusters);
    float* row = m.Row(i);
    for (size_t d = 0; d < dim; ++d) {
      row[d] = c[d] + static_cast<float>(rng.Normal(0.0, spread));
    }
    if (normalize) NormalizeVector(row, dim);
  }
  return m;
}

/// Restores the active backend on scope exit, so tests that swap backends
/// never leak state into later tests (or into the other suites when run
/// under a specific VDT_KERNEL).
class BackendGuard {
 public:
  BackendGuard() : saved_(kernels::Active().name) {}
  ~BackendGuard() { kernels::SetActive(saved_); }

 private:
  std::string saved_;
};

}  // namespace testing_util
}  // namespace vdt

#endif  // VDTUNER_TESTS_TEST_UTIL_H_
