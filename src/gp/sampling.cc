#include "gp/sampling.h"

#include <cassert>

namespace vdt {

std::vector<std::vector<double>> LatinHypercube(size_t n, size_t dim,
                                                Rng* rng) {
  assert(rng != nullptr);
  std::vector<std::vector<double>> pts(n, std::vector<double>(dim, 0.0));
  std::vector<size_t> perm(n);
  for (size_t d = 0; d < dim; ++d) {
    for (size_t i = 0; i < n; ++i) perm[i] = i;
    rng->Shuffle(&perm);
    for (size_t i = 0; i < n; ++i) {
      // Jittered stratum center.
      pts[i][d] = (static_cast<double>(perm[i]) + rng->Uniform()) /
                  static_cast<double>(n);
    }
  }
  return pts;
}

}  // namespace vdt
