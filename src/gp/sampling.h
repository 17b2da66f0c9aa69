// Space-filling design over [0,1]^d: Latin hypercube sampling (the Random
// baseline and BO initialization, paper §V-A).
#ifndef VDTUNER_GP_SAMPLING_H_
#define VDTUNER_GP_SAMPLING_H_

#include <cstddef>
#include <vector>

#include "common/random.h"

namespace vdt {

/// Latin hypercube design: n points in [0,1]^d such that each dimension's
/// marginal hits every one of the n strata exactly once.
std::vector<std::vector<double>> LatinHypercube(size_t n, size_t dim, Rng* rng);

}  // namespace vdt

#endif  // VDTUNER_GP_SAMPLING_H_
