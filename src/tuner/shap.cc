#include "tuner/shap.h"

#include <memory>

#include "gp/gp.h"

namespace vdt {

std::vector<ShapAttribution> ShapleyAttribution(
    const ParamSpace& space, const MetricFn& metric,
    const std::vector<double>& baseline, const std::vector<double>& target,
    const ShapOptions& options) {
  const size_t d = space.dims();
  std::vector<double> contrib(d, 0.0);
  Rng rng(options.seed);

  std::vector<size_t> order(d);
  for (size_t i = 0; i < d; ++i) order[i] = i;

  for (int p = 0; p < options.num_permutations; ++p) {
    rng.Shuffle(&order);
    std::vector<double> x = baseline;
    double prev = metric(x);
    for (size_t i : order) {
      x[i] = target[i];
      const double cur = metric(x);
      contrib[i] += cur - prev;
      prev = cur;
    }
  }

  std::vector<ShapAttribution> out(d);
  for (size_t i = 0; i < d; ++i) {
    out[i].param_name = space.def(i).name;
    out[i].dim = i;
    out[i].contribution =
        contrib[i] / static_cast<double>(options.num_permutations);
  }
  return out;
}

MetricFn SurrogateMetric(const std::vector<std::vector<double>>& xs,
                         const std::vector<double>& ys, uint64_t seed) {
  auto gp = std::make_shared<GaussianProcess>(seed);
  if (!gp->Fit(xs, ys).ok()) {
    return [](const std::vector<double>&) { return 0.0; };
  }
  return [gp](const std::vector<double>& x) { return gp->Predict(x).mean; };
}

}  // namespace vdt
