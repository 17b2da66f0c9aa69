// Gaussian-process regression: the surrogate model of VDTuner and of the
// BO-based baselines (OtterTune-like, qEHVI). Inputs live in [0,1]^d; targets
// are standardized internally. The covariance is Matern-5/2 with ARD length
// scales (paper §IV-B), whose hyperparameters are fit by maximizing the log
// marginal likelihood with a seeded multi-start random search plus coordinate
// refinement (derivative-free, deterministic).
#ifndef VDTUNER_GP_GP_H_
#define VDTUNER_GP_GP_H_

#include <cstdint>
#include <vector>

#include "common/status.h"
#include "linalg/matrix.h"

namespace vdt {

/// Posterior prediction at one point.
struct GpPrediction {
  double mean = 0.0;
  double variance = 0.0;  // posterior variance (>= 0)

  double stddev() const;
};

/// Kernel hyperparameters: one signal variance plus one length scale per
/// input dimension (automatic relevance determination).
struct KernelParams {
  double signal_variance = 1.0;
  std::vector<double> length_scales;  // size d, all > 0

  /// Uniform length scale `ls` across `dim` dimensions.
  static KernelParams Uniform(size_t dim, double ls = 0.5,
                              double signal_var = 1.0);
};

/// Matern-5/2: k(r) = s * (1 + sqrt(5) r + 5 r^2 / 3) exp(-sqrt(5) r), with
/// r the ARD-scaled Euclidean distance. Twice differentiable — a good middle
/// ground between RBF smoothness and Matern-3/2 roughness (paper §IV-B).
double Matern52(const std::vector<double>& x, const std::vector<double>& y,
                const KernelParams& params);

/// Gram matrix K where K_ij = Matern52(points[i], points[j]).
Matrix Matern52Gram(const std::vector<std::vector<double>>& points,
                    const KernelParams& params);

/// Exact GP regression with the Matern-5/2 kernel. `seed` drives the
/// hyperparameter search.
class GaussianProcess {
 public:
  explicit GaussianProcess(uint64_t seed = 7) : seed_(seed) {}

  /// Fits the model to (x, y). All x must share one dimension d >= 1 and
  /// n >= 1 observations are required. Non-finite targets are rejected.
  Status Fit(const std::vector<std::vector<double>>& x,
             const std::vector<double>& y);

  /// Posterior mean/variance at x (in the original target units).
  /// Requires a successful Fit().
  GpPrediction Predict(const std::vector<double>& x) const;

 private:
  /// LML for given hyperparameters on the standardized targets, or -inf when
  /// the Gram matrix is not SPD.
  double EvalLml(const KernelParams& params) const;
  void Refit(const KernelParams& params);

  uint64_t seed_;

  std::vector<std::vector<double>> train_x_;
  std::vector<double> train_y_std_;  // standardized targets
  double y_mean_ = 0.0;
  double y_scale_ = 1.0;

  KernelParams params_;
  Matrix chol_;                 // lower Cholesky factor of K + noise*I
  std::vector<double> alpha_;   // (K + noise*I)^{-1} y
  bool fitted_ = false;
};

/// Independent multi-output GP: one GaussianProcess per objective (paper
/// §IV-B "multi-output GP by assuming each output to be independent");
/// output k's hyperparameter search is seeded with seed + 101 k.
class MultiOutputGp {
 public:
  explicit MultiOutputGp(size_t num_outputs, uint64_t seed = 7);

  /// Fits output `k` on (x, y_k) for each k; y[k] is the target vector of
  /// output k. All outputs share the same inputs.
  Status Fit(const std::vector<std::vector<double>>& x,
             const std::vector<std::vector<double>>& y);

  /// Predicts all outputs at x.
  std::vector<GpPrediction> Predict(const std::vector<double>& x) const;

 private:
  std::vector<GaussianProcess> gps_;
};

}  // namespace vdt

#endif  // VDTUNER_GP_GP_H_
