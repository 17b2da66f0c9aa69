// Gaussian-process regression: the surrogate model of VDTuner and of the
// BO-based baselines (OtterTune-like, qEHVI). Inputs live in [0,1]^d; targets
// are standardized internally. Hyperparameters are fit by maximizing the log
// marginal likelihood with a seeded multi-start random search plus coordinate
// refinement (derivative-free, deterministic).
#ifndef VDTUNER_GP_GP_H_
#define VDTUNER_GP_GP_H_

#include <memory>
#include <vector>

#include "common/random.h"
#include "common/status.h"
#include "gp/kernel.h"
#include "linalg/matrix.h"

namespace vdt {

/// Posterior prediction at one point.
struct GpPrediction {
  double mean = 0.0;
  double variance = 0.0;  // posterior variance (>= 0)

  double stddev() const;
};

/// Options controlling GP fitting.
struct GpOptions {
  /// Observation noise floor added to the kernel diagonal.
  double noise_variance = 1e-6;
  /// Whether Fit() optimizes hyperparameters (else keeps defaults/current).
  bool optimize_hyperparams = true;
  /// Random-search candidates for hyperparameter optimization.
  int num_hyper_candidates = 24;
  /// Coordinate-refinement sweeps after random search.
  int num_refine_sweeps = 2;
  /// Log-space bounds for ARD length scales.
  double min_length_scale = 0.05;
  double max_length_scale = 3.0;
  /// Seed for the hyperparameter search.
  uint64_t seed = 7;
};

/// Exact GP regression with a pluggable kernel (default Matern-5/2).
class GaussianProcess {
 public:
  explicit GaussianProcess(GpOptions options = {},
                           std::shared_ptr<const Kernel> kernel =
                               std::make_shared<Matern52Kernel>());

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

  GpOptions options_;
  std::shared_ptr<const Kernel> kernel_;

  std::vector<std::vector<double>> train_x_;
  std::vector<double> train_y_std_;  // standardized targets
  double y_mean_ = 0.0;
  double y_scale_ = 1.0;

  KernelParams params_;
  Matrix chol_;                 // lower Cholesky factor of K + noise*I
  std::vector<double> alpha_;   // (K + noise*I)^{-1} y
  bool fitted_ = false;
};

/// Independent multi-output GP: one GaussianProcess per objective, sharing
/// options (paper §IV-B "multi-output GP by assuming each output to be
/// independent").
class MultiOutputGp {
 public:
  MultiOutputGp(size_t num_outputs, GpOptions options = {});

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
