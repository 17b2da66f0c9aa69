#include "gp/gp.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <limits>
#include <numbers>

#include "common/random.h"

namespace vdt {

namespace {
/// Observation noise floor added to the kernel diagonal.
constexpr double kNoiseVariance = 1e-6;
/// Random-search candidates, then coordinate-refinement sweeps, of the
/// hyperparameter search.
constexpr int kHyperCandidates = 24;
constexpr int kRefineSweeps = 2;
/// Bounds of the ARD length scales.
constexpr double kMinLengthScale = 0.05;
constexpr double kMaxLengthScale = 3.0;
}  // namespace

double GpPrediction::stddev() const {
  return std::sqrt(std::max(0.0, variance));
}

KernelParams KernelParams::Uniform(size_t dim, double ls, double signal_var) {
  KernelParams p;
  p.signal_variance = signal_var;
  p.length_scales.assign(dim, ls);
  return p;
}

double Matern52(const std::vector<double>& x, const std::vector<double>& y,
                const KernelParams& params) {
  assert(x.size() == y.size() && x.size() == params.length_scales.size());
  double acc = 0.0;  // squared ARD-scaled distance
  for (size_t i = 0; i < x.size(); ++i) {
    const double d = (x[i] - y[i]) / params.length_scales[i];
    acc += d * d;
  }
  const double r = std::sqrt(acc);
  const double sqrt5_r = std::sqrt(5.0) * r;
  return params.signal_variance * (1.0 + sqrt5_r + 5.0 * r * r / 3.0) *
         std::exp(-sqrt5_r);
}

Matrix Matern52Gram(const std::vector<std::vector<double>>& points,
                    const KernelParams& params) {
  const size_t n = points.size();
  Matrix k(n, n, 0.0);
  for (size_t i = 0; i < n; ++i) {
    k(i, i) = Matern52(points[i], points[i], params);
    for (size_t j = i + 1; j < n; ++j) {
      const double v = Matern52(points[i], points[j], params);
      k(i, j) = v;
      k(j, i) = v;
    }
  }
  return k;
}

Status GaussianProcess::Fit(const std::vector<std::vector<double>>& x,
                            const std::vector<double>& y) {
  if (x.empty() || x.size() != y.size()) {
    return Status::InvalidArgument("GP fit requires equal non-empty x/y");
  }
  const size_t d = x[0].size();
  if (d == 0) return Status::InvalidArgument("GP inputs must have dim >= 1");
  for (const auto& xi : x) {
    if (xi.size() != d) {
      return Status::InvalidArgument("GP inputs have inconsistent dims");
    }
  }
  for (double yi : y) {
    if (!std::isfinite(yi)) {
      return Status::InvalidArgument("GP targets must be finite");
    }
  }

  train_x_ = x;

  // Standardize targets: zero mean, unit variance (variance floor guards
  // constant targets).
  const size_t n = y.size();
  y_mean_ = 0.0;
  for (double yi : y) y_mean_ += yi;
  y_mean_ /= static_cast<double>(n);
  double var = 0.0;
  for (double yi : y) var += (yi - y_mean_) * (yi - y_mean_);
  var /= static_cast<double>(n);
  y_scale_ = std::sqrt(std::max(var, 1e-12));
  train_y_std_.resize(n);
  for (size_t i = 0; i < n; ++i) train_y_std_[i] = (y[i] - y_mean_) / y_scale_;

  // Start from current params when dims match, else defaults.
  if (params_.length_scales.size() != d) {
    params_ = KernelParams::Uniform(d, 0.5, 1.0);
  }

  if (n >= 3) {
    Rng rng(seed_);
    KernelParams best = params_;
    double best_lml = EvalLml(best);

    // Multi-start random search in log space.
    for (int c = 0; c < kHyperCandidates; ++c) {
      KernelParams cand;
      cand.signal_variance = std::exp(rng.Uniform(std::log(0.1), std::log(4.0)));
      cand.length_scales.resize(d);
      const double lo = std::log(kMinLengthScale);
      const double hi = std::log(kMaxLengthScale);
      for (size_t i = 0; i < d; ++i) {
        cand.length_scales[i] = std::exp(rng.Uniform(lo, hi));
      }
      const double lml = EvalLml(cand);
      if (lml > best_lml) {
        best_lml = lml;
        best = cand;
      }
    }

    // Coordinate refinement: multiplicative steps per hyperparameter.
    const double kSteps[] = {0.5, 0.8, 1.25, 2.0};
    for (int sweep = 0; sweep < kRefineSweeps; ++sweep) {
      for (size_t i = 0; i <= d; ++i) {  // i == d refines signal variance
        for (double step : kSteps) {
          KernelParams cand = best;
          if (i == d) {
            cand.signal_variance =
                std::clamp(cand.signal_variance * step, 1e-3, 1e3);
          } else {
            cand.length_scales[i] = std::clamp(
                cand.length_scales[i] * step, kMinLengthScale, kMaxLengthScale);
          }
          const double lml = EvalLml(cand);
          if (lml > best_lml) {
            best_lml = lml;
            best = cand;
          }
        }
      }
    }
    params_ = best;
  }

  Refit(params_);
  if (!fitted_) {
    return Status::Internal("GP Cholesky failed even with jitter escalation");
  }
  return Status::OK();
}

double GaussianProcess::EvalLml(const KernelParams& params) const {
  const size_t n = train_x_.size();
  Matrix k = Matern52Gram(train_x_, params);
  auto chol = CholeskyFactor(k, kNoiseVariance);
  if (!chol.ok()) return -std::numeric_limits<double>::infinity();
  const std::vector<double> alpha = CholeskySolve(*chol, train_y_std_);
  const double data_fit = -0.5 * Dot(train_y_std_, alpha);
  const double complexity = -0.5 * CholeskyLogDet(*chol);
  const double norm =
      -0.5 * static_cast<double>(n) * std::log(2.0 * std::numbers::pi);
  return data_fit + complexity + norm;
}

void GaussianProcess::Refit(const KernelParams& params) {
  fitted_ = false;
  Matrix k = Matern52Gram(train_x_, params);
  // Escalate jitter until the factorization succeeds; observation noise acts
  // as the base jitter.
  double jitter = kNoiseVariance;
  for (int attempt = 0; attempt < 8; ++attempt) {
    auto chol = CholeskyFactor(k, jitter);
    if (chol.ok()) {
      chol_ = std::move(*chol);
      alpha_ = CholeskySolve(chol_, train_y_std_);
      fitted_ = true;
      return;
    }
    jitter = std::max(jitter * 10.0, 1e-10);
  }
}

GpPrediction GaussianProcess::Predict(const std::vector<double>& x) const {
  GpPrediction out;
  if (!fitted_) return out;
  std::vector<double> kstar(train_x_.size());
  for (size_t i = 0; i < train_x_.size(); ++i) {
    kstar[i] = Matern52(x, train_x_[i], params_);
  }
  const double mean_std = Dot(kstar, alpha_);
  const std::vector<double> v = ForwardSolve(chol_, kstar);
  const double kxx = Matern52(x, x, params_);
  const double var_std = std::max(0.0, kxx - Dot(v, v));
  out.mean = mean_std * y_scale_ + y_mean_;
  out.variance = var_std * y_scale_ * y_scale_;
  return out;
}

MultiOutputGp::MultiOutputGp(size_t num_outputs, uint64_t seed) {
  gps_.reserve(num_outputs);
  for (size_t k = 0; k < num_outputs; ++k) {
    gps_.emplace_back(seed + k * 101);  // decorrelate hyperparameter searches
  }
}

Status MultiOutputGp::Fit(const std::vector<std::vector<double>>& x,
                          const std::vector<std::vector<double>>& y) {
  if (y.size() != gps_.size()) {
    return Status::InvalidArgument("target count != output count");
  }
  for (size_t k = 0; k < gps_.size(); ++k) {
    VDT_RETURN_IF_ERROR(gps_[k].Fit(x, y[k]));
  }
  return Status::OK();
}

std::vector<GpPrediction> MultiOutputGp::Predict(
    const std::vector<double>& x) const {
  std::vector<GpPrediction> out(gps_.size());
  for (size_t k = 0; k < gps_.size(); ++k) out[k] = gps_[k].Predict(x);
  return out;
}

}  // namespace vdt
