#include "tuner/ottertune_like.h"

#include <algorithm>

#include "mobo/acquisition.h"

namespace vdt {

OtterTuneLike::OtterTuneLike(const ParamSpace* space, Evaluator* evaluator,
                             TunerOptions options, size_t candidate_pool)
    : Tuner(space, evaluator, options),
      rng_(options.seed ^ 0x077EULL),
      candidate_pool_(candidate_pool) {
  init_design_ = LatinHypercube(
      static_cast<size_t>(std::max(1, options.init_samples)), space->dims(),
      &rng_);
}

double OtterTuneLike::Score(const Observation& obs, double max_primary,
                            double max_recall) const {
  return 0.5 * obs.primary / max_primary +
         0.5 * obs.feedback_recall / max_recall;
}

TuningConfig OtterTuneLike::Propose() {
  if (next_init_ < init_design_.size()) {
    return space_->Decode(init_design_[next_init_++]);
  }

  const auto train = TrainingSet();
  double max_primary = 1e-9, max_recall = 1e-9;
  for (const Observation* o : train) {
    max_primary = std::max(max_primary, o->primary);
    max_recall = std::max(max_recall, o->feedback_recall);
  }

  std::vector<std::vector<double>> xs;
  std::vector<double> ys;
  double best_score = 0.0;
  for (const Observation* o : train) {
    xs.push_back(o->x);
    const double s = Score(*o, max_primary, max_recall);
    ys.push_back(s);
    best_score = std::max(best_score, s);
  }

  GaussianProcess gp(options_.seed + history_.size());
  if (!gp.Fit(xs, ys).ok()) {
    return space_->Decode(space_->SamplePoint(&rng_));
  }

  // Argmax EI over a random candidate pool.
  std::vector<double> best_x = space_->SamplePoint(&rng_);
  double best_ei = -1.0;
  for (size_t c = 0; c < candidate_pool_; ++c) {
    std::vector<double> x = space_->SamplePoint(&rng_);
    const GpPrediction pred = gp.Predict(x);
    const double ei = ExpectedImprovement(pred.mean, pred.stddev(), best_score);
    if (ei > best_ei) {
      best_ei = ei;
      best_x = x;
    }
  }
  return space_->Decode(best_x);
}

}  // namespace vdt
