#include "tuner/qehvi_tuner.h"

#include <algorithm>

#include "mobo/ehvi.h"
#include "mobo/pareto.h"

namespace vdt {

QehviTuner::QehviTuner(const ParamSpace* space, Evaluator* evaluator,
                       TunerOptions options, size_t candidate_pool)
    : Tuner(space, evaluator, options),
      rng_(options.seed ^ 0x9E45ULL),
      candidate_pool_(candidate_pool) {
  init_design_ = LatinHypercube(
      static_cast<size_t>(std::max(1, options.init_samples)), space->dims(),
      &rng_);
}

TuningConfig QehviTuner::Propose() {
  if (next_init_ < init_design_.size()) {
    return space_->Decode(init_design_[next_init_++]);
  }

  const auto train = TrainingSet();
  // Scale both objectives by their observed maxima (BoTorch standardizes
  // objectives similarly); reference point stays 0 per the paper.
  double max_primary = 1e-9, max_recall = 1e-9;
  for (const Observation* o : train) {
    max_primary = std::max(max_primary, o->primary);
    max_recall = std::max(max_recall, o->feedback_recall);
  }

  std::vector<std::vector<double>> xs;
  std::vector<std::vector<double>> ys(2);
  std::vector<Point2> pts;
  for (const Observation* o : train) {
    xs.push_back(o->x);
    const double sp = o->primary / max_primary;
    const double rc = o->feedback_recall / max_recall;
    ys[0].push_back(sp);
    ys[1].push_back(rc);
    pts.push_back({sp, rc});
  }

  MultiOutputGp gp(2, options_.seed + history_.size());
  if (!gp.Fit(xs, ys).ok()) {
    return space_->Decode(space_->SamplePoint(&rng_));
  }

  const std::vector<Point2> front = ParetoFront(pts);
  const Point2 ref = {0.0, 0.0};

  std::vector<double> best_x = space_->SamplePoint(&rng_);
  double best_acq = -1.0;
  for (size_t c = 0; c < candidate_pool_; ++c) {
    std::vector<double> x = space_->SamplePoint(&rng_);
    const auto pred = gp.Predict(x);
    BivariateGaussian belief;
    belief.mean0 = pred[0].mean;
    belief.stddev0 = pred[0].stddev();
    belief.mean1 = pred[1].mean;
    belief.stddev1 = pred[1].stddev();
    const double acq = EhviQuadrature(belief, front, ref, /*nodes=*/12);
    if (acq > best_acq) {
      best_acq = acq;
      best_x = x;
    }
  }
  return space_->Decode(best_x);
}

}  // namespace vdt
