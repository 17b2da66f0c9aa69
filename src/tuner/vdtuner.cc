#include "tuner/vdtuner.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "mobo/acquisition.h"
#include "mobo/ehvi.h"
#include "mobo/hypervolume.h"
#include "mobo/pareto.h"

namespace vdt {
namespace {

constexpr double kEps = 1e-9;

}  // namespace

VdTuner::VdTuner(const ParamSpace* space, Evaluator* evaluator,
                 TunerOptions options, VdtunerOptions vd_options)
    : Tuner(space, evaluator, options),
      vd_(vd_options),
      rng_(options.seed ^ 0x5D7ULL) {
  for (int t = 0; t < kNumIndexTypes; ++t) {
    remaining_.push_back(static_cast<IndexType>(t));
  }
}

Point2 VdTuner::BalancedPoint(const std::vector<Point2>& points) {
  // Eq. 3: among non-dominated points, the one minimizing the gap between
  // its normalized objectives (the "most balanced" tradeoff).
  const std::vector<Point2> front = ParetoFront(points);
  if (front.empty()) return {1.0, 1.0};
  double max0 = kEps, max1 = kEps;
  for (const Point2& p : front) {
    max0 = std::max(max0, p[0]);
    max1 = std::max(max1, p[1]);
  }
  const Point2* best = &front[0];
  double best_gap = std::numeric_limits<double>::max();
  for (const Point2& p : front) {
    const double gap = std::abs(p[0] / max0 - p[1] / max1);
    if (gap < best_gap) {
      best_gap = gap;
      best = &p;
    }
  }
  return *best;
}

std::array<double, kNumIndexTypes> VdTuner::ScoreIndexTypes() {
  std::array<double, kNumIndexTypes> scores;
  scores.fill(std::numeric_limits<double>::quiet_NaN());

  // Global balanced base and reference point (Eq. 5 text).
  std::vector<Point2> all = TrainingPoints();
  if (all.empty()) return scores;
  const Point2 y = BalancedPoint(all);
  const Point2 r = {0.5 * y[0], 0.5 * y[1]};

  // HV of the history with each remaining index type's points excluded.
  std::array<double, kNumIndexTypes> hv_without;
  hv_without.fill(0.0);
  double max_hv_without = -std::numeric_limits<double>::max();
  const auto train = TrainingSet();
  for (IndexType t : remaining_) {
    std::vector<Point2> rest;
    for (const Observation* o : train) {
      if (o->config.index_type != t) {
        rest.push_back({o->primary, o->feedback_recall});
      }
    }
    const double hv = Hypervolume2D(rest, r);
    hv_without[static_cast<int>(t)] = hv;
    max_hv_without = std::max(max_hv_without, hv);
  }
  // Eq. 6: Score(t) = max_t' HV(Y \ Y_t') - HV(Y \ Y_t).
  for (IndexType t : remaining_) {
    scores[static_cast<int>(t)] =
        max_hv_without - hv_without[static_cast<int>(t)];
  }
  return scores;
}

void VdTuner::MaybeAbandon(const std::array<double, kNumIndexTypes>& scores) {
  if (!vd_.use_successive_abandon || remaining_.size() <= 1) return;

  IndexType worst = remaining_[0];
  double worst_score = std::numeric_limits<double>::max();
  for (IndexType t : remaining_) {
    const double s = scores[static_cast<int>(t)];
    if (std::isnan(s)) continue;
    if (s < worst_score) {
      worst_score = s;
      worst = t;
    }
  }

  if (worst == last_worst_) {
    ++worst_streak_;
  } else {
    last_worst_ = worst;
    worst_streak_ = 1;
  }
  if (worst_streak_ >= vd_.abandon_window) {
    remaining_.erase(std::remove(remaining_.begin(), remaining_.end(), worst),
                     remaining_.end());
    worst_streak_ = 0;
  }
}

std::array<VdTuner::Base, kNumIndexTypes> VdTuner::ComputeBases() const {
  std::array<Base, kNumIndexTypes> bases;
  const auto train = TrainingSet();

  // Global fallback for index types with no observations yet.
  double gmax0 = kEps, gmax1 = kEps;
  for (const Observation* o : train) {
    gmax0 = std::max(gmax0, o->primary);
    gmax1 = std::max(gmax1, o->feedback_recall);
  }

  for (int t = 0; t < kNumIndexTypes; ++t) {
    std::vector<Point2> pts;
    for (const Observation* o : train) {
      if (static_cast<int>(o->config.index_type) == t) {
        pts.push_back({o->primary, o->feedback_recall});
      }
    }
    Base b;
    if (pts.empty()) {
      b.primary = std::max(kEps, gmax0);
      b.recall = std::max(kEps, gmax1);
    } else if (!vd_.use_polling_surrogate) {
      // Native-surrogate ablation (Fig. 8b): one global base for everyone,
      // so cross-index performance differences stay in the targets.
      b.primary = gmax0;
      b.recall = gmax1;
    } else if (options_.recall_floor.has_value()) {
      // §IV-F: under a recall constraint the base is the per-index maximum.
      double m0 = kEps, m1 = kEps;
      for (const Point2& p : pts) {
        m0 = std::max(m0, p[0]);
        m1 = std::max(m1, p[1]);
      }
      b.primary = m0;
      b.recall = m1;
    } else {
      const Point2 y = BalancedPoint(pts);
      b.primary = std::max(kEps, y[0]);
      b.recall = std::max(kEps, y[1]);
    }
    bases[t] = b;
  }
  return bases;
}

TuningConfig VdTuner::Propose() {
  // ---- Initial sampling: every index type's default config (Alg. 1 l.1-5).
  if (init_cursor_ < remaining_.size()) {
    return space_->DefaultConfig(remaining_[init_cursor_++]);
  }

  // ---- Score index types and maybe abandon the persistent worst (l.7-14).
  const auto scores = ScoreIndexTypes();
  score_log_.push_back(scores);
  MaybeAbandon(scores);

  // ---- NPI normalization + surrogate fit (l.15-18).
  const auto bases = ComputeBases();
  const auto train = TrainingSet();

  std::vector<std::vector<double>> xs;
  std::vector<std::vector<double>> ys(2);
  std::vector<Point2> norm_points;
  for (const Observation* o : train) {
    const Base& b = bases[static_cast<int>(o->config.index_type)];
    const double n0 = o->primary / b.primary;
    const double n1 = o->feedback_recall / b.recall;
    xs.push_back(o->x);
    ys[0].push_back(n0);
    ys[1].push_back(n1);
    norm_points.push_back({n0, n1});
  }

  // In constraint mode the recall output stays in raw units so the floor is
  // a meaningful threshold.
  const bool constrained = options_.recall_floor.has_value();
  if (constrained) {
    for (size_t i = 0; i < train.size(); ++i) {
      ys[1][i] = train[i]->feedback_recall;
    }
  }
  MultiOutputGp gp(2, options_.seed + history_.size() * 13);
  const bool gp_ok = gp.Fit(xs, ys).ok();

  // ---- Poll the next index type (l.19).
  const IndexType t_poll = remaining_[poll_cursor_ % remaining_.size()];
  ++poll_cursor_;

  if (!gp_ok) {
    std::vector<double> x = space_->SamplePoint(&rng_);
    space_->PinForIndexType(t_poll, &x);
    return space_->Decode(x);
  }

  // ---- Acquisition over the polled type's subspace (l.20-21).
  const std::vector<Point2> front = ParetoFront(norm_points);
  const Point2 ref = {0.5, 0.5};  // r = 0.5 * base in NPI units

  // Best feasible normalized speed (constraint mode's EI incumbent).
  double best_feasible = 0.0;
  if (constrained) {
    for (const Observation* o : train) {
      if (o->feedback_recall >= *options_.recall_floor) {
        const Base& b = bases[static_cast<int>(o->config.index_type)];
        best_feasible = std::max(best_feasible, o->primary / b.primary);
      }
    }
  }

  // Exploitation anchors: the polled type's Pareto-front observations (or
  // its best feasible one in constraint mode). Perturbing around the whole
  // front keeps candidates spread along the tradeoff curve instead of
  // piling onto the speed corner.
  std::vector<const Observation*> anchors;
  {
    std::vector<const Observation*> of_type;
    std::vector<Point2> of_type_pts;
    for (const Observation& h : history_) {
      if (h.config.index_type != t_poll) continue;
      of_type.push_back(&h);
      of_type_pts.push_back({h.primary, h.feedback_recall});
    }
    if (constrained) {
      const Observation* best_ok = nullptr;
      const Observation* most_recall = nullptr;
      for (const Observation* o : of_type) {
        if (o->feedback_recall >= *options_.recall_floor &&
            (best_ok == nullptr || o->primary > best_ok->primary)) {
          best_ok = o;
        }
        if (most_recall == nullptr ||
            o->feedback_recall > most_recall->feedback_recall) {
          most_recall = o;
        }
      }
      if (best_ok != nullptr) anchors.push_back(best_ok);
      if (most_recall != nullptr) anchors.push_back(most_recall);
    } else if (!of_type.empty()) {
      for (size_t i : NonDominatedIndices(of_type_pts)) {
        anchors.push_back(of_type[i]);
      }
    }
    if (anchors.empty() && !history_.empty()) {
      anchors.push_back(&history_.front());
    }
  }

  std::vector<double> best_x;
  double best_acq = -1.0;
  for (size_t c = 0; c < vd_.candidate_pool; ++c) {
    std::vector<double> x;
    if (c % 2 == 1 && !anchors.empty()) {
      const Observation* anchor = anchors[(c / 2) % anchors.size()];
      x = anchor->x;
      for (auto& v : x) {
        v = std::clamp(v + rng_.Normal(0.0, 0.12), 0.0, 1.0);
      }
    } else {
      x = space_->SamplePoint(&rng_);
    }
    space_->PinForIndexType(t_poll, &x);

    const auto pred = gp.Predict(x);
    double acq;
    if (constrained) {
      if (best_feasible <= 0.0) {
        // No feasible incumbent yet: hunt for the constraint region first.
        acq = ProbabilityAbove(pred[1].mean, pred[1].stddev(),
                               *options_.recall_floor);
      } else {
        acq = ConstrainedExpectedImprovement(
            pred[0].mean, pred[0].stddev(), best_feasible, pred[1].mean,
            pred[1].stddev(), *options_.recall_floor);
      }
    } else {
      BivariateGaussian belief{pred[0].mean, pred[0].stddev(), pred[1].mean,
                               pred[1].stddev()};
      acq = EhviQuadrature(belief, front, ref, vd_.ehvi_nodes);
    }
    if (acq > best_acq) {
      best_acq = acq;
      best_x = std::move(x);
    }
  }
  if (best_x.empty()) {
    best_x = space_->SamplePoint(&rng_);
    space_->PinForIndexType(t_poll, &best_x);
  }
  return space_->Decode(best_x);
}

}  // namespace vdt
