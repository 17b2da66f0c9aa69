// tune: the VDTuner loop in the fig06/fig07 setting (the paper's
// tuning-time claim). The only workload where the gp, mobo and tuner layers
// do work; index builds behind each evaluation dominate a step.
#include <algorithm>
#include <memory>

#include "gp/gp.h"
#include "mobo/ehvi.h"
#include "mobo/pareto.h"
#include "tuner/evaluator.h"
#include "tuner/vdtuner.h"
#include "workload/datasets.h"
#include "workload/replay.h"
#include "workload/workload.h"
#include "workloads.h"

namespace perfbench {

using vdt::FloatMatrix;

namespace {

constexpr size_t kQueries = 16;
constexpr size_t kK = 64;
/// Guided steps per session. VDTuner's successive abandonment can first
/// drop an index type at the 10th guided step (abandon_window = 10), so the
/// first 9 poll a fixed mix of index types: FLAT, IVF_FLAT, IVF_SQ8,
/// IVF_PQ, HNSW, SCANN, AUTOINDEX, FLAT, IVF_FLAT. Which types a longer
/// session keeps is chaotic in the seed, and an HNSW build costs 20x an
/// IVF one, so sessions of a fixed mix are what keeps steps/s steady.
constexpr int kGuidedSteps = 9;
constexpr int kMinSessions = 2;
/// A traced run re-stands every k-th evaluated configuration.
constexpr size_t kStandupEvery = 4;
constexpr size_t kEhviCandidates = 256;

/// Times every Evaluate() it forwards; one "tuner.evaluate" span each when
/// a tracer is set.
class TimingEvaluator : public vdt::Evaluator {
 public:
  explicit TimingEvaluator(vdt::Evaluator* inner) : inner_(inner) {}

  vdt::EvalOutcome Evaluate(const vdt::TuningConfig& config) override {
    ScopedSpan span(tracer_, "tuner.evaluate", parent_, request_);
    const auto start = Clock::now();
    vdt::EvalOutcome outcome = inner_->Evaluate(config);
    evaluate_us_.push_back(MicrosBetween(start, Clock::now()));
    return outcome;
  }

  void Trace(Tracer* tracer, int64_t parent, uint64_t request) {
    tracer_ = tracer;
    parent_ = parent;
    request_ = request;
  }
  std::vector<double>& evaluate_us() { return evaluate_us_; }

 private:
  vdt::Evaluator* inner_;
  Tracer* tracer_ = nullptr;
  int64_t parent_ = -1;
  uint64_t request_ = 0;
  std::vector<double> evaluate_us_;
};

/// One tuning session; the evaluator points at the workload and the tuner
/// at both, so members are declared in dependency order.
struct Session {
  vdt::Workload workload;
  vdt::ParamSpace space;
  std::unique_ptr<vdt::VdmsEvaluator> evaluator;
  std::unique_ptr<TimingEvaluator> timing;  // traced runs only
  std::unique_ptr<vdt::VdTuner> tuner;
};

/// Set-up: ground truth plus VDTuner's initial sampling (one default
/// configuration per index type, Alg. 1 l.1-5).
std::unique_ptr<Session> StandUp(const FloatMatrix& data,
                                 const FloatMatrix& queries, uint64_t seed,
                                 bool timed_evaluator) {
  auto session = std::make_unique<Session>();
  session->workload.profile = vdt::DatasetProfile::kGlove;
  session->workload.queries = queries;
  session->workload.k = kK;
  session->workload.ground_truth = vdt::BuildGroundTruth(
      data, vdt::Metric::kAngular, queries, kK, kThreads);
  vdt::VdmsEvaluatorOptions options;
  options.profile = vdt::DatasetProfile::kGlove;
  options.seed = seed;
  session->evaluator = std::make_unique<vdt::VdmsEvaluator>(
      &data, &session->workload, options);
  vdt::Evaluator* evaluator = session->evaluator.get();
  if (timed_evaluator) {
    session->timing = std::make_unique<TimingEvaluator>(evaluator);
    evaluator = session->timing.get();
  }
  vdt::TunerOptions tuner_options;
  tuner_options.seed = seed;
  session->tuner = std::make_unique<vdt::VdTuner>(&session->space, evaluator,
                                                  tuner_options);
  for (int t = 0; t < vdt::kNumIndexTypes; ++t) session->tuner->Step();
  return session;
}

/// What the guided steps of every session add up to. Throughput and CPU
/// are medians over sessions (each session is one window of the same mix).
struct Totals {
  std::vector<double> step_us;     // wall time of each guided Step()
  std::vector<double> propose_us;  // its recommendation time
  std::vector<double> evaluate_us;  // traced runs: its Evaluate() time
  std::vector<double> session_rate;         // guided steps / s
  std::vector<double> session_cpu_per_step;  // us
  double seconds = 0.0;            // timed (guided) seconds only
  double recall_sum = 0.0;
  size_t recall_count = 0;
  size_t infeasible = 0;
  size_t cache_hits = 0, cache_misses = 0;
  double best_qps_r90 = 0.0;

  double ops_per_s() const { return Median(session_rate); }
  double cpu_us_per_op() const { return Median(session_cpu_per_step); }
};

/// The session's kGuidedSteps model-guided Tuner::Step() calls.
void Drive(Session& session, Tracer* tracer, Totals* totals, OpCounts* ops,
           RunResult* result) {
  const double cpu_before = CpuSeconds();
  const auto start = Clock::now();
  for (int i = 0; i < kGuidedSteps; ++i) {
    const size_t before = session.tuner->history().size();
    const uint64_t request = before + 1;
    ScopedSpan span(tracer, "tuner.step", -1, request);
    if (session.timing) session.timing->Trace(tracer, span.id(), request);
    const auto t0 = Clock::now();
    const vdt::Observation& obs = session.tuner->Step();
    totals->step_us.push_back(MicrosBetween(t0, Clock::now()));
    if (session.tuner->history().size() != before + 1) {
      ops->RecordWrong();
      result->Fail("guided step " + std::to_string(request) +
                   " recorded no observation");
      return;
    }
    ops->Record(vdt::Status::OK());
    totals->propose_us.push_back(obs.recommend_seconds * 1e6);
    if (obs.failed) {
      ++totals->infeasible;
    } else {
      totals->recall_sum += obs.recall;
      ++totals->recall_count;
    }
  }
  const double seconds = SecondsBetween(start, Clock::now());
  totals->seconds += seconds;
  totals->session_rate.push_back(kGuidedSteps / seconds);
  totals->session_cpu_per_step.push_back((CpuSeconds() - cpu_before) * 1e6 /
                                         kGuidedSteps);
  totals->cache_hits += session.evaluator->cache_hits();
  totals->cache_misses += session.evaluator->cache_misses();
  totals->best_qps_r90 =
      std::max(totals->best_qps_r90,
               vdt::BestPrimaryUnderRecallFloor(session.tuner->history(), 0.9));
  if (session.timing) {
    const auto& evaluate = session.timing->evaluate_us();
    totals->evaluate_us.insert(totals->evaluate_us.end(),
                               evaluate.end() - kGuidedSteps, evaluate.end());
  }
}

void LayerRuns(Session& session, const FloatMatrix& data, uint64_t seed,
               const Totals& totals, RunResult* result) {
  const auto& history = session.tuner->history();
  result->Set("tuner.propose_us", Median(totals.propose_us), "us",
              totals.propose_us.size());
  result->Set("tuner.evaluate_us", Median(totals.evaluate_us), "us",
              totals.evaluate_us.size());
  const double lookups =
      static_cast<double>(totals.cache_hits + totals.cache_misses);
  result->Set("tuner.cache_hit_ratio",
              lookups > 0 ? static_cast<double>(totals.cache_hits) / lookups
                          : 0.0,
              "ratio", static_cast<size_t>(lookups));
  result->Set("tuner.infeasible", static_cast<double>(totals.infeasible),
              "count", totals.step_us.size());
  result->Set("tuner.best_qps_r90", totals.best_qps_r90, "1/s");

  // gp: the multi-output surrogate fit on the final history.
  std::vector<std::vector<double>> x;
  std::vector<std::vector<double>> y(2);
  double max_primary = 0.0;
  for (const vdt::Observation& obs : history) {
    x.push_back(obs.x);
    y[0].push_back(obs.primary);
    y[1].push_back(obs.feedback_recall);
    max_primary = std::max(max_primary, obs.primary);
  }
  std::vector<double> fit_us;
  vdt::MultiOutputGp gp(2);
  for (int rep = 0; rep < 3; ++rep) {
    const auto t0 = Clock::now();
    vdt::Status st = gp.Fit(x, y);
    fit_us.push_back(MicrosBetween(t0, Clock::now()));
    if (!st.ok()) {
      result->Fail("gp fit: " + st.ToString());
      return;
    }
  }
  result->Set("gp.fit_us", Median(fit_us), "us", fit_us.size());

  // mobo: EHVI per candidate against the final front (primary scaled by
  // its maximum so both objectives live in [0, 1]).
  std::vector<vdt::Point2> points;
  for (const vdt::Observation& obs : history) {
    points.push_back({obs.primary / max_primary, obs.feedback_recall});
  }
  const std::vector<vdt::Point2> front = vdt::ParetoFront(points);
  vdt::Rng rng(seed);
  std::vector<vdt::BivariateGaussian> beliefs;
  for (size_t c = 0; c < kEhviCandidates; ++c) {
    const auto pred = gp.Predict(session.space.SamplePoint(&rng));
    beliefs.push_back({pred[0].mean / max_primary,
                       pred[0].stddev() / max_primary, pred[1].mean,
                       pred[1].stddev()});
  }
  double sink = 0.0;
  const auto t0 = Clock::now();
  for (const auto& belief : beliefs) {
    sink += vdt::EhviQuadrature(belief, front, {0.0, 0.0},
                                vdt::VdtunerOptions{}.ehvi_nodes);
  }
  result->Set("mobo.ehvi_us",
              MicrosBetween(t0, Clock::now()) /
                  static_cast<double>(beliefs.size()),
              "us", beliefs.size());
  result->Info("mobo.ehvi_sum", FormatNumber(sink));

  // vdms + workload: re-stand every k-th evaluated configuration.
  const vdt::DatasetSpec& spec =
      vdt::GetDatasetSpec(vdt::DatasetProfile::kGlove);
  std::vector<double> standup_us, replay_us;
  for (size_t i = 0; i < history.size(); i += kStandupEvery) {
    const vdt::TuningConfig& config = history[i].config;
    vdt::CollectionOptions options;
    options.name = "tune";
    options.metric = spec.metric;
    options.system = config.system;
    options.index.type = config.index_type;
    options.index.params = config.index;
    options.scale.dataset_mb = spec.standin_mb;
    options.scale.memory_mb = spec.PaperMb();
    options.scale.actual_rows = data.rows();
    options.seed = seed;
    vdt::VdmsEngine engine;
    auto t1 = Clock::now();
    vdt::Status st = engine.CreateCollection(options);
    if (st.ok()) st = engine.Insert("tune", data);
    if (st.ok()) st = engine.Flush("tune");
    if (!st.ok()) continue;  // an infeasible configuration
    standup_us.push_back(MicrosBetween(t1, Clock::now()));
    auto handle = engine.Open("tune");
    if (!handle.ok()) continue;
    t1 = Clock::now();
    vdt::ReplayWorkload(**handle, session.workload, vdt::ReplayOptions{});
    replay_us.push_back(MicrosBetween(t1, Clock::now()));
  }
  result->Set("vdms.standup_us", Median(standup_us), "us", standup_us.size());
  result->Set("workload.replay_us", Median(replay_us), "us",
              replay_us.size());
}

}  // namespace

RunResult RunTune(const Args& args) {
  RunResult result;
  const vdt::DatasetSpec& spec =
      vdt::GetDatasetSpec(vdt::DatasetProfile::kGlove);
  result.Info("shape", "glove stand-in " + std::to_string(spec.default_rows) +
                           " x " + std::to_string(spec.default_dim) +
                           ", 16 queries, k=64; VdTuner defaults over the "
                           "cost-model VdmsEvaluator; sessions of 7 "
                           "initial + " +
                           std::to_string(kGuidedSteps) + " guided steps");
  const FloatMatrix data = vdt::GenerateDataset(
      vdt::DatasetProfile::kGlove, spec.default_rows, spec.default_dim,
      args.seed);
  const FloatMatrix queries = vdt::GenerateQueries(
      vdt::DatasetProfile::kGlove, kQueries, spec.default_dim, args.seed);
  const double rss_inputs = RssMb();

  // Sessions until the guided steps add up to --seconds: each one a fresh
  // evaluator and tuner (seeded from the run seed and the session index)
  // on the same data. A traced run traces its second half of sessions.
  Tracer tracer;
  Totals untraced, traced;
  std::vector<double> setups, setups_traced;
  std::unique_ptr<Session> session;
  const CpuStat stat_before = ReadCpuStat();
  for (int s = 0;; ++s) {
    const double timed = untraced.seconds + traced.seconds;
    if (s >= kMinSessions && timed >= args.seconds) break;
    const bool trace_this = args.trace && timed >= args.seconds / 2;
    session.reset();
    const auto start = Clock::now();
    session = StandUp(data, queries, args.seed * 1000 + s, args.trace);
    (trace_this ? setups_traced : setups)
        .push_back(SecondsBetween(start, Clock::now()));
    Drive(*session, trace_this ? &tracer : nullptr,
          trace_this ? &traced : &untraced, &result.ops, &result);
    if (!result.correct) return result;
  }
  result.steal_pct = StealPct(stat_before, ReadCpuStat());
  const double rss_mb = PeakRssMb() - rss_inputs;
  if (untraced.best_qps_r90 <= 0 && traced.best_qps_r90 <= 0) {
    result.Fail("no configuration reached recall >= 0.9");
  }
  result.Info("sessions", std::to_string(setups.size() + setups_traced.size()));

  const LatencySummary propose = Summarize(untraced.propose_us);
  if (!args.trace) {
    result.Set("setup_s", Median(setups), "s", setups.size());
    result.Set("ops_per_s", untraced.ops_per_s(), "1/s",
               untraced.step_us.size());
    result.Set("p50_us", propose.p50, "us", propose.count);
    result.Set("tail_us", propose.tail, "us", propose.count);
    result.Set("cpu_us_per_op", untraced.cpu_us_per_op(), "us",
               untraced.step_us.size());
    result.Set("rss_mb", rss_mb, "MB");
    result.Set("recall",
               untraced.recall_count > 0
                   ? untraced.recall_sum /
                         static_cast<double>(untraced.recall_count)
                   : 0.0,
               "ratio", untraced.recall_count);
    const LatencySummary steps = Summarize(untraced.step_us);
    result.Info("step_p50_us", FormatNumber(steps.p50));
  } else {
    const LatencySummary traced_propose = Summarize(traced.propose_us);
    auto diff = [](double a, double b) { return FormatNumber(b - a); };
    if (!setups.empty() && !setups_traced.empty()) {
      result.Info("overhead.setup_s",
                  diff(Median(setups), Median(setups_traced)));
    }
    result.Info("overhead.ops_per_s",
                diff(untraced.ops_per_s(), traced.ops_per_s()));
    result.Info("overhead.p50_us", diff(propose.p50, traced_propose.p50));
    result.Info("overhead.cpu_us_per_op",
                diff(untraced.cpu_us_per_op(), traced.cpu_us_per_op()));
    // Evaluate share of a guided step, from the spans of the traced half.
    double step_total = 0.0, self_total = 0.0;
    for (double us : tracer.DurationsUs("tuner.step")) step_total += us;
    for (double us : tracer.SelfTimesUs("tuner.step")) self_total += us;
    if (step_total > 0) {
      result.Info("share.evaluate_of_step",
                  FormatNumber((step_total - self_total) / step_total));
    }
    Totals all = traced;
    all.propose_us.insert(all.propose_us.end(), untraced.propose_us.begin(),
                          untraced.propose_us.end());
    all.evaluate_us.insert(all.evaluate_us.end(),
                           untraced.evaluate_us.begin(),
                           untraced.evaluate_us.end());
    all.infeasible += untraced.infeasible;
    all.cache_hits += untraced.cache_hits;
    all.cache_misses += untraced.cache_misses;
    all.best_qps_r90 = std::max(all.best_qps_r90, untraced.best_qps_r90);
    all.step_us.insert(all.step_us.end(), untraced.step_us.begin(),
                       untraced.step_us.end());
    LayerRuns(*session, data, args.seed, all, &result);
    const std::string trace_path =
        args.work_dir + "/trace-tune-" + std::to_string(args.seed) + ".csv";
    if (tracer.WriteCsv(trace_path)) result.Info("trace", trace_path);
  }
  return result;
}

}  // namespace perfbench
