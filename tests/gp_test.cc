// Tests for src/gp: the Matern-5/2 kernel, GP regression, Latin hypercube
// sampling.
#include <gtest/gtest.h>

#include <cmath>

#include "common/random.h"
#include "gp/gp.h"
#include "gp/sampling.h"

namespace vdt {
namespace {

TEST(KernelTest, Matern52AtZeroDistanceIsSignalVariance) {
  KernelParams p = KernelParams::Uniform(3, 0.5, 2.0);
  const std::vector<double> x = {0.1, 0.2, 0.3};
  EXPECT_NEAR(Matern52(x, x, p), 2.0, 1e-12);
}

TEST(KernelTest, Matern52DecaysWithDistance) {
  KernelParams p = KernelParams::Uniform(1, 0.5, 1.0);
  double prev = Matern52({0.0}, {0.0}, p);
  for (double d = 0.1; d < 2.0; d += 0.1) {
    const double v = Matern52({0.0}, {d}, p);
    EXPECT_LT(v, prev);
    EXPECT_GT(v, 0.0);
    prev = v;
  }
}

TEST(KernelTest, ArdLengthScalesWeightDimensions) {
  KernelParams p;
  p.signal_variance = 1.0;
  p.length_scales = {0.1, 10.0};  // dim 0 matters, dim 1 barely
  const double v_dim0 = Matern52({0.0, 0.0}, {0.2, 0.0}, p);
  const double v_dim1 = Matern52({0.0, 0.0}, {0.0, 0.2}, p);
  EXPECT_LT(v_dim0, v_dim1);  // same move is "farther" along dim 0
}

TEST(KernelTest, GramIsSymmetricWithUnitDiagonalScale) {
  KernelParams p = KernelParams::Uniform(2, 0.7, 1.5);
  Rng rng(3);
  std::vector<std::vector<double>> pts;
  for (int i = 0; i < 6; ++i) pts.push_back({rng.Uniform(), rng.Uniform()});
  const Matrix g = Matern52Gram(pts, p);
  for (size_t i = 0; i < 6; ++i) {
    EXPECT_NEAR(g(i, i), 1.5, 1e-12);
    for (size_t j = 0; j < 6; ++j) EXPECT_NEAR(g(i, j), g(j, i), 1e-12);
  }
}

TEST(GpTest, RejectsBadInputs) {
  GaussianProcess gp;
  EXPECT_FALSE(gp.Fit({}, {}).ok());
  EXPECT_FALSE(gp.Fit({{0.1}}, {1.0, 2.0}).ok());
  EXPECT_FALSE(gp.Fit({{0.1}, {0.2, 0.3}}, {1.0, 2.0}).ok());
  EXPECT_FALSE(
      gp.Fit({{0.1}}, {std::numeric_limits<double>::quiet_NaN()}).ok());
}

TEST(GpTest, InterpolatesTrainingPoints) {
  GaussianProcess gp;
  std::vector<std::vector<double>> xs = {{0.0}, {0.25}, {0.5}, {0.75}, {1.0}};
  std::vector<double> ys;
  for (const auto& x : xs) ys.push_back(std::sin(6.0 * x[0]));
  ASSERT_TRUE(gp.Fit(xs, ys).ok());
  for (size_t i = 0; i < xs.size(); ++i) {
    const GpPrediction p = gp.Predict(xs[i]);
    EXPECT_NEAR(p.mean, ys[i], 1e-3);
    EXPECT_LT(p.stddev(), 0.05);
  }
}

TEST(GpTest, UncertaintyGrowsAwayFromData) {
  GaussianProcess gp;
  std::vector<std::vector<double>> xs = {{0.4}, {0.45}, {0.5}};
  std::vector<double> ys = {1.0, 1.2, 1.1};
  ASSERT_TRUE(gp.Fit(xs, ys).ok());
  const double var_near = gp.Predict({0.45}).variance;
  const double var_far = gp.Predict({0.0}).variance;
  EXPECT_GT(var_far, var_near);
}

TEST(GpTest, LearnsSmoothFunction) {
  GaussianProcess gp;
  Rng rng(7);
  std::vector<std::vector<double>> xs;
  std::vector<double> ys;
  for (int i = 0; i < 30; ++i) {
    const double x = rng.Uniform();
    xs.push_back({x});
    ys.push_back(x * x);  // smooth target
  }
  ASSERT_TRUE(gp.Fit(xs, ys).ok());
  double max_err = 0.0;
  for (double x = 0.05; x < 1.0; x += 0.05) {
    max_err = std::max(max_err, std::abs(gp.Predict({x}).mean - x * x));
  }
  EXPECT_LT(max_err, 0.08);
}

TEST(GpTest, PredictionInOriginalUnits) {
  // Targets with large offset/scale: standardization must round-trip.
  GaussianProcess gp;
  std::vector<std::vector<double>> xs = {{0.1}, {0.5}, {0.9}};
  std::vector<double> ys = {1000.0, 1500.0, 2000.0};
  ASSERT_TRUE(gp.Fit(xs, ys).ok());
  EXPECT_NEAR(gp.Predict({0.5}).mean, 1500.0, 60.0);
}

TEST(GpTest, ConstantTargetsHandled) {
  GaussianProcess gp;
  std::vector<std::vector<double>> xs = {{0.1}, {0.5}, {0.9}};
  std::vector<double> ys = {3.0, 3.0, 3.0};
  ASSERT_TRUE(gp.Fit(xs, ys).ok());
  EXPECT_NEAR(gp.Predict({0.3}).mean, 3.0, 1e-3);
}

TEST(GpTest, DeterministicAcrossRuns) {
  auto run = [] {
    GaussianProcess gp;
    Rng rng(19);
    std::vector<std::vector<double>> xs;
    std::vector<double> ys;
    for (int i = 0; i < 12; ++i) {
      xs.push_back({rng.Uniform(), rng.Uniform()});
      ys.push_back(rng.Normal());
    }
    gp.Fit(xs, ys);
    return gp.Predict({0.3, 0.7});
  };
  const GpPrediction a = run();
  const GpPrediction b = run();
  EXPECT_DOUBLE_EQ(a.mean, b.mean);
  EXPECT_DOUBLE_EQ(a.variance, b.variance);
}

TEST(MultiOutputGpTest, IndependentOutputs) {
  MultiOutputGp gp(2);
  std::vector<std::vector<double>> xs = {{0.0}, {0.5}, {1.0}};
  std::vector<std::vector<double>> ys = {{0.0, 0.5, 1.0}, {1.0, 0.5, 0.0}};
  ASSERT_TRUE(gp.Fit(xs, ys).ok());
  const auto p = gp.Predict({0.5});
  ASSERT_EQ(p.size(), 2u);
  EXPECT_NEAR(p[0].mean, 0.5, 0.15);
  EXPECT_NEAR(p[1].mean, 0.5, 0.15);
  // Opposite slopes away from center.
  EXPECT_GT(gp.Predict({0.9})[0].mean, gp.Predict({0.1})[0].mean);
  EXPECT_LT(gp.Predict({0.9})[1].mean, gp.Predict({0.1})[1].mean);
}

TEST(MultiOutputGpTest, RejectsWrongOutputCount) {
  MultiOutputGp gp(2);
  EXPECT_FALSE(gp.Fit({{0.1}}, {{1.0}}).ok());
}

TEST(SamplingTest, LatinHypercubeStratifiesEveryDimension) {
  Rng rng(5);
  const size_t n = 16, dim = 4;
  auto pts = LatinHypercube(n, dim, &rng);
  ASSERT_EQ(pts.size(), n);
  for (size_t d = 0; d < dim; ++d) {
    std::vector<bool> stratum(n, false);
    for (const auto& p : pts) {
      ASSERT_GE(p[d], 0.0);
      ASSERT_LT(p[d], 1.0);
      stratum[static_cast<size_t>(p[d] * n)] = true;
    }
    for (size_t s = 0; s < n; ++s) {
      EXPECT_TRUE(stratum[s]) << "dim " << d << " stratum " << s << " empty";
    }
  }
}

// Property sweep: GP fit quality is stable across seeds.
class GpSeedTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(GpSeedTest, FitsLinearFunctionAcrossSeeds) {
  GaussianProcess gp(GetParam());
  Rng rng(GetParam());
  std::vector<std::vector<double>> xs;
  std::vector<double> ys;
  for (int i = 0; i < 20; ++i) {
    const double x0 = rng.Uniform(), x1 = rng.Uniform();
    xs.push_back({x0, x1});
    ys.push_back(2.0 * x0 - x1);
  }
  ASSERT_TRUE(gp.Fit(xs, ys).ok());
  EXPECT_NEAR(gp.Predict({0.5, 0.5}).mean, 0.5, 0.25);
}

INSTANTIATE_TEST_SUITE_P(Seeds, GpSeedTest,
                         ::testing::Values(1, 2, 3, 5, 8, 13, 21, 34));

}  // namespace
}  // namespace vdt
