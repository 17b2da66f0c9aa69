// Shared helpers for the test suite.
#ifndef VDTUNER_TESTS_TEST_UTIL_H_
#define VDTUNER_TESTS_TEST_UTIL_H_

#include <signal.h>
#include <stdlib.h>
#include <sys/resource.h>

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "common/float_matrix.h"
#include "common/random.h"
#include "index/distance.h"
#include "index/kernels/kernels.h"
#include "storage/file_io.h"
#include "vdms/collection.h"

namespace vdt {
namespace testing_util {

/// Random matrix with i.i.d. normal entries (optionally normalized rows).
inline FloatMatrix RandomMatrix(size_t rows, size_t dim, uint64_t seed,
                                bool normalize = true) {
  Rng rng(seed);
  FloatMatrix m(rows, dim);
  for (size_t i = 0; i < rows; ++i) {
    float* row = m.Row(i);
    for (size_t d = 0; d < dim; ++d) {
      row[d] = static_cast<float>(rng.Normal());
    }
    if (normalize) NormalizeVector(row, dim);
  }
  return m;
}

/// Clustered matrix: `clusters` Gaussian blobs on the sphere.
inline FloatMatrix ClusteredMatrix(size_t rows, size_t dim, int clusters,
                                   double spread, uint64_t seed,
                                   bool normalize = true) {
  Rng rng(seed);
  FloatMatrix centers = RandomMatrix(clusters, dim, seed ^ 0xC3, true);
  FloatMatrix m(rows, dim);
  for (size_t i = 0; i < rows; ++i) {
    const float* c = centers.Row(i % clusters);
    float* row = m.Row(i);
    for (size_t d = 0; d < dim; ++d) {
      row[d] = c[d] + static_cast<float>(rng.Normal(0.0, spread));
    }
    if (normalize) NormalizeVector(row, dim);
  }
  return m;
}

/// One query through the collection's one read path: a one-row
/// SearchRequest that must succeed. Adds the response's work to `counters`
/// (may be null) and returns the query's neighbors; a null `query` makes a
/// zero-row request, which returns none.
inline std::vector<Neighbor> SearchOne(const Collection& collection,
                                       const float* query, size_t k,
                                       WorkCounters* counters) {
  const Result<SearchResponse> response =
      collection.Search(SearchRequest::Single(query, collection.dim(), k));
  EXPECT_TRUE(response.ok()) << response.status().ToString();
  if (!response.ok()) return {};
  if (counters != nullptr) counters->Add(response->work);
  return response->neighbors.empty() ? std::vector<Neighbor>{}
                                     : response->neighbors[0];
}

/// Restores the active backend on scope exit, so tests that swap backends
/// never leak state into later tests (or into the other suites when run
/// under a specific VDT_KERNEL).
class BackendGuard {
 public:
  BackendGuard() : saved_(kernels::Active().name) {}
  ~BackendGuard() { kernels::SetActive(saved_); }

 private:
  std::string saved_;
};

/// A scratch directory under /tmp, removed (recursively) on scope exit.
class TempDir {
 public:
  TempDir() {
    char tmpl[] = "/tmp/vdt_test_XXXXXX";
    const char* made = mkdtemp(tmpl);
    EXPECT_NE(made, nullptr) << "mkdtemp failed";
    if (made != nullptr) path_ = made;
  }
  ~TempDir() { (void)RemoveDirRecursive(path_); }
  TempDir(const TempDir&) = delete;
  TempDir& operator=(const TempDir&) = delete;

  const std::string& path() const { return path_; }

 private:
  std::string path_;
};

/// A disk-full stand-in: lowers this process's file-size limit (the
/// RLIMIT_FSIZE soft limit) to `max_bytes` and ignores SIGXFSZ, so a write
/// that would grow any file past the limit fails with EFBIG ("File too
/// large") instead of killing the process. Restores both on scope exit.
/// Keep the guarded scope free of output: stdout redirected to a file is
/// subject to the limit too.
class FileSizeLimitGuard {
 public:
  explicit FileSizeLimitGuard(rlim_t max_bytes) {
    struct sigaction ignore = {};
    ignore.sa_handler = SIG_IGN;
    sigemptyset(&ignore.sa_mask);
    if (getrlimit(RLIMIT_FSIZE, &saved_limit_) != 0 ||
        sigaction(SIGXFSZ, &ignore, &saved_action_) != 0) {
      return;
    }
    signal_saved_ = true;
    rlimit lowered = saved_limit_;
    lowered.rlim_cur = max_bytes;
    active_ = setrlimit(RLIMIT_FSIZE, &lowered) == 0;
  }
  ~FileSizeLimitGuard() {
    if (active_) setrlimit(RLIMIT_FSIZE, &saved_limit_);
    if (signal_saved_) sigaction(SIGXFSZ, &saved_action_, nullptr);
  }
  FileSizeLimitGuard(const FileSizeLimitGuard&) = delete;
  FileSizeLimitGuard& operator=(const FileSizeLimitGuard&) = delete;

  /// False when the limit could not be lowered (nothing is in effect).
  bool active() const { return active_; }

 private:
  rlimit saved_limit_ = {};
  struct sigaction saved_action_ = {};
  bool signal_saved_ = false;
  bool active_ = false;
};

}  // namespace testing_util
}  // namespace vdt

#endif  // VDTUNER_TESTS_TEST_UTIL_H_
