// Microbenchmarks (google-benchmark): index construction time against
// build_threads for every index family the tuner builds per iteration —
// kmeans-backed IVF_FLAT/IVF_SQ8/IVF_PQ/SCANN and graph-backed HNSW. The
// build is the dominant per-iteration cost of the tuning loop (paper §V,
// Table VI), so the thread-scaling measured here is the wall-clock lever
// behind every tuner baseline and fig*/table* target.
//
// Thread counts sweep {1, 2, 4, 8}; 1 builds inline on the calling thread.
// Every index is bit-identical across the sweep (see the VectorIndex::Build
// determinism contract), so this measures pure speedup.
//
// BM_Build_HnswTuneProfile is AUTOINDEX's HNSW profile (M=16, efC=128) on
// 2,560 x 48 glove rows, the first seal of a default-configuration `tune`
// evaluation (perfbench), inline and at width 2, the width `tune` builds
// at.
#include <benchmark/benchmark.h>

#include "index/index.h"
#include "workload/datasets.h"

namespace vdt {
namespace {

constexpr size_t kRows = 6000;
constexpr size_t kDim = 48;

const FloatMatrix& Data() {
  static const FloatMatrix data =
      GenerateDataset(DatasetProfile::kGlove, kRows, kDim, 7);
  return data;
}

IndexParams ParamsWithThreads(int build_threads) {
  IndexParams p;
  p.nlist = 64;
  p.nprobe = 8;
  p.m = 8;
  p.nbits = 8;
  p.hnsw_m = 16;
  p.ef_construction = 96;
  p.ef = 64;
  p.reorder_k = 100;
  p.build_threads = build_threads;
  return p;
}

void BM_Build(benchmark::State& state, IndexType type) {
  const int threads = static_cast<int>(state.range(0));
  for (auto _ : state) {
    auto index =
        CreateIndex(type, Metric::kAngular, ParamsWithThreads(threads), 3);
    benchmark::DoNotOptimize(index->Build(Data()));
  }
  state.SetLabel(std::string(IndexTypeName(type)) + "/threads=" +
                 std::to_string(threads));
}

#define VDT_BUILD_BENCH(name, type)                                        \
  void BM_Build_##name(benchmark::State& state) { BM_Build(state, type); } \
  BENCHMARK(BM_Build_##name)                                               \
      ->Arg(1)                                                             \
      ->Arg(2)                                                             \
      ->Arg(4)                                                             \
      ->Arg(8)                                                             \
      ->Unit(benchmark::kMillisecond)

VDT_BUILD_BENCH(IvfFlat, IndexType::kIvfFlat);
VDT_BUILD_BENCH(IvfSq8, IndexType::kIvfSq8);
VDT_BUILD_BENCH(IvfPq, IndexType::kIvfPq);
VDT_BUILD_BENCH(Hnsw, IndexType::kHnsw);
VDT_BUILD_BENCH(Scann, IndexType::kScann);

#undef VDT_BUILD_BENCH

void BM_Build_HnswTuneProfile(benchmark::State& state) {
  static const FloatMatrix data =
      GenerateDataset(DatasetProfile::kGlove, 2560, kDim, 7);
  const int threads = static_cast<int>(state.range(0));
  IndexParams params;
  params.hnsw_m = 16;
  params.ef_construction = 128;
  params.build_threads = threads;
  for (auto _ : state) {
    auto index = CreateIndex(IndexType::kHnsw, Metric::kAngular, params, 3);
    benchmark::DoNotOptimize(index->Build(data));
  }
  state.SetLabel("HNSW tune profile/threads=" + std::to_string(threads));
}
BENCHMARK(BM_Build_HnswTuneProfile)
    ->Arg(1)
    ->Arg(2)
    ->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace vdt

BENCHMARK_MAIN();
