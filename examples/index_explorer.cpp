// Index explorer: compare every ANNS index type on a dataset profile —
// build time, search work, memory, and the speed/recall frontier as the
// search-effort knob sweeps. Useful for understanding why no index wins
// everywhere (paper Fig. 3 / Table V).
//
//   ./examples/index_explorer [profile=glove] [rows=3000]
#include <cstdio>
#include <cstdlib>
#include <string>

#include "common/stopwatch.h"
#include "common/table.h"
#include "index/index.h"
#include "workload/workload.h"

using namespace vdt;

int main(int argc, char** argv) {
  const std::string profile_name = argc > 1 ? argv[1] : "glove";
  const size_t rows = argc > 2 ? std::atoi(argv[2]) : 3000;
  const DatasetSpec* spec = FindDatasetSpec(profile_name);
  if (spec == nullptr) {
    std::printf("unknown profile '%s' (try: glove, keyword-match, "
                "geo-radius, arxiv-titles, deep-image)\n",
                profile_name.c_str());
    return 1;
  }

  const FloatMatrix data =
      GenerateDataset(spec->profile, rows, spec->default_dim, 7);
  const FloatMatrix queries =
      GenerateQueries(spec->profile, 32, spec->default_dim, 7);
  const size_t k = 10;
  const auto truth = BuildGroundTruth(data, spec->metric, queries, k, 2);

  std::printf("profile=%s rows=%zu dim=%zu metric=%s\n\n", spec->name,
              data.rows(), data.dim(), MetricName(spec->metric));

  TablePrinter table({"index", "build (ms)", "memory (KB)", "recall@10",
                      "distance evals/query"});
  for (int t = 0; t < kNumIndexTypes; ++t) {
    const auto type = static_cast<IndexType>(t);
    IndexParams params;  // library defaults
    auto index = CreateIndex(type, spec->metric, params, 3);
    Stopwatch build_timer;
    if (!index->Build(data).ok()) continue;
    const double build_ms = build_timer.ElapsedMillis();

    double recall = 0.0;
    WorkCounters work;
    for (size_t q = 0; q < queries.rows(); ++q) {
      auto hits = index->Search(queries.Row(q), k, &work);
      recall += RecallAtK(hits, truth[q]);
    }
    recall /= queries.rows();
    table.Row()
        .Cell(index->Name())
        .Cell(build_ms, 1)
        .Cell(static_cast<int64_t>(index->MemoryBytes() / 1024))
        .Cell(recall, 3)
        .Cell(static_cast<int64_t>(
            (work.full_distance_evals + work.code_distance_evals) /
            queries.rows()));
  }
  table.Print();

  // Effort sweep for the two most interesting frontiers: IVF_FLAT (nprobe)
  // and HNSW (ef).
  std::printf("\nIVF_FLAT frontier (nlist=64):\n");
  {
    IndexParams params;
    params.nlist = 64;
    auto index = CreateIndex(IndexType::kIvfFlat, spec->metric, params, 3);
    index->Build(data);
    TablePrinter sweep({"nprobe", "recall@10", "scanned/query"});
    for (int nprobe : {1, 2, 4, 8, 16, 32, 64}) {
      params.nprobe = nprobe;
      double recall = 0.0;
      WorkCounters work;
      for (size_t q = 0; q < queries.rows(); ++q) {
        recall += RecallAtK(
            index->SearchFiltered(queries.Row(q), k, nullptr, &work, &params),
            truth[q]);
      }
      sweep.Row()
          .Cell(int64_t{nprobe})
          .Cell(recall / queries.rows(), 3)
          .Cell(static_cast<int64_t>(work.full_distance_evals /
                                     queries.rows()));
    }
    sweep.Print();
  }

  std::printf("\nHNSW frontier (M=16, efConstruction=128):\n");
  {
    IndexParams params;
    auto index = CreateIndex(IndexType::kHnsw, spec->metric, params, 3);
    index->Build(data);
    TablePrinter sweep({"ef", "recall@10", "dists/query"});
    for (int ef : {10, 20, 40, 80, 160, 320}) {
      params.ef = ef;
      double recall = 0.0;
      WorkCounters work;
      for (size_t q = 0; q < queries.rows(); ++q) {
        recall += RecallAtK(
            index->SearchFiltered(queries.Row(q), k, nullptr, &work, &params),
            truth[q]);
      }
      sweep.Row()
          .Cell(int64_t{ef})
          .Cell(recall / queries.rows(), 3)
          .Cell(static_cast<int64_t>(work.full_distance_evals /
                                     queries.rows()));
    }
    sweep.Print();
  }
  return 0;
}
