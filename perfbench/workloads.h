// The three perfbench workloads and the pieces serve and churn share.
#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "common.h"
#include "net/client.h"
#include "net/server.h"
#include "vdms/vdms.h"

namespace perfbench {

/// serve: read-only wire search on an in-memory collection. Not listed in
/// BENCHMARK.json: its closed-loop throughput tracks host CPU steal too
/// closely to gate on a shared host; churn's traced run measures the same
/// read-path layers.
RunResult RunServe(const Args& args);
/// churn: inserts and sliding-window deletes beside wire reads on a durable
/// collection, then a clean restart.
RunResult RunChurn(const Args& args);
/// tune: the VDTuner loop over the cost-model evaluator.
RunResult RunTune(const Args& args);

// --- shared by serve and churn ----------------------------------------------

/// Collection shape of serve and churn: 100,000 GloVe-profile rows of 100-d
/// (about 40 MB of floats: past one core's L2, inside the shared L3).
inline constexpr size_t kServeRows = 100000;
inline constexpr size_t kServeDim = 100;
inline constexpr size_t kServeK = 10;
/// Every workload runs with this executor width, on this many pinned CPUs
/// (see main.cc), and with at most this many client connections, so no more
/// threads compute at once than the CPUs it runs on.
inline constexpr int kThreads = 2;
inline constexpr size_t kClients = 2;

/// IVF_FLAT, angular, 2 shards, default system knobs. nlist = 128 with
/// nprobe = 6 gives recall@10 near 0.96 on this data (nprobe = 16 is exact).
vdt::CollectionOptions ServingCollection(const std::string& name,
                                         uint64_t seed);

/// One stood-up engine (durable when `dir` is set) and, optionally, the
/// server in front of it. The server points into the engine, so it is
/// declared last and destroyed first.
struct Stack {
  std::string dir;
  std::unique_ptr<vdt::VdmsEngine> engine;
  std::unique_ptr<vdt::net::VdtServer> server;

  void Reset() {
    server.reset();
    engine.reset();
  }
};

/// create `collection` (durable when options.data_dir is set; an old dir
/// there is removed first) + Insert(rows) + Flush [+ server start when
/// `serve`]; returns wall seconds. `load_seconds` (may be null) receives the
/// Insert + Flush part: ingest, seals, index builds and, when durable, the
/// checkpoint.
vdt::Result<double> StandUp(const std::string& collection,
                            const vdt::FloatMatrix& rows, uint64_t seed,
                            const vdt::VdmsEngineOptions& options, bool serve,
                            Tracer* tracer, Stack* stack,
                            double* load_seconds = nullptr);

/// The serving front end the benchmark talks to: 2 workers, default
/// coalescing, ephemeral loopback port.
vdt::Result<std::unique_ptr<vdt::net::VdtServer>> StartServer(
    vdt::VdmsEngine* engine);

/// True when the wire reply to one query is byte-identical to the
/// in-process response for it: ids, distance bits and work counters.
bool SameReply(const vdt::net::SearchReplyWire& wire,
               const vdt::SearchResponse& local);
/// True when two wire replies carry identical neighbors and counters.
bool SameWire(const vdt::net::SearchReplyWire& a,
              const vdt::net::SearchReplyWire& b);

/// Latencies and accounting of one closed-loop client.
struct LoopResult {
  std::vector<double> latency_us;  // successful ops only
  std::vector<double> done_s;      // their completion, seconds past origin
  OpCounts ops;
};

/// Closed-loop single-query Search driver: one VdtClient, one request in
/// flight, cycling through `queries` from `offset` until `stop` is set.
/// When `id_floor`/`id_ceiling` are given, every returned id must lie in
/// [floor read before the send, ceiling read after the reply); a reply
/// outside it counts as a wrong result. With a tracer, every request is
/// one "net.client_search" span.
LoopResult SearchLoop(uint16_t port, const std::string& collection,
                      const vdt::FloatMatrix& queries, size_t offset,
                      Clock::time_point origin,
                      const std::atomic<bool>& stop,
                      const std::atomic<int64_t>* id_floor,
                      const std::atomic<int64_t>* id_ceiling, Tracer* tracer);

/// The read path's layers, measured by issuing the same queries at each
/// boundary in turn (VdtClient, VdmsEngine, every ShardView, every sealed
/// SegmentView) against `stack`'s served `collection`, plus the kernel
/// floor on rows of `data`. Adds the net/vdms/index/kernels per-layer
/// metrics and the shares of `client_p50_us` (the timed phase's median
/// read latency) they account for.
void ReadPathLayers(const Stack& stack, const std::string& collection,
                    const vdt::FloatMatrix& data,
                    const vdt::FloatMatrix& queries, double client_p50_us,
                    Tracer* tracer, RunResult* result);

/// Mean recall@k of wire replies against exact ground truth.
double MeanRecall(const std::vector<vdt::net::SearchReplyWire>& replies,
                  const std::vector<std::vector<int64_t>>& truth);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
