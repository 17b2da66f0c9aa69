// serve: read-only search over loopback TCP at a fixed client concurrency,
// the paper's objective (QPS and recall). A request's median time splits
// between the IVF scan (about a third), the executor's scatter/gather and
// the server's queueing; storage does no work.
#include <algorithm>
#include <cstring>
#include <filesystem>
#include <thread>

#include "index/kernels/kernels.h"
#include "workload/datasets.h"
#include "workload/workload.h"
#include "workloads.h"

namespace perfbench {

using vdt::FloatMatrix;
using vdt::SearchRequest;
using vdt::net::SearchReplyWire;

namespace {

bool SameNeighbors(const std::vector<vdt::Neighbor>& a,
                   const std::vector<vdt::Neighbor>& b) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    if (a[i].id != b[i].id ||
        std::memcmp(&a[i].distance, &b[i].distance, sizeof(float)) != 0) {
      return false;
    }
  }
  return true;
}

bool SameWork(const vdt::WorkCounters& a, const vdt::WorkCounters& b) {
  return a.full_distance_evals == b.full_distance_evals &&
         a.coarse_distance_evals == b.coarse_distance_evals &&
         a.code_distance_evals == b.code_distance_evals &&
         a.pq_lookup_ops == b.pq_lookup_ops &&
         a.table_build_flops == b.table_build_flops &&
         a.graph_hops == b.graph_hops && a.reorder_evals == b.reorder_evals &&
         a.shard_scatters == b.shard_scatters &&
         a.gather_candidates == b.gather_candidates;
}

}  // namespace

vdt::CollectionOptions ServingCollection(const std::string& name,
                                         uint64_t seed) {
  vdt::CollectionOptions options;
  options.name = name;
  options.metric = vdt::Metric::kAngular;
  options.system.num_shards = 2;
  options.index.type = vdt::IndexType::kIvfFlat;
  options.index.params.nlist = 128;
  options.index.params.nprobe = 6;
  options.scale.actual_rows = kServeRows;
  options.seed = seed;
  return options;
}

vdt::Result<std::unique_ptr<vdt::net::VdtServer>> StartServer(
    vdt::VdmsEngine* engine) {
  vdt::net::ServerOptions options;
  options.num_workers = 2;
  auto server = std::make_unique<vdt::net::VdtServer>(engine, options);
  if (vdt::Status st = server->Start(); !st.ok()) return st;
  return server;
}

vdt::Result<double> StandUp(const std::string& collection,
                            const FloatMatrix& rows, uint64_t seed,
                            const vdt::VdmsEngineOptions& options, bool serve,
                            Tracer* tracer, Stack* stack,
                            double* load_seconds) {
  ScopedSpan setup_span(tracer, "setup");
  if (!options.data_dir.empty()) std::filesystem::remove_all(options.data_dir);
  const auto start = Clock::now();
  stack->dir = options.data_dir;
  stack->engine = std::make_unique<vdt::VdmsEngine>(options);
  VDT_RETURN_IF_ERROR(
      stack->engine->CreateCollection(ServingCollection(collection, seed)));
  const auto load_start = Clock::now();
  {
    ScopedSpan span(tracer, "vdms.load", setup_span.id());
    VDT_RETURN_IF_ERROR(stack->engine->Insert(collection, rows));
  }
  {
    ScopedSpan span(tracer, "vdms.flush", setup_span.id());
    VDT_RETURN_IF_ERROR(stack->engine->Flush(collection));
  }
  if (load_seconds != nullptr) {
    *load_seconds = SecondsBetween(load_start, Clock::now());
  }
  if (serve) {
    ScopedSpan span(tracer, "net.start", setup_span.id());
    auto server = StartServer(stack->engine.get());
    if (!server.ok()) return server.status();
    stack->server = std::move(*server);
  }
  return SecondsBetween(start, Clock::now());
}

bool SameReply(const SearchReplyWire& wire, const vdt::SearchResponse& local) {
  return wire.neighbors.size() == local.neighbors.size() &&
         (wire.neighbors.empty() ||
          SameNeighbors(wire.neighbors[0], local.neighbors[0])) &&
         SameWork(wire.work, local.work);
}

bool SameWire(const SearchReplyWire& a, const SearchReplyWire& b) {
  if (a.neighbors.size() != b.neighbors.size()) return false;
  for (size_t q = 0; q < a.neighbors.size(); ++q) {
    if (!SameNeighbors(a.neighbors[q], b.neighbors[q])) return false;
  }
  return SameWork(a.work, b.work);
}

LoopResult SearchLoop(uint16_t port, const std::string& collection,
                      const FloatMatrix& queries, size_t offset,
                      Clock::time_point origin,
                      const std::atomic<bool>& stop,
                      const std::atomic<int64_t>* id_floor,
                      const std::atomic<int64_t>* id_ceiling, Tracer* tracer) {
  LoopResult result;
  vdt::net::VdtClient client;
  if (vdt::Status st = client.Connect("127.0.0.1", port); !st.ok()) {
    result.ops.Record(st);
    return result;
  }
  result.latency_us.reserve(1 << 16);
  result.done_s.reserve(1 << 16);
  for (size_t i = offset; !stop.load(std::memory_order_relaxed); ++i) {
    const SearchRequest request = SearchRequest::Single(
        queries.Row(i % queries.rows()), queries.dim(), kServeK);
    const int64_t floor = id_floor ? id_floor->load() : 0;
    ScopedSpan span(tracer, "net.client_search", -1, i);
    const auto sent = Clock::now();
    vdt::Result<SearchReplyWire> reply = client.Search(collection, request);
    const auto done = Clock::now();
    if (!reply.ok()) {
      result.ops.Record(reply.status());
      continue;
    }
    if (id_ceiling != nullptr) {
      const int64_t ceiling = id_ceiling->load();
      bool in_range = true;
      for (const vdt::Neighbor& n : reply->neighbors.at(0)) {
        in_range = in_range && n.id >= floor && n.id < ceiling;
      }
      if (!in_range) {
        result.ops.RecordWrong();
        continue;
      }
    }
    result.ops.Record(vdt::Status::OK());
    result.latency_us.push_back(MicrosBetween(sent, done));
    result.done_s.push_back(SecondsBetween(origin, done));
  }
  return result;
}

double MeanRecall(const std::vector<SearchReplyWire>& replies,
                  const std::vector<std::vector<int64_t>>& truth) {
  double sum = 0.0;
  for (size_t q = 0; q < replies.size(); ++q) {
    sum += replies[q].neighbors.empty()
               ? 0.0
               : vdt::RecallAtK(replies[q].neighbors[0], truth[q]);
  }
  return replies.empty() ? 0.0 : sum / static_cast<double>(replies.size());
}

void ReadPathLayers(const Stack& stack, const std::string& collection,
                    const FloatMatrix& data, const FloatMatrix& queries,
                    double client_p50_us, Tracer* tracer, RunResult* result) {
  vdt::net::VdtClient client;
  if (vdt::Status st = client.Connect("127.0.0.1", stack.server->port());
      !st.ok()) {
    result->Fail("layer pass connect: " + st.ToString());
    return;
  }
  auto handle = stack.engine->Open(collection);
  if (!handle.ok()) {
    result->Fail("layer pass open: " + handle.status().ToString());
    return;
  }
  const auto snapshot = (*handle)->Snapshot();
  const size_t shards = snapshot->shards.size();
  std::vector<double> wire_us, engine_us, slowest_us, skew, segment_us,
      ns_per_eval, evals_per_query;
  for (size_t q = 0; q < queries.rows(); ++q) {
    const float* query = queries.Row(q);
    const SearchRequest request =
        SearchRequest::Single(query, queries.dim(), kServeK);
    ScopedSpan root(tracer, "layer.query", -1, q);

    auto t0 = Clock::now();
    vdt::Result<SearchReplyWire> wire = [&] {
      ScopedSpan span(tracer, "net.client_search", root.id(), q);
      return client.Search(collection, request);
    }();
    auto t1 = Clock::now();
    if (!wire.ok()) {
      result->Fail("layer pass wire: " + wire.status().ToString());
      return;
    }
    wire_us.push_back(MicrosBetween(t0, t1));

    t0 = Clock::now();
    vdt::Result<vdt::SearchResponse> local = [&] {
      ScopedSpan span(tracer, "vdms.engine_search", root.id(), q);
      return stack.engine->Search(collection, request);
    }();
    t1 = Clock::now();
    if (!local.ok()) {
      result->Fail("layer pass engine: " + local.status().ToString());
      return;
    }
    engine_us.push_back(MicrosBetween(t0, t1));
    evals_per_query.push_back(
        static_cast<double>(local->work.full_distance_evals +
                            local->work.coarse_distance_evals));

    double slowest = 0.0, sum = 0.0;
    for (size_t s = 0; s < shards; ++s) {
      vdt::WorkCounters counters;
      t0 = Clock::now();
      {
        ScopedSpan span(tracer, "vdms.shard_search", root.id(), q);
        snapshot->shards[s].Search(snapshot->metric, query, kServeK,
                                   &counters, nullptr, &snapshot->params);
      }
      const double us = MicrosBetween(t0, Clock::now());
      slowest = std::max(slowest, us);
      sum += us;
    }
    slowest_us.push_back(slowest);
    skew.push_back(slowest / (sum / static_cast<double>(shards)));

    for (size_t s = 0; s < shards; ++s) {
      vdt::WorkCounters counters;
      ScopedSpan shard_span(tracer, "index.shard_segments", root.id(), q);
      t0 = Clock::now();
      for (const vdt::SegmentView& segment : snapshot->shards[s].sealed) {
        ScopedSpan span(tracer, "index.segment_search", shard_span.id(), q);
        segment.Search(snapshot->metric, query, kServeK, &counters, nullptr,
                       &snapshot->params);
      }
      const double us = MicrosBetween(t0, Clock::now());
      segment_us.push_back(us);
      const double evals = static_cast<double>(
          counters.full_distance_evals + counters.coarse_distance_evals);
      if (evals > 0) ns_per_eval.push_back(us * 1e3 / evals);
    }
  }
  const double engine_p50 = Median(engine_us);
  result->Set("net.self_us", Median(wire_us) - engine_p50, "us",
              wire_us.size());
  result->Set("vdms.search_us", engine_p50, "us", engine_us.size());
  result->Set("vdms.scatter_us", engine_p50 - Median(slowest_us), "us",
              engine_us.size());
  result->Set("vdms.shard_skew", Median(skew), "ratio", skew.size());
  result->Set("index.segment_us", Median(segment_us), "us",
              segment_us.size());
  double evals_sum = 0.0;
  for (double e : evals_per_query) evals_sum += e;
  result->Set("index.evals_per_query",
              evals_sum / static_cast<double>(evals_per_query.size()),
              "count");
  result->Set("index.ns_per_eval", Median(ns_per_eval), "ns",
              ns_per_eval.size());

  // Kernel floor: contiguous rows at dim 100, 2048 rows (800 KB) so the
  // block stays in one core's L2 and the kernels, not memory, set the rate.
  const size_t rows = std::min<size_t>(2048, data.rows());
  result->Set("kernels.gbps",
              KernelGbps(vdt::kernels::Active(), data.Row(0), rows,
                         data.dim(), 5, 0.5),
              "GB/s", 5);
  result->Set("kernels.scalar_gbps",
              KernelGbps(*vdt::kernels::ResolveBackend("scalar"), data.Row(0),
                         rows, data.dim(), 5, 0.5),
              "GB/s", 5);

  // Shares of the client-observed median read latency.
  const auto server_us = result->metrics.find("net.server_us");
  if (server_us != result->metrics.end() && client_p50_us > 0) {
    result->Info("share.server_of_client_p50",
                 FormatNumber(server_us->second.value / client_p50_us));
  }
  if (client_p50_us > 0) {
    result->Info("share.engine_of_client_p50",
                 FormatNumber(engine_p50 / client_p50_us));
    result->Info("share.index_of_client_p50",
                 FormatNumber(Median(segment_us) / client_p50_us));
  }
}

namespace {

constexpr const char* kName = "serve";
/// Queries cycled by the clients and checked in the verification pass.
constexpr size_t kQueries = 500;
constexpr int kSetups = 3;
constexpr double kWarmupSeconds = 0.5;

/// A timed closed-loop phase of both clients, summarized over 1 s windows.
struct Phase {
  WindowedStats stats;
  OpCounts ops;
  double steal_pct = 0.0;
};

constexpr double kWindowSeconds = 1.0;

Phase Drive(uint16_t port, const FloatMatrix& queries, double seconds,
            Tracer* tracer) {
  std::atomic<bool> stop{false};
  std::vector<LoopResult> loops(kClients);
  const CpuStat stat_before = ReadCpuStat();
  const size_t windows =
      std::max<size_t>(1, static_cast<size_t>(seconds / kWindowSeconds + 0.5));
  std::vector<double> bounds = {0.0}, cpu = {CpuSeconds()};
  const auto start = Clock::now();
  {
    std::vector<std::thread> clients;
    for (size_t c = 0; c < kClients; ++c) {
      clients.emplace_back([&, c] {
        loops[c] = SearchLoop(port, kName, queries, c * queries.rows() / 2,
                              start, stop, nullptr, nullptr, tracer);
      });
    }
    for (size_t w = 1; w <= windows; ++w) {
      const double edge = seconds * static_cast<double>(w) /
                          static_cast<double>(windows);
      std::this_thread::sleep_until(
          start + std::chrono::duration_cast<Clock::duration>(
                      std::chrono::duration<double>(edge)));
      cpu.push_back(CpuSeconds());
      bounds.push_back(SecondsBetween(start, Clock::now()));
    }
    stop.store(true);
    for (auto& t : clients) t.join();
  }
  Phase phase;
  phase.steal_pct = StealPct(stat_before, ReadCpuStat());
  std::vector<std::pair<double, double>> samples;
  for (const LoopResult& loop : loops) {
    phase.ops.Add(loop.ops);
    for (size_t i = 0; i < loop.latency_us.size(); ++i) {
      samples.push_back({loop.done_s[i], loop.latency_us[i]});
    }
  }
  phase.stats = Windowed(bounds, cpu, samples);
  return phase;
}

void SetPhaseMetrics(const Phase& phase, RunResult* result) {
  const WindowedStats& w = phase.stats;
  result->Set("ops_per_s", w.ops_per_s, "1/s", w.samples);
  result->Set("p50_us", w.p50, "us", w.samples);
  result->Set("tail_us", w.tail, "us", w.samples);
  result->Set("cpu_us_per_op", w.cpu_us_per_op, "us", w.samples);
  result->Info("windows", std::to_string(w.windows) + " x " +
                              FormatNumber(kWindowSeconds) + " s");
}

void PrintOverhead(const Phase& untraced, const Phase& traced,
                   double setup_untraced, double setup_traced,
                   RunResult* result) {
  auto diff = [](double a, double b) { return FormatNumber(b - a); };
  const WindowedStats& a = untraced.stats;
  const WindowedStats& b = traced.stats;
  result->Info("overhead.setup_s", diff(setup_untraced, setup_traced));
  result->Info("overhead.ops_per_s", diff(a.ops_per_s, b.ops_per_s));
  result->Info("overhead.p50_us", diff(a.p50, b.p50));
  result->Info("overhead.tail_us", diff(a.tail, b.tail));
  result->Info("overhead.cpu_us_per_op",
               diff(a.cpu_us_per_op, b.cpu_us_per_op));
}

}  // namespace

RunResult RunServe(const Args& args) {
  RunResult result;
  result.Info("shape", "100000 x 100-d glove-profile, IVF_FLAT nlist=128 "
                       "nprobe=6, angular, 2 shards, in-memory; 2 closed-loop "
                       "clients, 2 server workers");
  // Inputs: vectors, queries and exact ground truth, all from the seed.
  const FloatMatrix data = vdt::GenerateDataset(
      vdt::DatasetProfile::kGlove, kServeRows, kServeDim, args.seed);
  const FloatMatrix queries = vdt::GenerateQueries(
      vdt::DatasetProfile::kGlove, kQueries, kServeDim, args.seed);
  const auto truth = vdt::BuildGroundTruth(data, vdt::Metric::kAngular,
                                           queries, kServeK, kThreads);
  const double rss_inputs = RssMb();

  // Set-up, several times; the median is setup_s and the last stack serves.
  // A traced run alternates untraced and traced set-ups.
  Tracer tracer;
  Stack stack;
  std::vector<double> setups;
  double setup_untraced = 0.0, setup_traced = 0.0, load_seconds = 0.0;
  const int setup_count = args.trace ? 2 : kSetups;
  for (int i = 0; i < setup_count; ++i) {
    stack.Reset();
    const bool traced = args.trace && i == setup_count - 1;
    auto seconds = StandUp(kName, data, args.seed, {}, true,
                           traced ? &tracer : nullptr, &stack, &load_seconds);
    if (!seconds.ok()) {
      result.Fail("set-up: " + seconds.status().ToString());
      return result;
    }
    setups.push_back(*seconds);
    (traced ? setup_traced : setup_untraced) = *seconds;
  }

  // Warm-up, then the timed phase (a traced run times two halves).
  result.ops =
      Drive(stack.server->port(), queries, kWarmupSeconds, nullptr).ops;
  Phase phase, traced_phase;
  if (!args.trace) {
    phase = Drive(stack.server->port(), queries, args.seconds, nullptr);
  } else {
    phase = Drive(stack.server->port(), queries, args.seconds / 2, nullptr);
    // A fresh server so its Stats cover only the traced half.
    stack.server.reset();
    auto server = StartServer(stack.engine.get());
    if (!server.ok()) {
      result.Fail("restart server: " + server.status().ToString());
      return result;
    }
    stack.server = std::move(*server);
    traced_phase =
        Drive(stack.server->port(), queries, args.seconds / 2, &tracer);
    // The server's own view of the traced half, before anything else runs.
    vdt::net::VdtClient client;
    vdt::Status st = client.Connect("127.0.0.1", stack.server->port());
    auto stats = st.ok() ? client.Stats(kName)
                         : vdt::Result<vdt::net::StatsReplyWire>(st);
    if (!stats.ok()) {
      result.Fail("stats: " + stats.status().ToString());
    } else {
      const auto& search =
          stats->endpoints[static_cast<int>(vdt::net::Op::kSearch) - 1];
      result.Set("net.server_us", static_cast<double>(search.p50_us), "us",
                 search.count);
      result.Set("net.coalesced_ratio",
                 stats->requests_ok > 0
                     ? static_cast<double>(stats->coalesced_requests) /
                           static_cast<double>(stats->requests_ok)
                     : 0.0,
                 "ratio", stats->requests_ok);
    }
  }
  const double rss_mb = PeakRssMb() - rss_inputs;
  result.ops.Add(phase.ops);
  result.ops.Add(traced_phase.ops);
  result.steal_pct = phase.steal_pct;

  // Verification pass (untimed): every wire reply must match the in-process
  // engine bit for bit; recall@10 over the full query set.
  std::vector<SearchReplyWire> replies;
  {
    vdt::net::VdtClient client;
    vdt::Status st = client.Connect("127.0.0.1", stack.server->port());
    for (size_t q = 0; st.ok() && q < queries.rows(); ++q) {
      const SearchRequest request =
          SearchRequest::Single(queries.Row(q), queries.dim(), kServeK);
      auto wire = client.Search(kName, request);
      auto local = stack.engine->Search(kName, request);
      if (!wire.ok() || !local.ok()) {
        st = wire.ok() ? local.status() : wire.status();
        break;
      }
      if (!SameReply(*wire, *local)) {
        result.Fail("wire reply differs from in-process search for query " +
                    std::to_string(q));
        break;
      }
      replies.push_back(std::move(*wire));
    }
    if (!st.ok()) result.Fail("verification: " + st.ToString());
    auto stats = client.Stats(kName);
    if (!stats.ok()) {
      result.Fail("stats: " + stats.status().ToString());
    } else {
      if (stats->protocol_errors != 0 || stats->requests_error != 0) {
        result.Fail("server counted " + std::to_string(stats->protocol_errors) +
                    " protocol errors and " +
                    std::to_string(stats->requests_error) + " error replies");
      }
    }
  }
  if (result.ops.failed() != 0) {
    result.Fail("timed phase had failed ops: " + result.ops.ToString());
  }
  const double recall = MeanRecall(replies, truth);
  if (replies.size() != queries.rows()) {
    result.Fail("verification pass incomplete");
  }

  if (!args.trace) {
    result.Set("setup_s", Median(setups), "s", setups.size());
    SetPhaseMetrics(phase, &result);
    result.Set("rss_mb", rss_mb, "MB");
    result.Set("recall", recall, "ratio", replies.size());
  } else {
    PrintOverhead(phase, traced_phase, setup_untraced, setup_traced, &result);
    result.Set("index.build_s", load_seconds, "s");
    ReadPathLayers(stack, kName, data, queries, traced_phase.stats.p50,
                   &tracer, &result);
    const std::string trace_path =
        args.work_dir + "/trace-serve-" + std::to_string(args.seed) + ".csv";
    if (tracer.WriteCsv(trace_path)) result.Info("trace", trace_path);
  }
  return result;
}

}  // namespace perfbench
