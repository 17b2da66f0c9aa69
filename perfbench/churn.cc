// churn: writes beside reads on a durable collection, the lifecycle the
// storage layer exists for. A writer connection runs a fixed seeded
// schedule (200-row Insert frames, sliding-window Deletes of the oldest
// live ids holding 100,000 rows live, a checkpoint every fixed number of
// frames) while a reader connection runs closed-loop single-query Searches.
// The run ends with a clean restart and an untimed verification batch.
//
// This is the only workload where storage does work (WAL, segment files,
// manifest, recovery); the wire carries 80 KB frames, and compaction
// rebuilds and reads queued behind writes dominate.
#include <algorithm>
#include <filesystem>
#include <thread>

#include "storage/collection_store.h"
#include "workload/datasets.h"
#include "workload/workload.h"
#include "workloads.h"

namespace perfbench {

using vdt::FloatMatrix;
using vdt::SearchRequest;
using vdt::net::SearchReplyWire;

namespace {

constexpr const char* kName = "churn";
constexpr size_t kFrameRows = 200;        // 200 x 100 floats = 80 KB frames
constexpr size_t kCheckpointEvery = 50;   // insert frames per checkpoint
constexpr size_t kReaderQueries = 500;
constexpr size_t kVerifyQueries = 500;
constexpr int kSetups = 3;
constexpr int kRecoveries = 3;
/// Frames of the schedule replayed three ways in a traced run.
constexpr size_t kLayerFrames = 200;
constexpr vdt::WalSyncPolicy kWalPolicy = vdt::WalSyncPolicy::kEveryRecord;

/// The vector of collection id `id`: the bulk rows for the first 100,000
/// ids, then a small deterministic perturbation of a bulk row, so every
/// inserted vector is distinct and in-distribution.
void RowFor(const FloatMatrix& bulk, uint64_t seed, int64_t id, float* out) {
  const size_t dim = bulk.dim();
  const float* base = bulk.Row(static_cast<size_t>(id) % bulk.rows());
  if (static_cast<size_t>(id) < bulk.rows()) {
    std::copy(base, base + dim, out);
    return;
  }
  uint64_t x = seed * 0x9E3779B97F4A7C15ULL + static_cast<uint64_t>(id);
  for (size_t d = 0; d < dim; ++d) {
    x += 0x9E3779B97F4A7C15ULL;  // SplitMix64
    uint64_t z = x;
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
    z ^= z >> 31;
    const float u = static_cast<float>(z >> 40) / static_cast<float>(1 << 24);
    out[d] = base[d] + 0.02f * (u - 0.5f);
  }
  vdt::NormalizeVector(out, dim);
}

FloatMatrix Rows(const FloatMatrix& bulk, uint64_t seed, int64_t first,
                 size_t count) {
  FloatMatrix rows(count, bulk.dim());
  for (size_t r = 0; r < count; ++r) {
    RowFor(bulk, seed, first + static_cast<int64_t>(r), rows.Row(r));
  }
  return rows;
}

std::vector<int64_t> IdRange(int64_t first, size_t count) {
  std::vector<int64_t> ids(count);
  for (size_t i = 0; i < count; ++i) ids[i] = first + static_cast<int64_t>(i);
  return ids;
}

vdt::VdmsEngineOptions EngineOptions(const std::string& dir) {
  vdt::VdmsEngineOptions options;
  options.data_dir = dir;
  options.wal_sync = kWalPolicy;
  return options;
}

/// Where the schedule stands: live ids are exactly [oldest, next).
struct Cursor {
  int64_t next = static_cast<int64_t>(kServeRows);
  int64_t oldest = 0;
};

/// The writer's view of one timed phase.
struct WriterResult {
  std::vector<double> write_us;  // Insert and Delete frames
  std::vector<double> done_s;    // their completion, seconds past the start
  std::vector<double> checkpoint_us;
  /// Checkpoint-cycle edges (seconds past the start) and the process CPU
  /// seconds at each: the windows the phase is summarized over.
  std::vector<double> edges = {0.0}, edge_cpu;
  OpCounts ops;
  double seconds = 0.0;
};

/// The writer connection: Insert frame, Delete frame, and every
/// kCheckpointEvery frames a checkpoint (VdmsEngine::Flush; there is no
/// wire op for it). Stops after a whole Insert+Delete pair once `stop` is
/// set or `max_frames` pairs ran (0 = no limit), so exactly 100,000 rows
/// stay live.
WriterResult RunWriter(Stack& stack, const FloatMatrix& bulk, uint64_t seed,
                       Cursor* cursor, const std::atomic<bool>& stop,
                       size_t max_frames, std::atomic<int64_t>* id_floor,
                       std::atomic<int64_t>* id_ceiling, Tracer* tracer) {
  WriterResult result;
  vdt::net::VdtClient client;
  if (vdt::Status st = client.Connect("127.0.0.1", stack.server->port());
      !st.ok()) {
    result.ops.Record(st);
    return result;
  }
  const auto start = Clock::now();
  result.edge_cpu.push_back(CpuSeconds());
  size_t frames = 0;
  while (!stop.load(std::memory_order_relaxed) &&
         (max_frames == 0 || frames < max_frames)) {
    const FloatMatrix frame = Rows(bulk, seed, cursor->next, kFrameRows);
    id_ceiling->store(cursor->next + static_cast<int64_t>(kFrameRows));
    auto t0 = Clock::now();
    vdt::Result<uint64_t> total = [&] {
      ScopedSpan span(tracer, "net.client_insert", -1, frames);
      return client.Insert(kName, frame);
    }();
    auto t1 = Clock::now();
    if (!total.ok()) {
      result.ops.Record(total.status());
      break;  // the schedule cannot continue past a lost frame
    }
    cursor->next += static_cast<int64_t>(kFrameRows);
    if (*total != static_cast<uint64_t>(cursor->next)) {
      result.ops.RecordWrong();
      break;
    }
    result.ops.Record(vdt::Status::OK());
    result.write_us.push_back(MicrosBetween(t0, t1));
    result.done_s.push_back(SecondsBetween(start, t1));

    const std::vector<int64_t> ids = IdRange(cursor->oldest, kFrameRows);
    t0 = Clock::now();
    vdt::Result<uint64_t> deleted = [&] {
      ScopedSpan span(tracer, "net.client_delete", -1, frames);
      return client.Delete(kName, ids);
    }();
    t1 = Clock::now();
    if (!deleted.ok()) {
      result.ops.Record(deleted.status());
      break;
    }
    if (*deleted != kFrameRows) {
      result.ops.RecordWrong();
      break;
    }
    cursor->oldest += static_cast<int64_t>(kFrameRows);
    id_floor->store(cursor->oldest);
    result.ops.Record(vdt::Status::OK());
    result.write_us.push_back(MicrosBetween(t0, t1));
    result.done_s.push_back(SecondsBetween(start, t1));

    if (++frames % kCheckpointEvery == 0) {
      t0 = Clock::now();
      vdt::Status st = [&] {
        ScopedSpan span(tracer, "storage.checkpoint", -1, frames);
        return stack.engine->Flush(kName);
      }();
      if (!st.ok()) {
        result.ops.Record(st);
        break;
      }
      const auto t1 = Clock::now();
      result.checkpoint_us.push_back(MicrosBetween(t0, t1));
      result.edges.push_back(SecondsBetween(start, t1));
      result.edge_cpu.push_back(CpuSeconds());
    }
  }
  result.seconds = SecondsBetween(start, Clock::now());
  if (result.edges.size() < 2) {  // no whole cycle: one window for all
    result.edges.push_back(result.seconds);
    result.edge_cpu.push_back(CpuSeconds());
  }
  return result;
}

/// One timed phase: the writer plus the concurrent reader. Throughput,
/// median latency and CPU are medians over whole checkpoint cycles (every
/// cycle runs the same mix: 50 frame pairs, their compactions, one
/// checkpoint); the write tail is the p99 of every write, which lands among
/// the compacting Deletes.
struct Phase {
  WriterResult writer;
  LoopResult reader;
  double steal_pct = 0.0;
  WindowedStats cycles;
  LatencySummary writes, reads;
};

Phase Drive(Stack& stack, const FloatMatrix& bulk, const FloatMatrix& queries,
            uint64_t seed, double seconds, Cursor* cursor, Tracer* tracer) {
  std::atomic<bool> stop{false}, reader_stop{false};
  std::atomic<int64_t> id_floor{cursor->oldest};
  std::atomic<int64_t> id_ceiling{cursor->next};
  Phase phase;
  const CpuStat stat_before = ReadCpuStat();
  std::thread reader([&] {
    phase.reader = SearchLoop(stack.server->port(), kName, queries, 0,
                              Clock::now(), reader_stop, &id_floor,
                              &id_ceiling, tracer);
  });
  std::thread writer([&] {
    phase.writer = RunWriter(stack, bulk, seed, cursor, stop, 0, &id_floor,
                             &id_ceiling, tracer);
  });
  std::this_thread::sleep_for(std::chrono::duration<double>(seconds));
  stop.store(true);
  writer.join();
  reader_stop.store(true);
  reader.join();
  phase.steal_pct = StealPct(stat_before, ReadCpuStat());
  std::vector<std::pair<double, double>> samples;
  for (size_t i = 0; i < phase.writer.write_us.size(); ++i) {
    samples.push_back({phase.writer.done_s[i], phase.writer.write_us[i]});
  }
  phase.cycles = Windowed(phase.writer.edges, phase.writer.edge_cpu, samples);
  phase.writes = Summarize(phase.writer.write_us);
  phase.reads = Summarize(phase.reader.latency_us);
  return phase;
}

/// Wire replies to every verification query, plus the wire Stats.
struct Snapshot {
  std::vector<SearchReplyWire> replies;
  vdt::net::StatsReplyWire stats;
};

vdt::Status Capture(uint16_t port, const FloatMatrix& queries, Snapshot* out) {
  vdt::net::VdtClient client;
  VDT_RETURN_IF_ERROR(client.Connect("127.0.0.1", port));
  for (size_t q = 0; q < queries.rows(); ++q) {
    auto reply = client.Search(
        kName, SearchRequest::Single(queries.Row(q), queries.dim(), kServeK));
    if (!reply.ok()) return reply.status();
    out->replies.push_back(std::move(*reply));
  }
  auto stats = client.Stats(kName);
  if (!stats.ok()) return stats.status();
  out->stats = *stats;
  return vdt::Status::OK();
}

/// A new engine on the data dir: Open, server start, first wire Search.
vdt::Result<double> Recover(const std::string& dir, const FloatMatrix& queries,
                            Stack* stack) {
  const auto start = Clock::now();
  stack->dir = dir;
  stack->engine = std::make_unique<vdt::VdmsEngine>(EngineOptions(dir));
  VDT_RETURN_IF_ERROR(stack->engine->Open());
  auto server = StartServer(stack->engine.get());
  if (!server.ok()) return server.status();
  stack->server = std::move(*server);
  vdt::net::VdtClient client;
  VDT_RETURN_IF_ERROR(client.Connect("127.0.0.1", stack->server->port()));
  auto reply = client.Search(
      kName, SearchRequest::Single(queries.Row(0), queries.dim(), kServeK));
  if (!reply.ok()) return reply.status();
  return SecondsBetween(start, Clock::now());
}

/// Per-layer boundary runs: the first kLayerFrames frames of the schedule,
/// in-process, on a durable or an in-memory collection.
struct InProcessRun {
  std::vector<double> insert_us, delete_us, flush_us, compact_us, read_us;
  size_t compactions = 0;
  size_t deletes = 0;
  uint64_t bytes_written = 0;  // WAL + segment + manifest files
};

vdt::Status RunInProcess(Stack& stack, const FloatMatrix& bulk,
                         const FloatMatrix& queries, uint64_t seed,
                         InProcessRun* out) {
  vdt::VdmsEngine& engine = *stack.engine;
  const std::string files_dir =
      stack.dir.empty() ? std::string() : stack.dir + "/" + kName;
  // Bytes written, from file sizes listed around every checkpoint: each
  // WAL's last size before it is rotated out, every segment file once (a
  // replaced segment is only deleted at the next checkpoint), and the
  // manifest once per checkpoint.
  std::map<std::string, uint64_t> seen;
  uint64_t manifest_bytes = 0;
  auto list = [&] {
    if (files_dir.empty()) return;
    for (const auto& [name, size] : ListFiles(files_dir)) {
      if (name == "MANIFEST") continue;
      uint64_t& known = seen[name];
      known = std::max(known, size);
    }
  };
  list();
  const std::map<std::string, uint64_t> baseline = seen;
  Cursor cursor;
  for (size_t f = 1; f <= kLayerFrames; ++f) {
    const FloatMatrix frame = Rows(bulk, seed, cursor.next, kFrameRows);
    auto t0 = Clock::now();
    VDT_RETURN_IF_ERROR(engine.Insert(kName, frame));
    out->insert_us.push_back(MicrosBetween(t0, Clock::now()));
    cursor.next += static_cast<int64_t>(kFrameRows);

    auto before = engine.GetStats(kName);
    if (!before.ok()) return before.status();
    t0 = Clock::now();
    VDT_RETURN_IF_ERROR(
        engine.Delete(kName, IdRange(cursor.oldest, kFrameRows)));
    const double us = MicrosBetween(t0, Clock::now());
    out->delete_us.push_back(us);
    cursor.oldest += static_cast<int64_t>(kFrameRows);
    ++out->deletes;
    auto after = engine.GetStats(kName);
    if (!after.ok()) return after.status();
    if (after->num_compactions > before->num_compactions) {
      out->compactions += after->num_compactions - before->num_compactions;
      out->compact_us.push_back(us);
    }

    if (f % kCheckpointEvery == 0) {
      list();
      t0 = Clock::now();
      VDT_RETURN_IF_ERROR(engine.Flush(kName));
      out->flush_us.push_back(MicrosBetween(t0, Clock::now()));
      list();
      if (!files_dir.empty()) {
        manifest_bytes += ListFiles(files_dir)["MANIFEST"];
      }
      // Reads on the snapshot each checkpoint published.
      for (size_t q = 0; q < 20; ++q) {
        const SearchRequest request = SearchRequest::Single(
            queries.Row(q), queries.dim(), kServeK);
        t0 = Clock::now();
        auto reply = engine.Search(kName, request);
        if (!reply.ok()) return reply.status();
        out->read_us.push_back(MicrosBetween(t0, Clock::now()));
      }
    }
  }
  out->bytes_written = manifest_bytes;
  for (const auto& [name, size] : seen) {
    const auto it = baseline.find(name);
    out->bytes_written += size - (it == baseline.end() ? 0 : it->second);
  }
  return vdt::Status::OK();
}

/// The same schedule three ways (wire + durable, in-process + durable,
/// in-process + in-memory) and the restart boundaries, differenced.
void LayerRuns(const Args& args, const FloatMatrix& bulk,
               const FloatMatrix& queries, const std::string& final_dir,
               double recover_s, RunResult* result) {
  auto fail = [&](const std::string& what, const vdt::Status& st) {
    result->Fail("layer run " + what + ": " + st.ToString());
  };
  // Restart boundaries on the final data dir.
  std::vector<double> open_us, restore_us;
  for (int i = 0; i < kRecoveries; ++i) {
    auto t0 = Clock::now();
    auto store = vdt::CollectionStore::Open(final_dir + "/" + kName,
                                            kWalPolicy);
    open_us.push_back(MicrosBetween(t0, Clock::now()));
    if (!store.ok()) return fail("store open", store.status());
    t0 = Clock::now();
    auto restored = vdt::Collection::Restore(
        std::shared_ptr<vdt::CollectionStore>(std::move(*store)));
    restore_us.push_back(MicrosBetween(t0, Clock::now()));
    if (!restored.ok()) return fail("restore", restored.status());
  }
  result->Set("storage.open_us", Median(open_us), "us", open_us.size());
  result->Set("vdms.restore_us", Median(restore_us), "us", restore_us.size());

  // An in-memory rebuild of the same live rows, through the same first
  // wire Search that ends recover_s.
  {
    Stack stack;
    auto store = vdt::CollectionStore::Open(final_dir + "/" + kName,
                                            kWalPolicy);
    if (!store.ok()) return fail("store open", store.status());
    auto restored = vdt::Collection::Restore(
        std::shared_ptr<vdt::CollectionStore>(std::move(*store)));
    if (!restored.ok()) return fail("restore", restored.status());
    const auto stats = (*restored)->Stats();
    const int64_t oldest =
        static_cast<int64_t>(stats.total_rows - stats.live_rows);
    const FloatMatrix live = Rows(bulk, args.seed, oldest, stats.live_rows);
    restored->reset();
    const auto t0 = Clock::now();
    stack.engine = std::make_unique<vdt::VdmsEngine>();
    vdt::Status st =
        stack.engine->CreateCollection(ServingCollection(kName, args.seed));
    if (st.ok()) st = stack.engine->Insert(kName, live);
    if (st.ok()) st = stack.engine->Flush(kName);
    if (!st.ok()) return fail("rebuild", st);
    auto server = StartServer(stack.engine.get());
    if (!server.ok()) return fail("rebuild server", server.status());
    stack.server = std::move(*server);
    vdt::net::VdtClient client;
    st = client.Connect("127.0.0.1", stack.server->port());
    if (st.ok()) {
      st = client.Search(kName, SearchRequest::Single(queries.Row(0),
                                                      queries.dim(), kServeK))
               .status();
    }
    if (!st.ok()) return fail("rebuild search", st);
    const double rebuild_s = SecondsBetween(t0, Clock::now());
    result->Set("storage.open_vs_rebuild", recover_s / rebuild_s, "ratio");
  }

  // (1) wire + durable: the writer alone, for kLayerFrames pairs.
  const std::string dir = args.work_dir + "/churn-layer";
  std::vector<double> wire_us;
  {
    Stack stack;
    auto setup = StandUp(kName, bulk, args.seed, EngineOptions(dir), true,
                         nullptr, &stack);
    if (!setup.ok()) return fail("set-up", setup.status());
    Cursor cursor;
    const std::atomic<bool> never{false};
    std::atomic<int64_t> floor{0}, ceiling{0};
    WriterResult writer = RunWriter(stack, bulk, args.seed, &cursor, never,
                                    kLayerFrames, &floor, &ceiling, nullptr);
    if (writer.ops.failed() != 0) {
      return fail("wire schedule", vdt::Status::Internal(
                                       writer.ops.ToString()));
    }
    wire_us = std::move(writer.write_us);
  }
  // (2) in-process + durable, (3) in-process + in-memory.
  InProcessRun durable, memory;
  {
    Stack stack;
    auto setup = StandUp(kName, bulk, args.seed, EngineOptions(dir), false,
                         nullptr, &stack);
    if (!setup.ok()) return fail("set-up", setup.status());
    if (vdt::Status st =
            RunInProcess(stack, bulk, queries, args.seed, &durable);
        !st.ok()) {
      return fail("durable schedule", st);
    }
  }
  std::filesystem::remove_all(dir);
  {
    Stack stack;
    double load_seconds = 0.0;
    auto setup =
        StandUp(kName, bulk, args.seed, {}, false, nullptr, &stack,
                &load_seconds);
    if (!setup.ok()) return fail("set-up", setup.status());
    result->Set("index.build_s", load_seconds, "s");
    if (vdt::Status st =
            RunInProcess(stack, bulk, queries, args.seed, &memory);
        !st.ok()) {
      return fail("in-memory schedule", st);
    }
  }
  std::vector<double> durable_writes = durable.insert_us;
  durable_writes.insert(durable_writes.end(), durable.delete_us.begin(),
                        durable.delete_us.end());
  result->Set("net.write_self_us", Median(wire_us) - Median(durable_writes),
              "us", wire_us.size());
  result->Set("storage.wal_us",
              Median(durable.insert_us) - Median(memory.insert_us), "us",
              durable.insert_us.size());
  result->Set("vdms.insert_us", Median(memory.insert_us), "us",
              memory.insert_us.size());
  result->Set("vdms.compact_us", Median(memory.compact_us), "us",
              memory.compact_us.size());
  result->Set("vdms.compactions_per_delete",
              static_cast<double>(memory.compactions) /
                  static_cast<double>(std::max<size_t>(1, memory.deletes)),
              "ratio", memory.deletes);
  result->Set("index.seal_us", Median(memory.flush_us), "us",
              memory.flush_us.size());
  result->Set("storage.checkpoint_us",
              Median(durable.flush_us) - Median(memory.flush_us), "us",
              durable.flush_us.size());
  const double user_bytes = static_cast<double>(
      kLayerFrames * kFrameRows * kServeDim * sizeof(float));
  result->Set("storage.write_amp",
              static_cast<double>(durable.bytes_written) / user_bytes,
              "ratio");
  result->Set("vdms.read_us", Median(memory.read_us), "us",
              memory.read_us.size());
  result->Info("share.net_of_write_p50",
               FormatNumber((Median(wire_us) - Median(durable_writes)) /
                            Median(wire_us)));
}

}  // namespace

RunResult RunChurn(const Args& args) {
  RunResult result;
  result.Info("shape",
              "100000 live x 100-d glove-profile, IVF_FLAT nlist=128 nprobe=6, "
              "angular, 2 shards, durable; 200-row frames, checkpoint every "
              "50 frames; 1 writer + 1 reader connection, 2 server workers");
  result.Info("wal_policy", "kEveryRecord");
  // Inputs from the seed: the bulk rows (the schedule's rows derive from
  // them per id) and the reader / verification queries.
  const FloatMatrix bulk = vdt::GenerateDataset(
      vdt::DatasetProfile::kGlove, kServeRows, kServeDim, args.seed);
  const FloatMatrix queries = vdt::GenerateQueries(
      vdt::DatasetProfile::kGlove, kReaderQueries, kServeDim, args.seed);
  FloatMatrix verify(kVerifyQueries, kServeDim);
  std::copy(queries.Row(0), queries.Row(0) + kVerifyQueries * kServeDim,
            verify.Row(0));
  const double rss_inputs = RssMb();
  result.Info("data_dir_fs", FsType(args.work_dir));

  Tracer tracer;
  Stack stack;
  std::vector<double> setups;
  double setup_untraced = 0.0, setup_traced = 0.0;
  const int setup_count = args.trace ? 2 : kSetups;
  std::string dir;
  for (int i = 0; i < setup_count; ++i) {
    const std::string previous = stack.dir;
    stack.Reset();
    if (!previous.empty()) std::filesystem::remove_all(previous);
    dir = args.work_dir + "/churn-data-" + std::to_string(i);
    const bool traced = args.trace && i == setup_count - 1;
    auto seconds = StandUp(kName, bulk, args.seed, EngineOptions(dir), true,
                           traced ? &tracer : nullptr, &stack);
    if (!seconds.ok()) {
      result.Fail("set-up: " + seconds.status().ToString());
      return result;
    }
    setups.push_back(*seconds);
    (traced ? setup_traced : setup_untraced) = *seconds;
  }

  Cursor cursor;
  Phase phase, traced_phase;
  phase = Drive(stack, bulk, queries, args.seed,
                args.trace ? args.seconds / 2 : args.seconds, &cursor, nullptr);
  if (args.trace) {
    stack.server.reset();  // fresh Stats for the traced half
    auto server = StartServer(stack.engine.get());
    if (!server.ok()) {
      result.Fail("server restart: " + server.status().ToString());
      return result;
    }
    stack.server = std::move(*server);
    traced_phase = Drive(stack, bulk, queries, args.seed, args.seconds / 2,
                         &cursor, &tracer);
  }
  const double rss_mb = PeakRssMb() - rss_inputs;
  result.steal_pct = phase.steal_pct;
  for (const Phase* p : {&phase, &traced_phase}) {
    result.ops.Add(p->writer.ops);
    result.ops.Add(p->reader.ops);
  }
  if (result.ops.failed() != 0) {
    result.Fail("timed phase had failed ops: " + result.ops.ToString());
  }

  // Final checkpoint, then the pre-restart picture over the wire.
  Snapshot before, after;
  if (vdt::Status st = stack.engine->Flush(kName); !st.ok()) {
    result.Fail("final checkpoint: " + st.ToString());
    return result;
  }
  const size_t live = static_cast<size_t>(cursor.next - cursor.oldest);
  const double space_amp =
      static_cast<double>(DirBytes(dir + "/" + kName)) /
      static_cast<double>(live * kServeDim * sizeof(float));
  vdt::net::StatsReplyWire schedule_stats;
  if (args.trace) {
    vdt::net::VdtClient client;
    vdt::Status st = client.Connect("127.0.0.1", stack.server->port());
    auto stats = st.ok() ? client.Stats(kName)
                         : vdt::Result<vdt::net::StatsReplyWire>(st);
    if (!stats.ok()) {
      result.Fail("stats: " + stats.status().ToString());
    } else {
      schedule_stats = *stats;
    }
  }
  if (vdt::Status st = Capture(stack.server->port(), verify, &before);
      !st.ok()) {
    result.Fail("pre-restart verification: " + st.ToString());
    return result;
  }
  if (before.stats.protocol_errors != 0 || before.stats.requests_error != 0) {
    result.Fail("server counted protocol errors or error replies");
  }
  if (before.stats.total_rows != static_cast<uint64_t>(cursor.next) ||
      before.stats.live_rows != live) {
    result.Fail("pre-restart stats disagree with the schedule");
  }
  stack.Reset();  // clean restart

  // Recovery: a new engine on the data dir through the first wire Search.
  std::vector<double> recoveries;
  const int recovery_count = args.trace ? 2 : kRecoveries;
  for (int i = 0; i < recovery_count; ++i) {
    stack.Reset();
    auto seconds = Recover(dir, verify, &stack);
    if (!seconds.ok()) {
      result.Fail("recovery: " + seconds.status().ToString());
      return result;
    }
    recoveries.push_back(*seconds);
  }
  if (vdt::Status st = Capture(stack.server->port(), verify, &after);
      !st.ok()) {
    result.Fail("post-restart verification: " + st.ToString());
    return result;
  }
  if (args.trace) {
    // The read path's layers, on the recovered (mmap-served) collection.
    ReadPathLayers(stack, kName, bulk, verify, traced_phase.reads.p50,
                   &tracer, &result);
  }
  stack.Reset();

  // Gates: stats and replies survive the restart bit for bit; no deleted id
  // surfaces; recall against exact ground truth on the final live set.
  if (after.stats.total_rows != before.stats.total_rows ||
      after.stats.live_rows != before.stats.live_rows) {
    result.Fail("row counts changed across the restart");
  }
  for (size_t q = 0; q < verify.rows(); ++q) {
    if (!SameWire(before.replies[q], after.replies[q])) {
      result.Fail("reply to verification query " + std::to_string(q) +
                  " changed across the restart");
      break;
    }
  }
  for (const SearchReplyWire& reply : after.replies) {
    for (const vdt::Neighbor& n : reply.neighbors.at(0)) {
      if (n.id < cursor.oldest || n.id >= cursor.next) {
        result.Fail("deleted or unknown id " + std::to_string(n.id) +
                    " in a reply after the restart");
        break;
      }
    }
  }
  const FloatMatrix live_rows = Rows(bulk, args.seed, cursor.oldest, live);
  auto truth = vdt::BuildGroundTruth(live_rows, vdt::Metric::kAngular, verify,
                                     kServeK, kThreads);
  for (auto& ids : truth) {
    for (int64_t& id : ids) id += cursor.oldest;
  }
  const double recall = MeanRecall(after.replies, truth);

  const LatencySummary& reads = phase.reads;
  const int64_t frames =
      (cursor.next - static_cast<int64_t>(kServeRows)) /
      static_cast<int64_t>(kFrameRows);
  result.Info("writer_frames", std::to_string(frames));
  result.Info("checkpoints", std::to_string(phase.writer.checkpoint_us.size() +
                                            traced_phase.writer.checkpoint_us
                                                .size()));
  if (!args.trace) {
    result.Set("setup_s", Median(setups), "s", setups.size());
    result.Set("ops_per_s", phase.cycles.ops_per_s, "1/s",
               phase.cycles.samples);
    result.Set("p50_us", phase.cycles.p50, "us", phase.cycles.samples);
    result.Set("tail_us", phase.writes.tail, "us", phase.writes.count);
    result.Set("cpu_us_per_op", phase.cycles.cpu_us_per_op, "us",
               phase.cycles.samples);
    result.Info("cycles", std::to_string(phase.cycles.windows));
    result.Set("rss_mb", rss_mb, "MB");
    result.Set("recall", recall, "ratio", verify.rows());
    result.Info("read_p50_us", FormatNumber(reads.p50) + " (n=" +
                                   std::to_string(reads.count) + ")");
    result.Info("read_tail_us", FormatNumber(reads.tail) + " (n=" +
                                    std::to_string(reads.count) + ")");
    result.Info("recover_s", FormatNumber(Median(recoveries)));
    result.Info("space_amp", FormatNumber(space_amp));
  } else {
    result.Set("read_p50_us", reads.p50, "us", reads.count);
    result.Set("read_tail_us", reads.tail, "us", reads.count);
    result.Set("recover_s", Median(recoveries), "s", recoveries.size());
    result.Set("space_amp", space_amp, "ratio");
    const auto& search =
        schedule_stats.endpoints[static_cast<int>(vdt::net::Op::kSearch) - 1];
    result.Set("net.read_server_p99_us", static_cast<double>(search.p99_us),
               "us", search.count);
    result.Set("net.server_us", static_cast<double>(search.p50_us), "us",
               search.count);
    result.Set("net.coalesced_ratio",
               schedule_stats.requests_ok > 0
                   ? static_cast<double>(schedule_stats.coalesced_requests) /
                         static_cast<double>(schedule_stats.requests_ok)
                   : 0.0,
               "ratio", schedule_stats.requests_ok);
    auto diff = [](double a, double b) { return FormatNumber(b - a); };
    result.Info("overhead.setup_s", diff(setup_untraced, setup_traced));
    result.Info("overhead.ops_per_s", diff(phase.cycles.ops_per_s,
                                           traced_phase.cycles.ops_per_s));
    result.Info("overhead.p50_us",
                diff(phase.cycles.p50, traced_phase.cycles.p50));
    result.Info("overhead.tail_us",
                diff(phase.writes.tail, traced_phase.writes.tail));
    result.Info("overhead.cpu_us_per_op",
                diff(phase.cycles.cpu_us_per_op,
                     traced_phase.cycles.cpu_us_per_op));
    result.Info("overhead.read_p50_us",
                diff(phase.reads.p50, traced_phase.reads.p50));
    LayerRuns(args, bulk, queries, dir, Median(recoveries), &result);
    const std::string trace_path =
        args.work_dir + "/trace-churn-" + std::to_string(args.seed) + ".csv";
    if (tracer.WriteCsv(trace_path)) result.Info("trace", trace_path);
  }
  std::filesystem::remove_all(dir);
  return result;
}

}  // namespace perfbench
