// vdt_server: the standalone serving binary. Stands up a VdmsEngine,
// optionally seeds a demo collection, and serves the vdt wire protocol
// until SIGINT/SIGTERM (then drains gracefully).
//
//   vdt_server [--port=7801] [--workers=4] [--queue-depth=64]
//              [--timeout-ms=0] [--coalesce-max=32] [--coalesce-window-us=0]
//              [--demo-rows=20000] [--demo-dim=64]
//              [--demo-shards=2] [--collection=demo]
//              [--data-dir=] [--wal-sync=0]
//
// --coalesce-max bounds the query count of one coalesced Search batch
// (<= 1 serves batches of one); --coalesce-window-us lets a worker wait that
// long for more batchable requests once its queue runs dry.
//
// --demo-rows=0 starts an empty engine (create collections via the engine
// API in-process; the wire protocol serves existing collections).
//
// --data-dir makes the engine durable: collections persist under that
// directory and are recovered on startup. An unreadable, corrupt, or
// foreign manifest refuses startup with the decoder's typed error rather
// than serving partial data. Demo seeding is skipped when recovery found
// collections (the persisted data is the data). --wal-sync=1 fsyncs the WAL
// on every mutation.
#include <csignal>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>

#include "common/random.h"
#include "index/distance.h"
#include "index/kernels/kernels.h"
#include "net/server.h"
#include "vdms/vdms.h"

namespace {

volatile std::sig_atomic_t g_stop = 0;

void HandleSignal(int) { g_stop = 1; }

int64_t FlagInt(int argc, char** argv, const char* name, int64_t fallback) {
  const std::string prefix = std::string("--") + name + "=";
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], prefix.c_str(), prefix.size()) == 0) {
      return std::atoll(argv[i] + prefix.size());
    }
  }
  return fallback;
}

std::string FlagStr(int argc, char** argv, const char* name,
                    const std::string& fallback) {
  const std::string prefix = std::string("--") + name + "=";
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], prefix.c_str(), prefix.size()) == 0) {
      return std::string(argv[i] + prefix.size());
    }
  }
  return fallback;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace vdt;

  const auto port = static_cast<uint16_t>(FlagInt(argc, argv, "port", 7801));
  net::ServerOptions options;
  options.port = port;
  options.num_workers = static_cast<size_t>(FlagInt(argc, argv, "workers", 4));
  options.queue_depth =
      static_cast<size_t>(FlagInt(argc, argv, "queue-depth", 64));
  options.request_timeout_ms =
      static_cast<int>(FlagInt(argc, argv, "timeout-ms", 0));
  options.coalesce_max =
      static_cast<size_t>(FlagInt(argc, argv, "coalesce-max", 32));
  options.coalesce_window_us =
      static_cast<int>(FlagInt(argc, argv, "coalesce-window-us", 0));

  const int64_t demo_rows = FlagInt(argc, argv, "demo-rows", 20000);
  const int64_t demo_dim = FlagInt(argc, argv, "demo-dim", 64);
  const int64_t demo_shards = FlagInt(argc, argv, "demo-shards", 2);
  const std::string collection = FlagStr(argc, argv, "collection", "demo");

  VdmsEngineOptions engine_options;
  engine_options.data_dir = FlagStr(argc, argv, "data-dir", "");
  engine_options.wal_sync = FlagInt(argc, argv, "wal-sync", 0) != 0
                                ? WalSyncPolicy::kEveryRecord
                                : WalSyncPolicy::kNone;

  std::printf("distance kernels: %s (registered: %s)\n",
              vdt::kernels::Active().name,
              vdt::kernels::RegisteredBackendNames().c_str());

  VdmsEngine engine(engine_options);
  bool recovered = false;
  if (!engine_options.data_dir.empty()) {
    if (Status st = engine.Open(); !st.ok()) {
      // A corrupt or foreign data dir must not be served (or silently
      // re-seeded over); surface the typed error and refuse startup.
      std::fprintf(stderr, "refusing startup, cannot recover data dir %s: %s\n",
                   engine_options.data_dir.c_str(), st.ToString().c_str());
      return 1;
    }
    const std::vector<std::string> names = engine.ListCollections();
    recovered = !names.empty();
    for (const std::string& name : names) {
      auto stats = engine.GetStats(name);
      std::printf("recovered collection '%s': %zu live rows, %zu segments\n",
                  name.c_str(), stats.ok() ? stats->live_rows : 0,
                  stats.ok() ? stats->num_sealed_segments : 0);
    }
  }
  if (demo_rows > 0 && !recovered) {
    CollectionOptions copts;
    copts.name = collection;
    copts.scale.actual_rows = static_cast<size_t>(demo_rows);
    copts.system.num_shards = static_cast<int>(demo_shards);
    copts.index.type = IndexType::kIvfFlat;
    if (Status st = engine.CreateCollection(copts); !st.ok()) {
      std::fprintf(stderr, "create collection: %s\n", st.ToString().c_str());
      return 1;
    }
    Rng rng(17);
    FloatMatrix rows(static_cast<size_t>(demo_rows),
                     static_cast<size_t>(demo_dim));
    for (size_t r = 0; r < rows.rows(); ++r) {
      float* row = rows.Row(r);
      for (size_t d = 0; d < rows.dim(); ++d) {
        row[d] = static_cast<float>(rng.Normal());
      }
      NormalizeVector(row, rows.dim());
    }
    if (Status st = engine.Insert(collection, rows); !st.ok()) {
      std::fprintf(stderr, "seed insert: %s\n", st.ToString().c_str());
      return 1;
    }
    if (Status st = engine.Flush(collection); !st.ok()) {
      std::fprintf(stderr, "seed flush: %s\n", st.ToString().c_str());
      return 1;
    }
    std::printf("seeded collection '%s': %lld rows, dim %lld, %lld shards\n",
                collection.c_str(), static_cast<long long>(demo_rows),
                static_cast<long long>(demo_dim),
                static_cast<long long>(demo_shards));
  }

  net::VdtServer server(&engine, options);
  if (Status st = server.Start(); !st.ok()) {
    std::fprintf(stderr, "start: %s\n", st.ToString().c_str());
    return 1;
  }
  if (options.coalesce_max > 1) {
    std::printf("vdt_server listening on 127.0.0.1:%u (%zu workers, coalesce "
                "<=%zu queries, %dus window)\n",
                server.port(), options.num_workers, options.coalesce_max,
                options.coalesce_window_us);
  } else {
    std::printf("vdt_server listening on 127.0.0.1:%u (%zu workers, coalesce "
                "off)\n",
                server.port(), options.num_workers);
  }
  std::fflush(stdout);

  std::signal(SIGINT, HandleSignal);
  std::signal(SIGTERM, HandleSignal);
  while (!g_stop) {
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
  }
  std::printf("draining...\n");
  server.Stop();
  std::printf("bye\n");
  return 0;
}
