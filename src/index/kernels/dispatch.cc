// Runtime dispatch: backend registry, CPUID-gated availability, VDT_KERNEL
// env override, and the process-wide active-backend pointer. Resolution
// happens once on first use and is logged; tests may swap the active
// backend afterwards through SetActive() (never concurrently with
// searches).
#include <atomic>
#include <mutex>

#include "common/env.h"
#include "common/logging.h"
#include "index/kernels/kernels.h"

namespace vdt {
namespace kernels {
namespace {

std::atomic<const Backend*> g_active{nullptr};

/// The best available backend: the last vectorized one the CPU supports,
/// scalar otherwise (AvailableBackends() lists scalar first).
const Backend* NativeBackend() {
  const Backend* best = &ScalarBackend();
  for (const Backend* backend : AvailableBackends()) best = backend;
  return best;
}

const Backend* ResolveFromEnv() {
  const std::string want = KernelEnv();
  const Backend* chosen = ResolveBackend(want);
  if (chosen == nullptr) {
    chosen = NativeBackend();
    VDT_LOG(kWarning) << "VDT_KERNEL=" << want
                      << " is unknown or unavailable on this CPU (expected "
                      << RegisteredBackendNames() << "); using "
                      << chosen->name;
  } else {
    VDT_LOG(kInfo) << "distance kernels: backend=" << chosen->name
                   << " (VDT_KERNEL=" << want << ")";
  }
  return chosen;
}

}  // namespace

std::vector<const Backend*> AllBackends() {
  std::vector<const Backend*> backends{&ScalarBackend()};
  if (Avx2Backend() != nullptr) backends.push_back(Avx2Backend());
  if (Avx512Backend() != nullptr) backends.push_back(Avx512Backend());
  return backends;
}

std::vector<const Backend*> AvailableBackends() {
  std::vector<const Backend*> available;
  for (const Backend* backend : AllBackends()) {
    if (backend->available()) available.push_back(backend);
  }
  return available;
}

std::string RegisteredBackendNames() {
  std::string names;
  for (const Backend* backend : AllBackends()) {
    names += backend->name;
    names += " | ";
  }
  names += "native";
  return names;
}

const Backend* ResolveBackend(const std::string& name) {
  if (name == "native") return NativeBackend();
  for (const Backend* backend : AvailableBackends()) {
    if (name == backend->name) return backend;
  }
  return nullptr;
}

const Backend& Active() {
  const Backend* backend = g_active.load(std::memory_order_acquire);
  if (backend != nullptr) return *backend;
  // First use: resolve exactly once (concurrent first callers wait here,
  // then read the published pointer).
  static std::once_flag once;
  std::call_once(once, [] {
    g_active.store(ResolveFromEnv(), std::memory_order_release);
  });
  return *g_active.load(std::memory_order_acquire);
}

bool SetActive(const std::string& name) {
  const Backend* backend = ResolveBackend(name);
  if (backend == nullptr) return false;
  g_active.store(backend, std::memory_order_release);
  return true;
}

}  // namespace kernels
}  // namespace vdt
