#include "common.h"

#include <dirent.h>
#include <sys/resource.h>
#include <sys/stat.h>
#include <sys/vfs.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>

namespace perfbench {

double Percentile(const std::vector<double>& sorted, double p) {
  if (sorted.empty()) return 0.0;
  const double n = static_cast<double>(sorted.size());
  // The epsilon keeps p * n = 990.0000000001 from rounding a rank up.
  size_t rank = static_cast<size_t>(
      std::ceil(std::clamp(p, 0.0, 1.0) * n - 1e-9));
  rank = std::clamp<size_t>(rank, 1, sorted.size());
  return sorted[rank - 1];
}

double TailQuantile(size_t n) {
  if (n == 0) return 0.5;
  const double q = 1.0 - 10.0 / static_cast<double>(n);
  return std::clamp(q, 0.5, 0.99);
}

double Median(std::vector<double> values) {
  std::sort(values.begin(), values.end());
  return Percentile(values, 0.5);
}

LatencySummary Summarize(std::vector<double> samples) {
  std::sort(samples.begin(), samples.end());
  LatencySummary s;
  s.count = samples.size();
  s.p50 = Percentile(samples, 0.5);
  s.tail = Percentile(samples, TailQuantile(samples.size()));
  return s;
}

WindowedStats Windowed(const std::vector<double>& bounds,
                       const std::vector<double>& cpu,
                       const std::vector<std::pair<double, double>>& samples) {
  WindowedStats out;
  if (bounds.size() < 2 || cpu.size() != bounds.size()) return out;
  const size_t windows = bounds.size() - 1;
  std::vector<std::vector<double>> latency(windows);
  for (const auto& [done, us] : samples) {
    const auto it = std::upper_bound(bounds.begin(), bounds.end(), done);
    if (it == bounds.begin() || it == bounds.end()) continue;
    latency[static_cast<size_t>(it - bounds.begin()) - 1].push_back(us);
  }
  std::vector<double> rates, p50s, tails, cpus;
  for (size_t w = 0; w < windows; ++w) {
    const double length = bounds[w + 1] - bounds[w];
    const size_t n = latency[w].size();
    if (length <= 0) continue;
    rates.push_back(static_cast<double>(n) / length);
    if (n == 0) continue;
    const LatencySummary s = Summarize(std::move(latency[w]));
    p50s.push_back(s.p50);
    tails.push_back(s.tail);
    cpus.push_back((cpu[w + 1] - cpu[w]) * 1e6 / static_cast<double>(n));
    ++out.windows;
    out.samples += n;
  }
  out.ops_per_s = Median(rates);
  out.p50 = Median(p50s);
  out.tail = Median(tails);
  out.cpu_us_per_op = Median(cpus);
  return out;
}

void OpCounts::Record(const vdt::Status& status) {
  ++attempted;
  if (status.ok()) return;
  switch (status.code()) {
    case vdt::StatusCode::kResourceExhausted:
      ++busy;
      break;
    case vdt::StatusCode::kTimeout:
      ++timeout;
      break;
    case vdt::StatusCode::kInternal:
      ++transport;
      break;
    default:
      ++engine;
      break;
  }
}

void OpCounts::RecordWrong() {
  ++attempted;
  ++wrong;
}

void OpCounts::Add(const OpCounts& other) {
  attempted += other.attempted;
  busy += other.busy;
  timeout += other.timeout;
  transport += other.transport;
  engine += other.engine;
  wrong += other.wrong;
}

std::string OpCounts::ToString() const {
  std::ostringstream out;
  out << "attempted=" << attempted << " failed=" << failed()
      << " (busy=" << busy << " timeout=" << timeout
      << " transport/protocol=" << transport << " engine=" << engine
      << " wrong-result=" << wrong << ")";
  return out.str();
}

uint64_t SelfTimeNs(uint64_t start_ns, uint64_t end_ns,
                    std::vector<std::pair<uint64_t, uint64_t>> children) {
  if (end_ns <= start_ns) return 0;
  std::sort(children.begin(), children.end());
  uint64_t covered = 0;
  uint64_t cursor = start_ns;  // everything before cursor is accounted for
  for (auto [lo, hi] : children) {
    lo = std::max(lo, cursor);
    hi = std::min(hi, end_ns);
    if (hi <= lo) continue;
    covered += hi - lo;
    cursor = hi;
  }
  return (end_ns - start_ns) - covered;
}

uint64_t Tracer::NowNs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          Clock::now().time_since_epoch())
          .count());
}

int64_t Tracer::Begin(const std::string& name, int64_t parent,
                      uint64_t request) {
  const uint64_t now = NowNs();
  std::lock_guard<std::mutex> lock(mu_);
  spans_.push_back({name, parent, request, now, now});
  return static_cast<int64_t>(spans_.size()) - 1;
}

void Tracer::End(int64_t id) {
  const uint64_t now = NowNs();
  std::lock_guard<std::mutex> lock(mu_);
  spans_[static_cast<size_t>(id)].end_ns = now;
}

std::vector<double> Tracer::SelfTimesUs(const std::string& name) const {
  std::lock_guard<std::mutex> lock(mu_);
  std::map<int64_t, std::vector<std::pair<uint64_t, uint64_t>>> children;
  for (const Span& s : spans_) {
    if (s.parent >= 0) children[s.parent].push_back({s.start_ns, s.end_ns});
  }
  std::vector<double> out;
  for (size_t i = 0; i < spans_.size(); ++i) {
    if (spans_[i].name != name) continue;
    auto it = children.find(static_cast<int64_t>(i));
    const uint64_t self = SelfTimeNs(
        spans_[i].start_ns, spans_[i].end_ns,
        it == children.end() ? std::vector<std::pair<uint64_t, uint64_t>>{}
                             : it->second);
    out.push_back(static_cast<double>(self) / 1e3);
  }
  return out;
}

std::vector<double> Tracer::DurationsUs(const std::string& name) const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<double> out;
  for (const Span& s : spans_) {
    if (s.name == name) {
      out.push_back(static_cast<double>(s.end_ns - s.start_ns) / 1e3);
    }
  }
  return out;
}

size_t Tracer::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return spans_.size();
}

bool Tracer::WriteCsv(const std::string& path) const {
  std::lock_guard<std::mutex> lock(mu_);
  std::ofstream out(path);
  if (!out) return false;
  out << "id,parent,request,name,start_ns,end_ns\n";
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    out << i << ',' << s.parent << ',' << s.request << ',' << s.name << ','
        << s.start_ns << ',' << s.end_ns << '\n';
  }
  return static_cast<bool>(out);
}

double CpuSeconds() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  auto secs = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) +
           static_cast<double>(tv.tv_usec) / 1e6;
  };
  return secs(usage.ru_utime) + secs(usage.ru_stime);
}

namespace {

double StatusFieldMb(const char* field) {
  std::ifstream in("/proc/self/status");
  std::string line;
  const size_t len = std::strlen(field);
  while (std::getline(in, line)) {
    if (line.compare(0, len, field) == 0) {
      return std::strtod(line.c_str() + len, nullptr) / 1024.0;  // kB -> MB
    }
  }
  return 0.0;
}

}  // namespace

double RssMb() { return StatusFieldMb("VmRSS:"); }
double PeakRssMb() { return StatusFieldMb("VmHWM:"); }

CpuStat ReadCpuStat() {
  std::ifstream in("/proc/stat");
  std::string cpu;
  CpuStat stat;
  in >> cpu;
  // user nice system idle iowait irq softirq steal (guest time is already
  // included in user/nice).
  for (int field = 0; field < 8; ++field) {
    uint64_t v = 0;
    if (!(in >> v)) break;
    stat.total += v;
    if (field == 7) stat.steal = v;
  }
  return stat;
}

double StealPct(const CpuStat& before, const CpuStat& after) {
  if (after.total <= before.total) return 0.0;
  return 100.0 * static_cast<double>(after.steal - before.steal) /
         static_cast<double>(after.total - before.total);
}

double KernelGbps(const vdt::kernels::Backend& backend, const float* rows,
                  size_t n, size_t dim, int reps, double min_seconds) {
  std::vector<float> out(n);
  std::vector<float> query(rows, rows + dim);
  const double bytes = static_cast<double>(n * dim * sizeof(float));
  std::vector<double> rates;
  for (int r = 0; r < reps; ++r) {
    size_t passes = 0;
    const auto start = Clock::now();
    double elapsed = 0.0;
    do {
      backend.dot_batch(query.data(), rows, dim, n, out.data());
      ++passes;
      elapsed = SecondsBetween(start, Clock::now());
    } while (elapsed < min_seconds / reps);
    rates.push_back(bytes * static_cast<double>(passes) / elapsed / 1e9);
  }
  volatile float sink = out[n / 2];
  (void)sink;
  return Median(rates);
}

double ProbeGbps() {
  // 1024 rows x 100 floats = 400 KB: resident in one core's L2.
  constexpr size_t kRows = 1024, kDim = 100;
  std::vector<float> block(kRows * kDim);
  uint64_t x = 0x9E3779B97F4A7C15ULL;
  for (float& v : block) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    v = static_cast<float>(x >> 40) / static_cast<float>(1 << 24) - 0.5f;
  }
  return KernelGbps(vdt::kernels::Active(), block.data(), kRows, kDim, 5,
                    0.15);
}

std::string CpuModel() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const size_t colon = line.find(':');
      if (colon != std::string::npos && colon + 2 <= line.size()) {
        return line.substr(colon + 2);
      }
    }
  }
  return "unknown";
}

std::string FsType(const std::string& path) {
  struct statfs fs {};
  if (statfs(path.c_str(), &fs) != 0) return "unknown";
  switch (static_cast<uint64_t>(fs.f_type)) {
    case 0xEF53:
      return "ext4";
    case 0x01021994:
      return "tmpfs";
    case 0x794C7630:
      return "overlayfs";
    case 0x58465342:
      return "xfs";
    case 0x9123683E:
      return "btrfs";
    default: {
      char buf[32];
      std::snprintf(buf, sizeof(buf), "0x%llx",
                    static_cast<unsigned long long>(fs.f_type));
      return buf;
    }
  }
}

std::map<std::string, uint64_t> ListFiles(const std::string& dir) {
  std::map<std::string, uint64_t> files;
  DIR* d = opendir(dir.c_str());
  if (d == nullptr) return files;
  while (dirent* entry = readdir(d)) {
    const std::string name = entry->d_name;
    if (name == "." || name == "..") continue;
    struct stat st {};
    if (stat((dir + "/" + name).c_str(), &st) == 0 && S_ISREG(st.st_mode)) {
      files[name] = static_cast<uint64_t>(st.st_size);
    }
  }
  closedir(d);
  return files;
}

uint64_t DirBytes(const std::string& dir) {
  uint64_t total = 0;
  DIR* d = opendir(dir.c_str());
  if (d == nullptr) return 0;
  while (dirent* entry = readdir(d)) {
    const std::string name = entry->d_name;
    if (name == "." || name == "..") continue;
    const std::string path = dir + "/" + name;
    struct stat st {};
    if (stat(path.c_str(), &st) != 0) continue;
    if (S_ISDIR(st.st_mode)) {
      total += DirBytes(path);
    } else if (S_ISREG(st.st_mode)) {
      total += static_cast<uint64_t>(st.st_size);
    }
  }
  closedir(d);
  return total;
}

void RunResult::Fail(const std::string& why) {
  correct = false;
  gate_failures.push_back(why);
}

void RunResult::Set(const std::string& name, double value,
                    const std::string& unit, size_t samples) {
  metrics[name] = Metric{value, unit, samples};
}

void RunResult::Info(const std::string& key, const std::string& value) {
  info.emplace_back(key, value);
}

std::string FormatNumber(double value) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", value);
  return buf;
}

}  // namespace perfbench
