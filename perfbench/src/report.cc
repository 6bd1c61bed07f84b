#include "report.h"

#include <dirent.h>
#include <sys/resource.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <sstream>

namespace perfbench {

double Samples::Quantile(double q) const {
  if (v_.empty()) return 0.0;
  std::vector<double> sorted = v_;
  const size_t n = sorted.size();
  size_t rank = static_cast<size_t>(std::ceil(q * static_cast<double>(n)));
  rank = std::min(std::max<size_t>(rank, 1), n);
  std::nth_element(sorted.begin(), sorted.begin() + (rank - 1), sorted.end());
  return sorted[rank - 1];
}

uint64_t SamplesBeyond(uint64_t n, double q) {
  const auto rank = static_cast<uint64_t>(std::ceil(q * static_cast<double>(n)));
  return n > rank ? n - rank : 0;
}

void WindowedSamples::Add(uint64_t at_ns, double v) {
  const double offset = at_ns > begin_ns_ ? static_cast<double>(at_ns - begin_ns_) : 0.0;
  const size_t w = std::min(static_cast<size_t>(offset / window_ns_), kWindows - 1);
  windows_[w].Add(v);
  all_.Add(v);
}

void WindowedSamples::Append(const WindowedSamples& o) {
  for (size_t w = 0; w < kWindows; ++w) windows_[w].Append(o.windows_[w]);
  all_.Append(o.all_);
}

double WindowedSamples::Tail(double q) const {
  Samples tails;
  for (const Samples& w : windows_) tails.Add(w.Quantile(q));
  return tails.Median();
}

double WindowedSamples::Rate() const {
  Samples rates;
  for (const Samples& w : windows_) rates.Add(w.count() / (window_ns_ / 1e9));
  return rates.Median();
}

uint64_t WindowedSamples::MinWindowCount() const {
  uint64_t n = UINT64_MAX;
  for (const Samples& w : windows_) n = std::min<uint64_t>(n, w.count());
  return n;
}

const std::vector<MetricDef>& EndToEndMetrics() {
  static const std::vector<MetricDef> defs = {
      {"setup_s", "s"},  {"rss_mb", "MB"},      {"p50_ms", "ms"},
      {"tail_ms", "ms"}, {"ops_per_s", "1/s"},
  };
  return defs;
}

const std::vector<MetricDef>& PerLayerMetrics() {
  static const std::vector<MetricDef> defs = {
      {"core.execute_us.p50", "us"},
      {"core.execute_us.p99", "us"},
      {"core.reorg_us.p50", "us"},
      {"core.reorg_us.p99", "us"},
      {"core.clusters", "count"},
      {"core.explored_ratio", "ratio"},
      {"core.verified_per_query", "count"},
      {"core.verified_per_event", "count"},
      {"core.dims_per_object", "count"},
      {"core.precision", "ratio"},
      {"core.splits_per_1k", "count"},
      {"core.merges_per_1k", "count"},
      {"cost.model_over_wall", "ratio"},
      {"cost.model_over_wall.sel5e-5", "ratio"},
      {"cost.model_over_wall.sel5e-4", "ratio"},
      {"cost.model_over_wall.sel5e-3", "ratio"},
      {"core.explored_ratio.sel5e-5", "ratio"},
      {"core.explored_ratio.sel5e-4", "ratio"},
      {"core.explored_ratio.sel5e-3", "ratio"},
      {"core.verified_per_query.sel5e-5", "count"},
      {"core.verified_per_query.sel5e-4", "count"},
      {"core.verified_per_query.sel5e-3", "count"},
      {"core.precision.sel5e-5", "ratio"},
      {"core.precision.sel5e-4", "ratio"},
      {"core.precision.sel5e-3", "ratio"},
      {"kernels.verify_ns_per_object", "ns"},
      {"kernels.verify_gbps", "GB/s"},
      {"sdi.first_emit_us.p50", "us"},
      {"sdi.tail_us.p50", "us"},
      {"sdi.visits_per_event", "count"},
      {"sdi.matches_per_verified", "ratio"},
      {"sdi.subscribe_us.p50", "us"},
      {"sdi.subscribe_us.p99", "us"},
      {"sdi.unsubscribe_us.p50", "us"},
      {"sdi.unsubscribe_us.p99", "us"},
      {"exec.trylock_failures_per_batch", "count"},
      {"exec.ready_pop_retries_per_batch", "count"},
      {"exec.heap_allocs_per_batch", "count"},
      {"exec.chunks_stolen_share", "ratio"},
      {"exec.epoch_grace_wait_us.p50", "us"},
      {"exec.epoch_grace_wait_us.p99", "us"},
      {"adapt.boundary_moves", "count"},
      {"adapt.subscriptions_migrated", "count"},
      {"adapt.dimension_switches", "count"},
      {"adapt.migration_us.p50", "us"},
      {"adapt.overflow_share", "ratio"},
      {"durability.ack_ms.p50", "ms"},
      {"durability.ack_ms.p90", "ms"},
      {"durability.ack_ms.p99", "ms"},
      {"durability.commit_us.p50", "us"},
      {"durability.commit_us.p99", "us"},
      {"durability.records_per_sync", "count"},
      {"durability.syncs_per_s", "1/s"},
      {"durability.ckpt_us.p50", "us"},
      {"durability.ckpts", "count"},
      {"durability.wal_bytes_per_mutation", "B"},
      {"durability.disk_bytes_per_live_sub", "B"},
      {"durability.replay_records_per_s", "1/s"},
      {"durability.recover_s", "s"},
      {"bench.send_lag_ms.p99", "ms"},
      {"obs.trace_overhead", "ratio"},
      {"obs.self_us.bench", "us"},
      {"obs.self_us.core", "us"},
      {"obs.self_us.kernels", "us"},
      {"obs.self_us.sdi", "us"},
      {"obs.self_us.durability", "us"},
  };
  return defs;
}

namespace {

const char* UnitOf(const std::string& name) {
  for (const auto* defs : {&EndToEndMetrics(), &PerLayerMetrics()}) {
    for (const MetricDef& d : *defs) {
      if (name == d.name) return d.unit;
    }
  }
  return "";
}

std::string JsonEscape(const std::string& s) {
  std::string out;
  for (const char c : s) {
    if (c == '"' || c == '\\') out.push_back('\\');
    if (static_cast<unsigned char>(c) >= 0x20) out.push_back(c);
  }
  return out;
}

std::string FormatNumber(double v) {
  if (!std::isfinite(v)) return "0";
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

}  // namespace

void Report::Set(const std::string& name, double value, uint64_t samples) {
  values_[name] = Value{value, samples};
}

void Report::Stamp(const std::string& key, const std::string& value) {
  stamp_.emplace_back(key, value);
}

void Report::PrintHuman(std::FILE* f) const {
  std::fprintf(f, "stamp:");
  for (const auto& kv : stamp_) {
    std::fprintf(f, " %s=%s", kv.first.c_str(), kv.second.c_str());
  }
  std::fprintf(f, "\n");
  for (const auto* defs : {&EndToEndMetrics(), &PerLayerMetrics()}) {
    for (const MetricDef& d : *defs) {
      const auto it = values_.find(d.name);
      if (it == values_.end()) continue;
      std::fprintf(f, "  %-36s %14.6g %-6s n=%llu\n", d.name, it->second.value,
                   d.unit, static_cast<unsigned long long>(it->second.samples));
    }
  }
  for (const std::string& line : notes_) std::fprintf(f, "  %s\n", line.c_str());
  std::fprintf(f, "  %-36s %14.6g %-6s n=%llu\n", "failed_share",
               attempted_ ? static_cast<double>(failed_) / attempted_ : 0.0,
               "ratio", static_cast<unsigned long long>(attempted_));
}

std::string Report::ResultJson(const std::vector<MetricDef>& defs) const {
  std::ostringstream os;
  os << "{\"correct\": " << (failed_ == 0 ? "true" : "false")
     << ", \"attempted\": " << attempted_ << ", \"failed\": " << failed_
     << ", \"metrics\": {";
  bool first = true;
  for (const MetricDef& d : defs) {
    const auto it = values_.find(d.name);
    const double v = it == values_.end() ? 0.0 : it->second.value;
    os << (first ? "" : ", ") << "\"" << JsonEscape(d.name)
       << "\": {\"value\": " << FormatNumber(v) << ", \"unit\": \""
       << JsonEscape(UnitOf(d.name)) << "\"}";
    first = false;
  }
  os << "}}";
  return os.str();
}

double PeakRssMb() {
  struct rusage ru;
  if (getrusage(RUSAGE_SELF, &ru) != 0) return 0.0;
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // KiB -> MiB
}

uint64_t DirBytes(const std::string& dir) {
  uint64_t total = 0;
  DIR* d = opendir(dir.c_str());
  if (d == nullptr) return 0;
  while (const dirent* e = readdir(d)) {
    const std::string path = dir + "/" + e->d_name;
    struct stat st;
    if (stat(path.c_str(), &st) == 0 && S_ISREG(st.st_mode)) {
      total += static_cast<uint64_t>(st.st_size);
    }
  }
  closedir(d);
  return total;
}

void ResetDir(const std::string& dir) {
  mkdir(dir.c_str(), 0755);
  DIR* d = opendir(dir.c_str());
  if (d == nullptr) return;
  std::vector<std::string> files;
  while (const dirent* e = readdir(d)) {
    const std::string path = dir + "/" + e->d_name;
    struct stat st;
    if (stat(path.c_str(), &st) == 0 && S_ISREG(st.st_mode)) {
      files.push_back(path);
    }
  }
  closedir(d);
  for (const std::string& p : files) unlink(p.c_str());
}

uint64_t NowNs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

}  // namespace perfbench
