// Result plumbing shared by the workloads: latency samples, the named
// metric tables the benchmark prints, the run stamp, and the single JSON
// result line.
#pragma once

#include <cstdint>
#include <cstdio>
#include <map>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

/// Command-line settings of one run.
struct RunOptions {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Directory for the run's files (WAL and checkpoint, span dumps).
  std::string out_dir = ".";
};

/// Recorded values with nearest-rank quantiles.
class Samples {
 public:
  void Add(double v) { v_.push_back(v); }
  void Reserve(size_t n) { v_.reserve(n); }
  void Append(const Samples& o) { v_.insert(v_.end(), o.v_.begin(), o.v_.end()); }
  size_t count() const { return v_.size(); }
  /// Nearest-rank quantile (rank ceil(q*n)); 0 when empty.
  double Quantile(double q) const;
  double Median() const { return Quantile(0.5); }

 private:
  std::vector<double> v_;
};

/// Samples strictly above the nearest-rank q-quantile of n samples — the
/// evidence a reported percentile rests on.
uint64_t SamplesBeyond(uint64_t n, double q);

/// Latency samples of a timed phase, also split into kWindows equal time
/// windows. The reported tail and rate are medians over the windows of each
/// window's quantile and sample rate: a host stall shorter than half the
/// run moves some windows' figures but not the reported ones, while a cost
/// every window pays (reorganization, migration, checkpoints) moves them
/// all.
class WindowedSamples {
 public:
  static constexpr size_t kWindows = 10;

  WindowedSamples() = default;
  WindowedSamples(uint64_t begin_ns, double seconds)
      : begin_ns_(begin_ns), window_ns_(seconds * 1e9 / kWindows) {}

  /// Records `v`, taken at `at_ns`, in its window (the last window takes
  /// anything past the end).
  void Add(uint64_t at_ns, double v);
  /// Merges samples recorded with the same window layout.
  void Append(const WindowedSamples& o);

  const Samples& all() const { return all_; }
  /// Median over the windows of each window's q-quantile.
  double Tail(double q) const;
  /// Median over the windows of each window's samples per second.
  double Rate() const;
  /// Fewest samples in one window: what the tail of each window rests on.
  uint64_t MinWindowCount() const;

 private:
  uint64_t begin_ns_ = 0;
  double window_ns_ = 1.0;
  Samples all_;
  Samples windows_[kWindows];
};

/// A metric the benchmark defines: name and unit, in print order.
struct MetricDef {
  const char* name;
  const char* unit;
};

/// End-to-end metrics, reported by every workload with tracing off. Their
/// meaning per workload is in perfbench/README.md.
const std::vector<MetricDef>& EndToEndMetrics();
/// Per-layer metrics, reported by every workload from the traced run; a
/// layer the workload bypasses reads 0.
const std::vector<MetricDef>& PerLayerMetrics();

/// What one workload run produced.
class Report {
 public:
  /// Records metric `name`. `samples` is how many measurements back it.
  void Set(const std::string& name, double value, uint64_t samples = 1);

  /// A metric the workload prints for people but the result line does not
  /// carry (the named alias of a generic end-to-end metric, or a
  /// per-band breakdown row).
  void Note(const std::string& line) { notes_.push_back(line); }

  /// Host/configuration stamp entry (printed with every run).
  void Stamp(const std::string& key, const std::string& value);

  /// Operation accounting: attempted operations, and those that failed,
  /// were refused, or returned a wrong result.
  void CountOps(uint64_t attempted, uint64_t failed) {
    attempted_ += attempted;
    failed_ += failed;
  }

  /// Marks the run as unreportable (too short, unconverged, ...). A refused
  /// run prints its reasons and no result.
  void Refuse(const std::string& reason) { refusals_.push_back(reason); }
  const std::vector<std::string>& refusals() const { return refusals_; }

  /// Human-readable block: stamp, every metric set with unit and sample
  /// count, notes.
  void PrintHuman(std::FILE* f) const;

  /// The result line for `defs`: {"correct","attempted","failed","metrics"}.
  /// Metrics of `defs` the workload did not set are reported as 0 (a layer
  /// the workload bypasses did no work).
  std::string ResultJson(const std::vector<MetricDef>& defs) const;

 private:
  struct Value {
    double value;
    uint64_t samples;
  };
  std::map<std::string, Value> values_;
  std::vector<std::pair<std::string, std::string>> stamp_;
  std::vector<std::string> notes_;
  std::vector<std::string> refusals_;
  uint64_t attempted_ = 0;
  uint64_t failed_ = 0;
};

/// Peak resident set size of this process in MiB (getrusage ru_maxrss).
double PeakRssMb();

/// Total size in bytes of the regular files directly inside `dir`.
uint64_t DirBytes(const std::string& dir);

/// Removes the regular files directly inside `dir` and creates it if absent.
void ResetDir(const std::string& dir);

/// Monotonic clock in nanoseconds.
uint64_t NowNs();

}  // namespace perfbench
