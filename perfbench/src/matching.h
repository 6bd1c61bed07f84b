// MatchBatch driving and the engine-side per-layer readings shared by the
// two engine workloads (skewed_match, durable_churn).
#pragma once

#include <atomic>
#include <cstdint>
#include <utility>
#include <vector>

#include "api/batch.h"
#include "obs/metrics.h"
#include "report.h"
#include "sdi/subscription_engine.h"
#include "spans.h"

namespace perfbench {

inline constexpr size_t kBatch = 256;

/// Sink that times the first and last emit of a batch and, for checked
/// batches, keeps every event's matches. Emits arrive concurrently from the
/// pool workers for distinct event indices.
class TimedSink final : public accl::MatchSink {
 public:
  /// Arms the sink for one MatchBatch call that starts at `call_ns`.
  void Begin(uint64_t call_ns, bool keep, Tracer* tracer, uint64_t op,
             uint64_t parent);
  void OnEventMatches(size_t event_index,
                      accl::Span<const accl::ObjectId> matches,
                      uint64_t objects_verified) override;

  double first_emit_us() const;
  double tail_us(uint64_t return_ns) const;
  uint64_t matches() const { return matches_.load(); }
  uint64_t verified() const { return verified_.load(); }
  std::vector<std::vector<accl::ObjectId>> TakeKept() {
    return std::move(kept_);
  }

 private:
  uint64_t call_ns_ = 0;
  std::atomic<uint64_t> first_ns_{UINT64_MAX};
  std::atomic<uint64_t> last_ns_{0};
  std::atomic<uint64_t> matches_{0};
  std::atomic<uint64_t> verified_{0};
  bool keep_ = false;
  Tracer* tracer_ = nullptr;
  uint64_t op_ = 0;
  uint64_t parent_ = 0;
  std::vector<std::vector<accl::ObjectId>> kept_;
};

struct MatchLoopStats {
  uint64_t batches = 0;
  uint64_t events = 0;
  double elapsed_s = 0.0;
  WindowedSamples batch_ms;
  Samples first_emit_us;
  Samples tail_us;
  uint64_t allocs = 0;  ///< heap allocations during unchecked batches
  uint64_t alloc_batches = 0;
  double traced_ns = 0.0, plain_ns = 0.0;
  uint64_t traced_batches = 0, plain_batches = 0;
  uint64_t matches = 0, verified = 0;
  /// (first event index, per-event matches) of the batches kept for the
  /// oracle.
  std::vector<std::pair<size_t, std::vector<std::vector<accl::ObjectId>>>>
      checked;
};

/// Closed loop of 256-event MatchBatch calls through a TimedSink, cycling
/// over `events`, until `begin_ns + seconds`. Every
/// `check_every`-th batch (at most `max_checks`) is kept for the oracle.
/// With a tracer, batches in traced blocks record spans and run with the
/// engine's flight recorder on.
MatchLoopStats RunMatchLoop(accl::SubscriptionEngine& engine,
                            const std::vector<accl::Event>& events,
                            uint64_t begin_ns, double seconds,
                            size_t check_every, size_t max_checks,
                            Tracer* tracer);

/// Events of a checked batch whose matches differ from a brute-force scan
/// of the live subscriptions (`ids`, flat `coords`), under the engine's
/// kIntersecting policy (point events are enclosure queries).
uint64_t OracleMismatches(const std::vector<accl::Event>& events,
                          size_t first, const std::vector<accl::ObjectId>& ids,
                          const std::vector<float>& coords, accl::Dim nd,
                          const std::vector<std::vector<accl::ObjectId>>& got);

/// Engine counters read before and after the timed phase.
struct EngineReading {
  accl::obs::MetricsSnapshot metrics;
  uint64_t splits = 0, merges = 0, clusters = 0;  ///< summed over shards
};
EngineReading ReadEngine(const accl::SubscriptionEngine& e);

/// sdi.*, exec.*, adapt.* and the shard-side core.* figures of a timed
/// matching phase.
void ReportEngineLayers(const accl::SubscriptionEngine& e,
                        const EngineReading& before,
                        const EngineReading& after, const MatchLoopStats& st,
                        Report* r);

/// core.explored_ratio / dims_per_object / precision: per-shard
/// QueryMetrics totals over a short probe of materializing MatchBatch calls
/// (the streaming sink does not carry them).
void ReportCoreProbe(accl::SubscriptionEngine& e,
                     const std::vector<accl::Event>& events, Report* r);

/// The engine's flight-recorder trace, written beside the span dump.
void WriteEngineTrace(const accl::SubscriptionEngine& e,
                      const std::string& path);

}  // namespace perfbench
