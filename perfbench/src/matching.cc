#include "matching.h"

#include <cstdio>
#include <string>

#include "check.h"
#include "layers.h"
#include "obs/alloc_hook.h"

namespace perfbench {

using accl::Event;
using accl::ObjectId;
using accl::SubscriptionEngine;

void TimedSink::Begin(uint64_t call_ns, bool keep, Tracer* tracer, uint64_t op,
                      uint64_t parent) {
  call_ns_ = call_ns;
  first_ns_.store(UINT64_MAX, std::memory_order_relaxed);
  last_ns_.store(0, std::memory_order_relaxed);
  keep_ = keep;
  tracer_ = tracer;
  op_ = op;
  parent_ = parent;
  if (keep_) kept_.assign(kBatch, {});
}

void TimedSink::OnEventMatches(size_t event_index,
                               accl::Span<const ObjectId> matches,
                               uint64_t objects_verified) {
  const uint64_t t0 = NowNs();
  {
    Tracer::Span span(tracer_, Layer::kBench, "bench.emit", op_, parent_);
    matches_.fetch_add(matches.size(), std::memory_order_relaxed);
    verified_.fetch_add(objects_verified, std::memory_order_relaxed);
    if (keep_) kept_[event_index].assign(matches.begin(), matches.end());
  }
  const uint64_t t1 = NowNs();
  uint64_t cur = first_ns_.load(std::memory_order_relaxed);
  while (t0 < cur && !first_ns_.compare_exchange_weak(cur, t0)) {
  }
  cur = last_ns_.load(std::memory_order_relaxed);
  while (t1 > cur && !last_ns_.compare_exchange_weak(cur, t1)) {
  }
}

double TimedSink::first_emit_us() const {
  const uint64_t first = first_ns_.load();
  return first > call_ns_ && first != UINT64_MAX ? (first - call_ns_) / 1e3
                                                 : 0.0;
}

double TimedSink::tail_us(uint64_t return_ns) const {
  const uint64_t last = last_ns_.load();
  return return_ns > last ? (return_ns - last) / 1e3 : 0.0;
}

MatchLoopStats RunMatchLoop(SubscriptionEngine& engine,
                            const std::vector<Event>& events, uint64_t begin_ns, double seconds,
                            size_t check_every, size_t max_checks,
                            Tracer* tracer) {
  MatchLoopStats st;
  st.batch_ms = WindowedSamples(begin_ns, seconds);
  TimedSink sink;
  const size_t pool_batches = events.size() / kBatch;
  const uint64_t deadline = begin_ns + static_cast<uint64_t>(seconds * 1e9);
  uint64_t now = NowNs();
  while (now < deadline) {
    const size_t first = (st.batches % pool_batches) * kBatch;
    const bool traced = tracer != nullptr && TracedBlock(begin_ns, now);
    Tracer* t = traced ? tracer : nullptr;
    const bool keep =
        st.batches % check_every == 0 && st.checked.size() < max_checks;
    if (traced) SubscriptionEngine::SetTracing(true);
    const uint64_t iter_begin = now;
    uint64_t t0, t1, allocs;
    {
      Tracer::Span op(t, Layer::kBench, "bench.batch", st.batches);
      Tracer::Span call(t, Layer::kSdi, "sdi.match_batch", st.batches,
                        op.id());
      const uint64_t a0 = accl::obs::HeapAllocsNow();
      t0 = NowNs();
      sink.Begin(t0, keep, t, st.batches, call.id());
      engine.MatchBatch(accl::Span<const Event>(events.data() + first, kBatch),
                        &sink);
      t1 = NowNs();
      allocs = accl::obs::HeapAllocsNow() - a0;
    }
    if (traced) SubscriptionEngine::SetTracing(false);
    st.batch_ms.Add(t1, (t1 - t0) / 1e6);
    st.first_emit_us.Add(sink.first_emit_us());
    st.tail_us.Add(sink.tail_us(t1));
    if (keep) {
      st.checked.emplace_back(first, sink.TakeKept());
    } else {
      st.allocs += allocs;
      ++st.alloc_batches;
    }
    ++st.batches;
    st.events += kBatch;
    now = NowNs();
    (traced ? st.traced_ns : st.plain_ns) += now - iter_begin;
    ++(traced ? st.traced_batches : st.plain_batches);
  }
  st.elapsed_s = (now - begin_ns) / 1e9;
  st.matches = sink.matches();
  st.verified = sink.verified();
  return st;
}

uint64_t OracleMismatches(const std::vector<Event>& events, size_t first,
                          const std::vector<ObjectId>& ids,
                          const std::vector<float>& coords, accl::Dim nd,
                          const std::vector<std::vector<ObjectId>>& got) {
  uint64_t wrong = 0;
  for (size_t e = 0; e < got.size(); ++e) {
    const Event& ev = events[first + e];
    const accl::Query q(ev.box, ev.is_point ? accl::Relation::kEncloses
                                            : accl::Relation::kIntersects);
    const std::vector<ObjectId> want =
        BruteForce(q, ids.data(), coords.data(), ids.size(), nd);
    if (!CompareIds(want, got[e]).ok()) ++wrong;
  }
  return wrong;
}

EngineReading ReadEngine(const SubscriptionEngine& e) {
  EngineReading r;
  r.metrics = e.metrics().Snapshot();
  for (size_t i = 0; i < e.shard_count(); ++i) {
    r.splits += e.shard_index(i).reorg_stats().splits;
    r.merges += e.shard_index(i).reorg_stats().merges;
    r.clusters += e.shard_index(i).cluster_count();
  }
  return r;
}

void ReportEngineLayers(const SubscriptionEngine& e,
                        const EngineReading& before,
                        const EngineReading& after, const MatchLoopStats& st,
                        Report* r) {
  const auto delta = [&](const char* name) {
    return MetricNumber(after.metrics, name) -
           MetricNumber(before.metrics, name);
  };
  const double events = delta("accl_pipeline_events_total");
  const double batches = delta("accl_pipeline_batches_total");
  r->Set("sdi.first_emit_us.p50", st.first_emit_us.Median(), st.batches);
  r->Set("sdi.tail_us.p50", st.tail_us.Median(), st.batches);
  r->Set("sdi.visits_per_event",
         Ratio(delta("accl_pipeline_events_routed_total"), events), st.events);
  r->Set("sdi.matches_per_verified", Ratio(st.matches, st.verified),
         st.events);
  r->Set("core.verified_per_event", Ratio(st.verified, st.events), st.events);
  r->Set("core.clusters", after.clusters);
  r->Set("core.splits_per_1k",
         Ratio(1000.0 * (after.splits - before.splits), st.events), st.events);
  r->Set("core.merges_per_1k",
         Ratio(1000.0 * (after.merges - before.merges), st.events), st.events);
  r->Set("exec.trylock_failures_per_batch",
         Ratio(delta("accl_pipeline_trylock_failures_total"), batches),
         st.batches);
  r->Set("exec.ready_pop_retries_per_batch",
         Ratio(delta("accl_pipeline_ready_pop_retries_total"), batches),
         st.batches);
  r->Set("exec.heap_allocs_per_batch", Ratio(st.allocs, st.alloc_batches),
         st.alloc_batches);
  r->Set("exec.chunks_stolen_share",
         Ratio(delta("accl_pipeline_chunks_stolen_total"),
               delta("accl_pipeline_chunks_claimed_total")),
         st.batches);
  const auto grace = MetricHistogram(after.metrics, "accl_epoch_grace_wait_us");
  r->Set("exec.epoch_grace_wait_us.p50", grace.p50, grace.count);
  r->Set("exec.epoch_grace_wait_us.p99", grace.p99, grace.count);
  r->Set("adapt.boundary_moves", delta("accl_rebalance_boundary_moves_total"));
  r->Set("adapt.subscriptions_migrated",
         delta("accl_rebalance_subscriptions_migrated_total"));
  r->Set("adapt.dimension_switches",
         delta("accl_adapt_dimension_switches_total"));
  const auto migration =
      MetricHistogram(after.metrics, "accl_rebalance_migration_us");
  r->Set("adapt.migration_us.p50", migration.p50, migration.count);
  r->Set("adapt.overflow_share", e.GetRebalanceLoadSnapshot().straddler_fraction);
}

void ReportCoreProbe(SubscriptionEngine& e, const std::vector<Event>& events,
                     Report* r) {
  constexpr size_t kProbeBatches = 16;
  accl::MatchBatchResult res;
  accl::QueryMetrics total;
  const size_t pool_batches = events.size() / kBatch;
  for (size_t b = 0; b < kProbeBatches; ++b) {
    const size_t first = (b * pool_batches / kProbeBatches) * kBatch;
    e.MatchBatch(accl::Span<const Event>(events.data() + first, kBatch), &res);
    total += res.total;
  }
  const uint64_t n = kProbeBatches * kBatch;
  r->Set("core.explored_ratio", Ratio(total.groups_explored, total.groups_total),
         n);
  r->Set("core.dims_per_object",
         Ratio(total.dims_checked, total.objects_verified), n);
  r->Set("core.precision", Ratio(total.result_count, total.objects_verified), n);
}

void WriteEngineTrace(const SubscriptionEngine& e, const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return;
  const std::string json = e.DumpTrace();
  std::fwrite(json.data(), 1, json.size(), f);
  std::fclose(f);
}

}  // namespace perfbench
