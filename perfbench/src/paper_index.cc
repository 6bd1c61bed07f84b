// paper_index: the paper's own experiment. One AdaptiveIndex with the
// paper's defaults (memory scenario) over 100k uniform 16-d objects, and a
// single-threaded closed loop of intersection queries whose selectivity is
// mixed over three bands. The queries concentrate in a hot region that
// moves every phase, so reorganization keeps splitting and merging while
// the loop is timed. Only core/, kernels/ and cost/ work here.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "check.h"
#include "layers.h"
#include "core/adaptive_index.h"
#include "report.h"
#include "spans.h"
#include "util/rng.h"
#include "workload/generators.h"
#include "workload/query_gen.h"
#include "workloads.h"

namespace perfbench {
namespace {

using accl::AdaptiveConfig;
using accl::AdaptiveIndex;
using accl::Box;
using accl::Dataset;
using accl::Dim;
using accl::ObjectId;
using accl::Query;
using accl::QueryMetrics;
using accl::Rng;

constexpr size_t kObjects = 100000;  // ~12.6 MB: above L2, within L3
constexpr Dim kNd = 16;
constexpr size_t kBands = 3;
constexpr double kBandSelectivity[kBands] = {5e-5, 5e-4, 5e-3};
constexpr const char* kBandName[kBands] = {"sel5e-5", "sel5e-4", "sel5e-3"};
/// Queries per hot-region phase, and phases in the pre-generated pool. The
/// hot region moves about twice a second; the phases' positions are
/// stratified over the domain, so every seed visits the whole range and
/// runs differ in detail, not in where the load sat.
constexpr size_t kPhaseQueries = 1024;
constexpr size_t kPhases = 32;
/// The hot region spans this share of each hot dimension's start range.
constexpr float kHotWidth = 0.3f;
constexpr Dim kHotDims = 2;
/// Warm-up ends after this many consecutive reorganization passes that
/// neither split nor merged (the paper's fixed point), on phase-0 queries.
constexpr int kQuietPasses = 5;
constexpr size_t kMaxWarmupQueries = 60000;
/// Every kCheckEvery-th timed query is kept for the brute-force check.
constexpr size_t kCheckEvery = 61;
constexpr size_t kMaxChecks = 400;
/// The query tail (per window, see WindowedSamples) is taken at p99.5, not
/// p99: exactly one query in
/// reorg_period (100) runs a reorganization pass, so p99 falls on the edge
/// between the two populations, where it is the extreme of one of them and
/// does not repeat from run to run. p99.5 lies in the middle of the
/// reorganizing queries and moves with their cost.
constexpr double kTailQuantile = 0.995;
/// Queries of the fixed verify-kernel sample (kernels.*).
constexpr size_t kScanSample = 48;

struct Setup {
  Dataset data;
  std::vector<Query> pool;
  std::vector<uint8_t> band;
  std::unique_ptr<AdaptiveIndex> index;
  bool converged = false;
  size_t warmup_queries = 0;
};

std::vector<Query> MakePool(const Dataset& data, uint64_t seed,
                            std::vector<uint8_t>* band) {
  double extent[kBands];
  for (size_t b = 0; b < kBands; ++b) {
    accl::QueryGenSpec spec;
    spec.target_selectivity = kBandSelectivity[b];
    spec.count = 1;
    spec.seed = seed * 31 + b;
    spec.calibration_sample = 16384;
    spec.calibration_queries = 64;
    extent[b] = accl::GenerateCalibrated(data, spec).extent;
  }
  Rng rng(seed ^ 0x9a9e5u);
  std::vector<Query> pool;
  pool.reserve(kPhases * kPhaseQueries);
  band->clear();
  size_t stratum[kHotDims][kPhases];
  for (auto& perm : stratum) {
    for (size_t p = 0; p < kPhases; ++p) perm[p] = p;
    for (size_t p = kPhases - 1; p > 0; --p) {
      std::swap(perm[p], perm[rng.NextBelow(p + 1)]);
    }
  }
  for (size_t p = 0; p < kPhases; ++p) {
    float hot[kHotDims];
    for (Dim d = 0; d < kHotDims; ++d) {
      hot[d] = (1.0f - kHotWidth) * (stratum[d][p] + rng.NextFloat()) / kPhases;
    }
    for (size_t i = 0; i < kPhaseQueries; ++i) {
      const size_t b = rng.NextBelow(kBands);
      const float e = static_cast<float>(extent[b]);
      Box box(kNd);
      for (Dim d = 0; d < kNd; ++d) {
        const float u = d < kHotDims ? hot[d] + kHotWidth * rng.NextFloat()
                                     : rng.NextFloat();
        const float start = (1.0f - e) * u;
        box.set(d, start, start + e);
      }
      pool.push_back(Query::Intersection(std::move(box)));
      band->push_back(static_cast<uint8_t>(b));
    }
  }
  return pool;
}

Setup MakeSetup(uint64_t seed) {
  Setup s;
  accl::UniformSpec spec;
  spec.nd = kNd;
  spec.count = kObjects;
  spec.seed = seed;
  s.data = accl::GenerateUniform(spec);
  s.pool = MakePool(s.data, seed, &s.band);
  s.index = std::make_unique<AdaptiveIndex>(AdaptiveConfig());
  s.index->BulkInsert(
      accl::Span<const ObjectId>(s.data.ids.data(), s.data.ids.size()),
      accl::Span<const float>(s.data.coords.data(), s.data.coords.size()));
  std::vector<ObjectId> out;
  int quiet = 0;
  uint64_t passes = s.index->reorg_stats().passes;
  while (s.warmup_queries < kMaxWarmupQueries) {
    out.clear();
    s.index->Execute(s.pool[s.warmup_queries % kPhaseQueries], &out);
    ++s.warmup_queries;
    const accl::ReorgStats& rs = s.index->reorg_stats();
    if (rs.passes == passes) continue;
    passes = rs.passes;
    quiet = rs.last_pass_splits + rs.last_pass_merges == 0 ? quiet + 1 : 0;
    if (quiet >= kQuietPasses) {
      s.converged = true;
      break;
    }
  }
  return s;
}

struct BandStats {
  uint64_t queries = 0;
  uint64_t plain = 0;    // queries that ran no reorganization
  double sim_ms = 0.0;   // model time of those queries
  double wall_ms = 0.0;  // measured time of the same queries
  Samples wall;
  QueryMetrics totals;
};

struct LoopStats {
  uint64_t queries = 0;
  double elapsed_s = 0.0;
  WindowedSamples latency_ms;  // every query
  Samples execute_us;  // queries that ran no reorganization
  Samples reorg_us;    // queries during which a reorganization pass ran
  BandStats band[kBands];
  QueryMetrics totals;
  uint64_t splits = 0;
  uint64_t merges = 0;
  double traced_ns = 0.0, plain_ns = 0.0;
  uint64_t traced_queries = 0, plain_queries = 0;
  std::vector<std::pair<size_t, std::vector<ObjectId>>> checked;
};

/// Closed loop over the pool for `seconds`, starting at phase 1 so the hot
/// region moves as timing starts. With a tracer, queries in traced blocks
/// record spans.
LoopStats RunLoop(Setup& s, double seconds, Tracer* tracer) {
  LoopStats st;
  AdaptiveIndex& index = *s.index;
  const accl::ReorgStats rs0 = index.reorg_stats();
  std::vector<ObjectId> out;
  out.reserve(kObjects);
  const uint64_t t_begin = NowNs();
  st.latency_ms = WindowedSamples(t_begin, seconds);
  const uint64_t deadline = t_begin + static_cast<uint64_t>(seconds * 1e9);
  uint64_t now = t_begin;
  size_t cursor = kPhaseQueries;
  while (now < deadline) {
    const size_t qi = cursor++ % s.pool.size();
    const Query& q = s.pool[qi];
    const bool traced = tracer != nullptr && TracedBlock(t_begin, now);
    Tracer* t = traced ? tracer : nullptr;
    const uint64_t iter_begin = now;
    out.clear();
    QueryMetrics m;
    const uint64_t passes = index.reorg_stats().passes;
    uint64_t t0, t1;
    {
      Tracer::Span op(t, Layer::kBench, "bench.query", st.queries);
      Tracer::Span call(t, Layer::kCore, "core.execute", st.queries,
                        op.id());
      t0 = NowNs();
      index.Execute(q, &out, &m);
      t1 = NowNs();
    }
    const double us = (t1 - t0) / 1e3;
    st.latency_ms.Add(t1, us / 1e3);
    BandStats& b = st.band[s.band[qi]];
    ++b.queries;
    b.totals += m;
    b.wall.Add(us / 1e3);
    st.totals += m;
    if (index.reorg_stats().passes != passes) {
      st.reorg_us.Add(us);
    } else {
      st.execute_us.Add(us);
      ++b.plain;
      b.sim_ms += m.sim_time_ms;
      b.wall_ms += us / 1e3;
    }
    if (st.queries % kCheckEvery == 0 && st.checked.size() < kMaxChecks) {
      st.checked.emplace_back(qi, out);
    }
    ++st.queries;
    now = NowNs();
    (traced ? st.traced_ns : st.plain_ns) += now - iter_begin;
    ++(traced ? st.traced_queries : st.plain_queries);
  }
  st.elapsed_s = (NowNs() - t_begin) / 1e9;
  st.splits = index.reorg_stats().splits - rs0.splits;
  st.merges = index.reorg_stats().merges - rs0.merges;
  return st;
}

/// Per-layer counters of the index and the cost model, overall and per
/// selectivity band (model time and core counts side by side).
void ReportCore(const Setup& s, const LoopStats& st, Report* r) {
  const uint64_t n = st.queries;
  const QueryMetrics& t = st.totals;
  r->Set("core.execute_us.p50", st.execute_us.Median(), st.execute_us.count());
  r->Set("core.execute_us.p99", st.execute_us.Quantile(0.99),
         st.execute_us.count());
  r->Set("core.reorg_us.p50", st.reorg_us.Median(), st.reorg_us.count());
  r->Set("core.reorg_us.p99", st.reorg_us.Quantile(0.99), st.reorg_us.count());
  r->Set("core.clusters", static_cast<double>(s.index->cluster_count()));
  r->Set("core.explored_ratio", Ratio(t.groups_explored, t.groups_total), n);
  r->Set("core.verified_per_query", Ratio(t.objects_verified, n), n);
  r->Set("core.dims_per_object", Ratio(t.dims_checked, t.objects_verified), n);
  r->Set("core.precision", Ratio(t.result_count, t.objects_verified), n);
  r->Set("core.splits_per_1k", Ratio(1000.0 * st.splits, n), n);
  r->Set("core.merges_per_1k", Ratio(1000.0 * st.merges, n), n);
  double sim = 0.0, wall = 0.0;
  for (size_t b = 0; b < kBands; ++b) {
    const BandStats& bs = st.band[b];
    const QueryMetrics& bt = bs.totals;
    const std::string sfx = std::string(".") + kBandName[b];
    sim += bs.sim_ms;
    wall += bs.wall_ms;
    r->Set("cost.model_over_wall" + sfx, Ratio(bs.sim_ms, bs.wall_ms),
           bs.queries);
    r->Set("core.explored_ratio" + sfx,
           Ratio(bt.groups_explored, bt.groups_total), bs.queries);
    r->Set("core.verified_per_query" + sfx,
           Ratio(bt.objects_verified, bs.queries), bs.queries);
    r->Set("core.precision" + sfx, Ratio(bt.result_count, bt.objects_verified),
           bs.queries);
    char line[320];
    std::snprintf(
        line, sizeof(line),
        "band %-8s n=%-7llu wall_p50_ms=%-9.4g model_ms=%-9.4g "
        "model_over_wall=%-8.4g explored=%-8.4g verified/q=%-9.5g "
        "precision=%-8.4g dims/obj=%.4g",
        kBandName[b], static_cast<unsigned long long>(bs.queries),
        bs.wall.Median(), Ratio(bs.sim_ms, bs.plain),
        Ratio(bs.sim_ms, bs.wall_ms),
        Ratio(bt.groups_explored, bt.groups_total),
        Ratio(bt.objects_verified, bs.queries),
        Ratio(bt.result_count, bt.objects_verified),
        Ratio(bt.dims_checked, bt.objects_verified));
    r->Note(line);
  }
  r->Set("cost.model_over_wall", Ratio(sim, wall), st.execute_us.count());
}

}  // namespace

void RunPaperIndex(const RunOptions& opt, Report* r) {
  Samples setup_s;
  Setup s;
  for (int i = 0; i < kSetupRepeats; ++i) {
    s = Setup();  // release the previous set-up before building the next
    const uint64_t t0 = NowNs();
    s = MakeSetup(opt.seed);
    setup_s.Add((NowNs() - t0) / 1e9);
  }
  r->Stamp("objects", std::to_string(kObjects));
  r->Stamp("dims", std::to_string(kNd));
  r->Stamp("query_pool", std::to_string(s.pool.size()));
  r->Stamp("warmup_queries", std::to_string(s.warmup_queries));
  r->Stamp("index_backend", s.index->verify_kernel().backend);

  Tracer tracer;
  const LoopStats st = RunLoop(s, opt.seconds, opt.trace ? &tracer : nullptr);

  // Correctness: sampled answers against a brute-force scan.
  uint64_t wrong = 0;
  for (const auto& [qi, got] : st.checked) {
    const std::vector<ObjectId> want =
        BruteForce(s.pool[qi], s.data.ids.data(), s.data.coords.data(),
                   s.data.size(), kNd);
    if (!CompareIds(want, got).ok()) ++wrong;
  }
  r->CountOps(st.queries, wrong);
  r->Note("checked " + std::to_string(st.checked.size()) +
          " sampled queries against a brute-force scan, " +
          std::to_string(wrong) + " wrong");

  RunFacts facts;
  facts.requested_s = opt.seconds;
  facts.measured_s = st.elapsed_s;
  facts.window_samples = st.latency_ms.MinWindowCount();
  facts.tail_quantile = kTailQuantile;
  facts.converged = s.converged;
  for (const std::string& why : RefusalReasons(facts)) r->Refuse(why);

  r->Set("setup_s", setup_s.Median(), setup_s.count());
  r->Set("rss_mb", PeakRssMb());
  r->Set("p50_ms", st.latency_ms.all().Median(), st.latency_ms.all().count());
  r->Set("tail_ms", st.latency_ms.Tail(kTailQuantile),
         st.latency_ms.all().count());
  r->Set("ops_per_s", st.latency_ms.Rate(), st.queries);
  r->Note("query_p50_ms, query_p99_ms, queries_per_s are p50_ms, tail_ms "
          "(p99.5), ops_per_s (window median) on this workload");
  ReportCore(s, st, r);

  if (opt.trace) {
    std::vector<Query> sample;
    for (size_t k = 0; k < kScanSample; ++k) {
      sample.push_back(s.pool[k * s.pool.size() / kScanSample]);
    }
    ReportVerifyKernel(s.data.coords.data(), s.data.ids.data(), s.data.size(),
                       kNd, sample, &tracer, r);
    r->Set("obs.trace_overhead",
           Ratio(st.traced_ns / st.traced_queries,
                 st.plain_ns / st.plain_queries),
           st.queries);
    ReportSelfTimes(tracer, r);
    tracer.WriteChromeJson(opt.out_dir + "/spans.json");
  }
}

}  // namespace perfbench
