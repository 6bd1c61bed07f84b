// Tests of the benchmark itself: its correctness oracles catch corrupted
// results, and its gate refuses runs that cannot back their numbers.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <map>
#include <string>
#include <vector>

#include "check.h"
#include "core/adaptive_index.h"
#include "durability/checkpoint.h"
#include "durability/wal.h"
#include "matching.h"
#include "report.h"
#include "spans.h"
#include "util/rng.h"

namespace perfbench {
namespace {

using accl::Box;
using accl::ObjectId;

std::vector<float> RandomCoords(size_t n, accl::Dim nd, uint64_t seed) {
  accl::Rng rng(seed);
  std::vector<float> c;
  for (size_t i = 0; i < n * nd; ++i) {
    const float len = 0.3f * rng.NextFloat();
    const float lo = (1.0f - len) * rng.NextFloat();
    c.push_back(lo);
    c.push_back(lo + len);
  }
  return c;
}

TEST(CompareIds, CatchesDroppedExtraAndDuplicateIds) {
  EXPECT_TRUE(CompareIds({3, 1, 2}, {1, 2, 3}).ok());
  const IdDiff dropped = CompareIds({1, 2, 3}, {1, 3});
  EXPECT_EQ(dropped.missing, 1u);
  EXPECT_EQ(dropped.extra, 0u);
  const IdDiff extra = CompareIds({1, 2}, {1, 2, 9});
  EXPECT_EQ(extra.extra, 1u);
  EXPECT_FALSE(CompareIds({1, 2}, {1, 2, 2}).ok());
}

TEST(BruteForce, AgreesWithTheIndexAndCatchesACorruptedAnswer) {
  constexpr accl::Dim kNd = 4;
  constexpr size_t kN = 2000;
  const std::vector<float> coords = RandomCoords(kN, kNd, 7);
  std::vector<ObjectId> ids(kN);
  for (size_t i = 0; i < kN; ++i) ids[i] = static_cast<ObjectId>(i);
  accl::AdaptiveConfig cfg;
  cfg.nd = kNd;
  accl::AdaptiveIndex index(cfg);
  index.BulkInsert(accl::Span<const ObjectId>(ids.data(), ids.size()),
                   accl::Span<const float>(coords.data(), coords.size()));
  Box qb(kNd);
  for (accl::Dim d = 0; d < kNd; ++d) qb.set(d, 0.2f, 0.6f);
  const accl::Query q = accl::Query::Intersection(qb);
  std::vector<ObjectId> got;
  index.Execute(q, &got);
  const std::vector<ObjectId> want =
      BruteForce(q, ids.data(), coords.data(), kN, kNd);
  ASSERT_GT(want.size(), 1u);
  EXPECT_TRUE(CompareIds(want, got).ok());

  std::vector<ObjectId> dropped = got;
  dropped.pop_back();
  EXPECT_EQ(CompareIds(want, dropped).missing, 1u);
  std::vector<ObjectId> extra = got;
  for (ObjectId id = 0; id < kN; ++id) {
    if (std::find(got.begin(), got.end(), id) == got.end()) {
      extra.push_back(id);
      break;
    }
  }
  EXPECT_EQ(CompareIds(want, extra).extra, 1u);
}

TEST(OracleMismatches, CatchesACorruptedMatchBatch) {
  constexpr accl::Dim kNd = 3;
  constexpr size_t kN = 3000;
  const std::vector<float> coords = RandomCoords(kN, kNd, 11);
  std::vector<Box> boxes;
  for (size_t i = 0; i < kN; ++i) {
    boxes.emplace_back(accl::BoxView(coords.data() + 2 * kNd * i, kNd));
  }
  accl::AttributeSchema schema;
  for (accl::Dim d = 0; d < kNd; ++d) {
    schema.AddAttribute("a" + std::to_string(d), 0.0, 1.0);
  }
  accl::EngineOptions opts;
  opts.default_policy = accl::MatchPolicy::kIntersecting;
  opts.shards = 4;
  opts.match_threads = 2;
  accl::SubscriptionEngine engine(std::move(schema), opts);
  std::vector<ObjectId> ids;
  engine.SubscribeBatch(accl::Span<const Box>(boxes.data(), boxes.size()), &ids);

  accl::Rng rng(5);
  std::vector<accl::Event> events;
  for (size_t i = 0; i < kBatch; ++i) {
    std::vector<float> pt(kNd);
    for (float& x : pt) x = rng.NextFloat();
    events.push_back(accl::Event::Point(std::move(pt)));
  }
  accl::VectorMatchSink sink(kBatch);
  engine.MatchBatch(accl::Span<const accl::Event>(events.data(), kBatch), &sink);
  std::vector<std::vector<ObjectId>> got = sink.matches();
  EXPECT_EQ(OracleMismatches(events, 0, ids, coords, kNd, got), 0u);

  size_t e = 0;
  while (got[e].empty()) ++e;
  got[e].pop_back();  // a dropped match
  got[e + 1].push_back(got[e + 1].empty() ? 0 : got[e + 1].back());  // a duplicate
  EXPECT_EQ(OracleMismatches(events, 0, ids, coords, kNd, got), 2u);
}

TEST(CompareRecovered, CatchesLostUnexpectedAndAlteredSubscriptions) {
  constexpr accl::Dim kNd = 2;
  const std::map<ObjectId, std::vector<float>> acked = {
      {1, {0.1f, 0.2f, 0.3f, 0.4f}}, {2, {0.5f, 0.6f, 0.7f, 0.8f}}};
  const std::vector<float> both = {0.1f, 0.2f, 0.3f, 0.4f,
                                   0.5f, 0.6f, 0.7f, 0.8f};
  EXPECT_TRUE(CompareRecovered(acked, {1, 2}, both, kNd).ok());

  const RecoveryDiff lost =
      CompareRecovered(acked, {1}, {0.1f, 0.2f, 0.3f, 0.4f}, kNd);
  EXPECT_EQ(lost.lost, 1u);
  std::vector<float> three = both;
  three.insert(three.end(), {0.f, 1.f, 0.f, 1.f});
  EXPECT_EQ(CompareRecovered(acked, {1, 2, 3}, three, kNd).unexpected, 1u);
  std::vector<float> altered = both;
  altered[5] = 0.65f;
  EXPECT_EQ(CompareRecovered(acked, {1, 2}, altered, kNd).box_mismatch, 1u);
  EXPECT_FALSE(CompareRecovered(acked, {1, 1}, {0.1f, 0.2f, 0.3f, 0.4f,
                                                 0.1f, 0.2f, 0.3f, 0.4f},
                                kNd)
                   .ok());
}

TEST(CompareRecovered, CatchesAnAckedSubscriptionLostAcrossAReopen) {
  constexpr accl::Dim kNd = 2;
  const std::string dir = "perfbench_test_durable";
  ResetDir(dir);
  const auto open = [&](accl::durability::DurableEngine* de) {
    accl::AttributeSchema schema;
    schema.AddAttribute("x", 0.0, 1.0);
    schema.AddAttribute("y", 0.0, 1.0);
    accl::EngineOptions opts;
    opts.shards = 2;
    accl::Status st;
    return accl::durability::OpenDurable(
        std::move(schema), opts, accl::DurabilityOptions(), dir + "/wal",
        dir + "/checkpoint", nullptr, de, &st);
  };
  std::map<ObjectId, std::vector<float>> acked;
  {
    accl::durability::DurableEngine de;
    ASSERT_TRUE(open(&de));
    for (int i = 0; i < 20; ++i) {
      Box b(kNd);
      b.set(0, 0.01f * i, 0.5f);
      b.set(1, 0.2f, 0.3f);
      const ObjectId id = de.engine->SubscribeBox(b);
      ASSERT_NE(id, accl::kInvalidObject);
      acked[id].assign(b.data(), b.data() + 2 * kNd);
    }
    ASSERT_TRUE(de.engine->Unsubscribe(acked.begin()->first));
    acked.erase(acked.begin());
  }
  accl::durability::DurableEngine de;
  ASSERT_TRUE(open(&de));
  accl::durability::EngineImage image;
  de.engine->CaptureDurableImage(&image);
  EXPECT_TRUE(CompareRecovered(acked, image.ids, image.coords, kNd).ok());

  // The same check fails when one acked subscription goes missing.
  image.ids.pop_back();
  image.coords.resize(image.coords.size() - 2 * kNd);
  EXPECT_EQ(CompareRecovered(acked, image.ids, image.coords, kNd).lost, 1u);
}

RunFacts HealthyRun() {
  RunFacts f;
  f.requested_s = 10.0;
  f.measured_s = 10.001;
  f.window_samples = 5000;
  return f;
}

TEST(RefusalReasons, AcceptsAHealthyRun) {
  EXPECT_TRUE(RefusalReasons(HealthyRun()).empty());
}

TEST(RefusalReasons, RefusesATooShortRun) {
  RunFacts f = HealthyRun();
  f.measured_s = 4.0;  // stopped early
  EXPECT_EQ(RefusalReasons(f).size(), 1u);
  f = HealthyRun();
  f.window_samples = 400;  // a window's p99 would rest on 4 samples
  EXPECT_EQ(RefusalReasons(f).size(), 1u);
  f.tail_quantile = 0.999;
  f.window_samples = 4000;  // a window's p99.9 would rest on 4 samples
  EXPECT_EQ(RefusalReasons(f).size(), 1u);
}

TEST(RefusalReasons, RefusesAnUnconvergedRun) {
  RunFacts f = HealthyRun();
  f.converged = false;
  EXPECT_EQ(RefusalReasons(f).size(), 1u);
}

TEST(RefusalReasons, RefusesTooFewCheckpointCycles) {
  RunFacts f = HealthyRun();
  f.min_checkpoint_cycles = 3;
  f.checkpoint_cycles = 2;
  EXPECT_EQ(RefusalReasons(f).size(), 1u);
  f.checkpoint_cycles = 3;
  EXPECT_TRUE(RefusalReasons(f).empty());
}

TEST(Samples, NearestRankQuantiles) {
  Samples s;
  for (int i = 1; i <= 100; ++i) s.Add(i);
  EXPECT_EQ(s.Median(), 50);
  EXPECT_EQ(s.Quantile(0.99), 99);
  EXPECT_EQ(s.Quantile(1.0), 100);
  EXPECT_EQ(SamplesBeyond(100, 0.99), 1u);
  EXPECT_EQ(SamplesBeyond(1000, 0.99), 10u);
}

TEST(WindowedSamples, TailIgnoresAStallConfinedToOneWindow) {
  WindowedSamples s(0, 1.0 * WindowedSamples::kWindows);  // 1 s windows
  for (uint64_t w = 0; w < WindowedSamples::kWindows; ++w) {
    for (int i = 0; i < 1000; ++i) {
      // Window 2 holds a stall: a fifth of its samples take 100x longer.
      const double v = (w == 2 && i % 5 == 0) ? 100.0 : 1.0 + i / 1000.0;
      s.Add(w * 1'000'000'000 + i * 1'000'000, v);
    }
  }
  EXPECT_EQ(s.MinWindowCount(), 1000u);
  EXPECT_EQ(s.all().count(), 1000u * WindowedSamples::kWindows);
  EXPECT_EQ(s.all().Quantile(0.99), 100.0);
  EXPECT_NEAR(s.Tail(0.99), 1.989, 1e-9);  // rank 990 of a clean window
}

TEST(WindowedSamples, RateIgnoresAStallConfinedToOneWindow) {
  WindowedSamples s(0, 1.0 * WindowedSamples::kWindows);  // 1 s windows
  for (uint64_t w = 0; w < WindowedSamples::kWindows; ++w) {
    // Window 3 is stalled for most of its second and completes 50 samples.
    const int n = w == 3 ? 50 : 1000;
    for (int i = 0; i < n; ++i) s.Add(w * 1'000'000'000 + i * 1'000'000, 1.0);
  }
  EXPECT_DOUBLE_EQ(s.Rate(), 1000.0);
}

TEST(SelfTimes, SubtractTheUnionOfChildIntervals) {
  std::vector<SpanRecord> spans(3);
  spans[0] = {1, 0, 7, Layer::kSdi, "call", 0, 10'000, 1};
  // Two overlapping children cover [2000, 8000): 6000 ns.
  spans[1] = {2, 1, 7, Layer::kBench, "emit", 2'000, 6'000, 2};
  spans[2] = {3, 1, 7, Layer::kBench, "emit", 4'000, 8'000, 3};
  const SelfTimes t = ComputeSelfTimes(spans);
  EXPECT_EQ(t.roots, 1u);
  EXPECT_DOUBLE_EQ(t.ns[static_cast<size_t>(Layer::kSdi)], 4'000);
  EXPECT_DOUBLE_EQ(t.ns[static_cast<size_t>(Layer::kBench)], 8'000);
}

TEST(Report, ResultLineCarriesEveryMetricAndCountsFailures) {
  Report r;
  r.Set("setup_s", 1.5);
  r.CountOps(10, 1);
  const std::string json = r.ResultJson(EndToEndMetrics());
  EXPECT_NE(json.find("\"correct\": false"), std::string::npos);
  EXPECT_NE(json.find("\"failed\": 1"), std::string::npos);
  for (const MetricDef& d : EndToEndMetrics()) {
    EXPECT_NE(json.find(std::string("\"") + d.name + "\""), std::string::npos);
  }
}

}  // namespace
}  // namespace perfbench
