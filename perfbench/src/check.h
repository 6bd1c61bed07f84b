// Correctness oracles and the run gate. Every workload checks its outputs
// with these before it reports, and a run the gate refuses prints no result.
#pragma once

#include <cstddef>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "api/types.h"
#include "geometry/query.h"

namespace perfbench {

/// How one answer differs from its oracle: ids the oracle has and the
/// answer lacks, and ids in the answer the oracle lacks (a duplicate in the
/// answer counts as extra).
struct IdDiff {
  size_t missing = 0;
  size_t extra = 0;
  bool ok() const { return missing == 0 && extra == 0; }
};
IdDiff CompareIds(std::vector<accl::ObjectId> expected,
                  std::vector<accl::ObjectId> got);

/// Brute-force answer: ids of the `n` boxes (flat coords, stride 2*nd)
/// that `q` matches, via Query::Matches.
std::vector<accl::ObjectId> BruteForce(const accl::Query& q,
                                       const accl::ObjectId* ids,
                                       const float* coords, size_t n,
                                       accl::Dim nd);

/// How a recovered subscription set differs from the acknowledged live
/// set: acknowledged subscriptions that were lost, subscriptions present
/// that were never acknowledged live (a refused or unsubscribed write
/// applied), and ids present in both whose boxes differ.
struct RecoveryDiff {
  size_t lost = 0;
  size_t unexpected = 0;
  size_t box_mismatch = 0;
  bool ok() const { return lost == 0 && unexpected == 0 && box_mismatch == 0; }
};
RecoveryDiff CompareRecovered(
    const std::map<accl::ObjectId, std::vector<float>>& acked_live,
    const std::vector<accl::ObjectId>& recovered_ids,
    const std::vector<float>& recovered_coords, accl::Dim nd);

/// What the gate needs to know about a finished run.
struct RunFacts {
  double requested_s = 0.0;  ///< --seconds
  double measured_s = 0.0;   ///< how long the timed phase really ran
  /// Fewest latency samples in one tail window, and the tail quantile.
  uint64_t window_samples = 0;
  double tail_quantile = 0.99;
  /// Warm-up reached a reorganization fixed point (paper_index).
  bool converged = true;
  /// Checkpoint cycles completed in the timed phase, and the minimum the
  /// workload needs (durable_churn: a p99 over one stall is one sample).
  uint64_t checkpoint_cycles = 0;
  uint64_t min_checkpoint_cycles = 0;
};

/// Least tail evidence per window: samples beyond the window's tail
/// percentile, so the reported tail, a median over the windows, rests on
/// at least this many in each; a run slowed 3x by host contention still
/// passes.
inline constexpr uint64_t kMinTailSamples = 5;

/// Why the run must not be reported; empty when it may be.
std::vector<std::string> RefusalReasons(const RunFacts& f);

}  // namespace perfbench
