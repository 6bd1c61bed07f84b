#include "check.h"

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <set>

#include "geometry/box.h"
#include "report.h"

namespace perfbench {

using accl::ObjectId;

IdDiff CompareIds(std::vector<ObjectId> expected, std::vector<ObjectId> got) {
  std::sort(expected.begin(), expected.end());
  std::sort(got.begin(), got.end());
  IdDiff d;
  size_t i = 0, j = 0;
  while (i < expected.size() || j < got.size()) {
    if (j == got.size() || (i < expected.size() && expected[i] < got[j])) {
      ++d.missing;
      ++i;
    } else if (i == expected.size() || got[j] < expected[i]) {
      ++d.extra;
      ++j;
    } else {
      ++i;
      ++j;
    }
  }
  return d;
}

std::vector<ObjectId> BruteForce(const accl::Query& q, const ObjectId* ids,
                                 const float* coords, size_t n,
                                 accl::Dim nd) {
  std::vector<ObjectId> out;
  const size_t stride = 2 * static_cast<size_t>(nd);
  for (size_t i = 0; i < n; ++i) {
    if (q.Matches(accl::BoxView(coords + stride * i, nd))) out.push_back(ids[i]);
  }
  return out;
}

RecoveryDiff CompareRecovered(
    const std::map<ObjectId, std::vector<float>>& acked_live,
    const std::vector<ObjectId>& recovered_ids,
    const std::vector<float>& recovered_coords, accl::Dim nd) {
  RecoveryDiff d;
  const size_t stride = 2 * static_cast<size_t>(nd);
  std::set<ObjectId> seen;
  for (size_t i = 0; i < recovered_ids.size(); ++i) {
    const auto it = acked_live.find(recovered_ids[i]);
    // A second copy of one id is as wrong as an id never acknowledged.
    if (it == acked_live.end() || !seen.insert(recovered_ids[i]).second) {
      ++d.unexpected;
      continue;
    }
    if (it->second.size() != stride ||
        std::memcmp(it->second.data(), recovered_coords.data() + stride * i,
                    stride * sizeof(float)) != 0) {
      ++d.box_mismatch;
    }
  }
  d.lost = acked_live.size() - seen.size();
  return d;
}

std::vector<std::string> RefusalReasons(const RunFacts& f) {
  std::vector<std::string> why;
  char buf[256];
  if (f.measured_s < 0.9 * f.requested_s || f.requested_s <= 0.0) {
    std::snprintf(buf, sizeof(buf),
                  "timed phase ran %.3f s of the %.3f s requested",
                  f.measured_s, f.requested_s);
    why.push_back(buf);
  }
  const uint64_t beyond = SamplesBeyond(f.window_samples, f.tail_quantile);
  if (beyond < kMinTailSamples) {
    std::snprintf(buf, sizeof(buf),
                  "a window's p%g latency would rest on %llu samples beyond "
                  "it (%llu in the window); at least %llu are needed",
                  100.0 * f.tail_quantile,
                  static_cast<unsigned long long>(beyond),
                  static_cast<unsigned long long>(f.window_samples),
                  static_cast<unsigned long long>(kMinTailSamples));
    why.push_back(buf);
  }
  if (!f.converged) {
    why.push_back("the index did not reach a reorganization fixed point "
                  "during warm-up");
  }
  if (f.checkpoint_cycles < f.min_checkpoint_cycles) {
    std::snprintf(buf, sizeof(buf),
                  "%llu checkpoint cycles completed; at least %llu needed",
                  static_cast<unsigned long long>(f.checkpoint_cycles),
                  static_cast<unsigned long long>(f.min_checkpoint_cycles));
    why.push_back(buf);
  }
  return why;
}

}  // namespace perfbench
