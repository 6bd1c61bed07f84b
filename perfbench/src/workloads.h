// The benchmark's workloads. Each generates its inputs from the seed before
// timing starts, measures for the requested time, checks its outputs
// against an oracle, and fills the report (see perfbench/README.md for why
// each exists and which layers it loads).
#pragma once

#include "report.h"

namespace perfbench {

void RunPaperIndex(const RunOptions& opt, Report* r);
void RunSkewedMatch(const RunOptions& opt, Report* r);
void RunDurableChurn(const RunOptions& opt, Report* r);

/// Set-up is repeated this many times per run and reported as the median,
/// so one slow set-up does not decide setup_s.
inline constexpr int kSetupRepeats = 3;

}  // namespace perfbench
