// Per-layer measurements the workloads share: the verify-kernel probe, the
// engine's metrics-plane readings, and self time per layer from the spans.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "api/types.h"
#include "geometry/query.h"
#include "obs/metrics.h"
#include "report.h"
#include "spans.h"

namespace perfbench {

/// kernels.*: times the resolved verify backend — the kernel
/// SeqScan::Execute runs, called here on the workload's flat object arrays
/// (SeqScan::Insert reallocates its store on every append, which makes
/// loading 100k objects into a SeqScan take about a minute). Every query
/// verifies all `n` records, so time per record is the kernel's cost.
/// Sets kernels.verify_ns_per_object and kernels.verify_gbps and stamps the
/// backend.
void ReportVerifyKernel(const float* coords, const accl::ObjectId* ids,
                        size_t n, accl::Dim nd,
                        const std::vector<accl::Query>& sample, Tracer* tracer,
                        Report* r);

/// Value of a counter or gauge in `snap` (0 when absent).
double MetricNumber(const accl::obs::MetricsSnapshot& snap,
                    const std::string& name);
/// Histogram view in `snap` (all zero when absent).
accl::obs::HistogramSnapshot MetricHistogram(
    const accl::obs::MetricsSnapshot& snap, const std::string& name);

/// obs.self_us.<layer>: self time per layer per operation (root span).
void ReportSelfTimes(const Tracer& tracer, Report* r);

/// a / b, or 0 when b is 0.
inline double Ratio(double a, double b) { return b > 0.0 ? a / b : 0.0; }

}  // namespace perfbench
