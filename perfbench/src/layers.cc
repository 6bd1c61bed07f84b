#include "layers.h"

#include "geometry/predicates.h"
#include "kernels/backend_registry.h"
#include "kernels/verify_backend.h"

namespace perfbench {

void ReportVerifyKernel(const float* coords, const accl::ObjectId* ids,
                        size_t n, accl::Dim nd,
                        const std::vector<accl::Query>& sample, Tracer* tracer,
                        Report* r) {
  const accl::kernels::VerifyBackend* backend =
      accl::kernels::BackendRegistry::Instance().Resolve("");
  accl::BatchQuery bq;
  std::vector<accl::ObjectId> out;
  out.reserve(n);
  uint64_t ns = 0, dims = 0;
  for (size_t k = 0; k < sample.size(); ++k) {
    out.clear();
    Tracer::Span span(tracer, Layer::kKernels, "kernels.verify_batch", k);
    const uint64_t t0 = NowNs();
    bq.Assign(sample[k].box.view(), sample[k].rel);
    backend->VerifyBatch(coords, ids, n, bq, &out, &dims);
    ns += NowNs() - t0;
  }
  const double records = static_cast<double>(n) * sample.size();
  r->Set("kernels.verify_ns_per_object", Ratio(ns, records), sample.size());
  r->Set("kernels.verify_gbps", Ratio(records * accl::ObjectBytes(nd), ns),
         sample.size());
  r->Stamp("verify_backend", backend->name());
}

double MetricNumber(const accl::obs::MetricsSnapshot& snap,
                    const std::string& name) {
  const accl::obs::MetricValue* v = snap.Find(name);
  if (v == nullptr) return 0.0;
  switch (v->type) {
    case accl::obs::MetricType::kCounter: return static_cast<double>(v->counter);
    case accl::obs::MetricType::kGauge: return static_cast<double>(v->gauge);
    case accl::obs::MetricType::kHistogram: return static_cast<double>(v->hist.count);
  }
  return 0.0;
}

accl::obs::HistogramSnapshot MetricHistogram(
    const accl::obs::MetricsSnapshot& snap, const std::string& name) {
  const accl::obs::MetricValue* v = snap.Find(name);
  if (v == nullptr || v->type != accl::obs::MetricType::kHistogram) return {};
  return v->hist;
}

void ReportSelfTimes(const Tracer& tracer, Report* r) {
  const SelfTimes self = ComputeSelfTimes(tracer.Collect());
  for (size_t l = 0; l < kLayerCount; ++l) {
    r->Set(std::string("obs.self_us.") + LayerName(static_cast<Layer>(l)),
           Ratio(self.ns[l] / 1e3, self.roots), self.roots);
  }
}

}  // namespace perfbench
