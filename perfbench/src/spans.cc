#include "spans.h"

#include <algorithm>
#include <cstdio>
#include <unordered_map>

#include "report.h"

namespace perfbench {

const char* LayerName(Layer layer) {
  switch (layer) {
    case Layer::kBench: return "bench";
    case Layer::kCore: return "core";
    case Layer::kKernels: return "kernels";
    case Layer::kSdi: return "sdi";
    case Layer::kDurability: return "durability";
  }
  return "?";
}

SelfTimes ComputeSelfTimes(const std::vector<SpanRecord>& spans) {
  std::unordered_map<uint64_t, std::vector<const SpanRecord*>> children;
  for (const SpanRecord& s : spans) {
    if (s.parent != 0) children[s.parent].push_back(&s);
  }
  SelfTimes out;
  std::vector<std::pair<uint64_t, uint64_t>> iv;
  for (const SpanRecord& s : spans) {
    if (s.parent == 0) ++out.roots;
    uint64_t covered = 0;
    const auto it = children.find(s.id);
    if (it != children.end()) {
      // Children may overlap (sink emits run on several workers), so the
      // covered time is the length of the union of their clipped intervals.
      iv.clear();
      for (const SpanRecord* c : it->second) {
        const uint64_t a = std::max(c->start_ns, s.start_ns);
        const uint64_t b = std::min(c->end_ns, s.end_ns);
        if (a < b) iv.emplace_back(a, b);
      }
      std::sort(iv.begin(), iv.end());
      uint64_t cur_a = 0, cur_b = 0;
      for (const auto& [a, b] : iv) {
        if (a > cur_b) {
          covered += cur_b - cur_a;
          cur_a = a;
          cur_b = b;
        } else {
          cur_b = std::max(cur_b, b);
        }
      }
      covered += cur_b - cur_a;
    }
    const uint64_t dur = s.end_ns - s.start_ns;
    out.ns[static_cast<size_t>(s.layer)] +=
        static_cast<double>(dur - std::min(dur, covered));
  }
  return out;
}

uint64_t Tracer::NextSerial() {
  static std::atomic<uint64_t> serial{1};
  return serial.fetch_add(1, std::memory_order_relaxed);
}

Tracer::Buffer* Tracer::BufferForThisThread() {
  thread_local uint64_t cached_serial = 0;
  thread_local Buffer* cached = nullptr;
  if (cached_serial != serial_) {
    std::lock_guard<std::mutex> lk(mu_);
    buffers_.push_back(std::make_unique<Buffer>());
    cached = buffers_.back().get();
    cached->thread = static_cast<uint32_t>(buffers_.size());
    // Sized up front so recording a span stays allocation-free while the
    // benchmark counts heap allocations per batch.
    cached->spans.reserve(1 << 16);
    cached_serial = serial_;
  }
  return cached;
}

Tracer::Span::Span(Tracer* t, Layer layer, const char* name, uint64_t op,
                   uint64_t parent)
    : t_(t) {
  if (t_ == nullptr) return;
  rec_.id = t_->NextId();
  rec_.parent = parent;
  rec_.op = op;
  rec_.layer = layer;
  rec_.name = name;
  rec_.start_ns = NowNs();
}

Tracer::Span::~Span() {
  if (t_ == nullptr) return;
  rec_.end_ns = NowNs();
  Buffer* b = t_->BufferForThisThread();
  rec_.thread = b->thread;
  b->spans.push_back(rec_);
}

std::vector<SpanRecord> Tracer::Collect() const {
  std::lock_guard<std::mutex> lk(mu_);
  std::vector<SpanRecord> all;
  for (const auto& b : buffers_) {
    all.insert(all.end(), b->spans.begin(), b->spans.end());
  }
  return all;
}

bool Tracer::WriteChromeJson(const std::string& path) const {
  std::vector<SpanRecord> spans = Collect();
  // The dump is for reading in a trace viewer; past this many spans (a
  // traced skewed_match run records ~0.6M) it would only be slow to load.
  constexpr size_t kMaxWritten = 200000;
  const size_t dropped = spans.size() > kMaxWritten ? spans.size() - kMaxWritten : 0;
  std::sort(spans.begin(), spans.end(),
            [](const SpanRecord& a, const SpanRecord& b) { return a.start_ns < b.start_ns; });
  spans.resize(spans.size() - dropped);
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  uint64_t origin = UINT64_MAX;
  for (const SpanRecord& s : spans) origin = std::min(origin, s.start_ns);
  std::fprintf(f, "{\"traceEvents\":[");
  for (size_t i = 0; i < spans.size(); ++i) {
    const SpanRecord& s = spans[i];
    std::fprintf(f,
                 "%s\n{\"name\":\"%s\",\"cat\":\"%s\",\"ph\":\"X\",\"pid\":1,"
                 "\"tid\":%u,\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%llu,"
                 "\"parent\":%llu,\"op\":%llu}}",
                 i == 0 ? "" : ",", s.name, LayerName(s.layer), s.thread,
                 (s.start_ns - origin) / 1e3, (s.end_ns - s.start_ns) / 1e3,
                 static_cast<unsigned long long>(s.id),
                 static_cast<unsigned long long>(s.parent),
                 static_cast<unsigned long long>(s.op));
  }
  std::fprintf(f, "\n],\"otherData\":{\"spans_not_written\":%zu}}\n", dropped);
  return std::fclose(f) == 0;
}

}  // namespace perfbench
