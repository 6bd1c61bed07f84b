// The benchmark's own span recorder for traced runs. Spans are taken in
// benchmark code around each call into a layer's public functions; they
// stay in memory (one buffer per thread) and are written out once, after
// the timed phase.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

/// Layers the benchmark can time from outside. `kBench` is the benchmark's
/// own loop, generator and sink work.
enum class Layer : uint8_t { kBench, kCore, kKernels, kSdi, kDurability };
inline constexpr size_t kLayerCount = 5;
const char* LayerName(Layer layer);

/// Traced runs alternate traced and untraced blocks of this length, so the
/// two halves see the same program states and their time ratio is the
/// tracing overhead (obs.trace_overhead).
inline constexpr uint64_t kTraceBlockNs = 200'000'000;
inline bool TracedBlock(uint64_t begin_ns, uint64_t now_ns) {
  return ((now_ns - begin_ns) / kTraceBlockNs) % 2 == 1;
}

struct SpanRecord {
  uint64_t id = 0;
  uint64_t parent = 0;  ///< 0 = root: the span is one operation
  uint64_t op = 0;      ///< operation id shared by every span of that operation
  Layer layer = Layer::kBench;
  const char* name = "";  ///< string literal
  uint64_t start_ns = 0;
  uint64_t end_ns = 0;
  uint32_t thread = 0;
};

/// Self time per layer: each span's duration minus the part of it its
/// child spans cover, summed per layer, with the number of root spans.
struct SelfTimes {
  double ns[kLayerCount] = {};
  uint64_t roots = 0;
};
SelfTimes ComputeSelfTimes(const std::vector<SpanRecord>& spans);

class Tracer {
 public:
  Tracer() = default;
  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  /// RAII span. A null tracer records nothing, so untimed and untraced code
  /// paths share one body.
  class Span {
   public:
    Span(Tracer* t, Layer layer, const char* name, uint64_t op,
         uint64_t parent = 0);
    ~Span();
    Span(const Span&) = delete;
    Span& operator=(const Span&) = delete;
    uint64_t id() const { return rec_.id; }

   private:
    Tracer* t_;
    SpanRecord rec_;
  };

  /// Every recorded span, all threads merged. Call with writers quiesced.
  std::vector<SpanRecord> Collect() const;

  /// Chrome trace-event JSON of the spans ("X" events; args carry the
  /// span, parent and operation ids): the earliest 200k, with the number
  /// left out recorded in "otherData".
  bool WriteChromeJson(const std::string& path) const;

 private:
  struct Buffer {
    uint32_t thread;
    std::vector<SpanRecord> spans;
  };
  Buffer* BufferForThisThread();

  uint64_t NextId() { return next_id_.fetch_add(1, std::memory_order_relaxed); }

  /// Distinguishes tracer instances in the per-thread buffer cache.
  const uint64_t serial_ = NextSerial();
  static uint64_t NextSerial();

  std::atomic<uint64_t> next_id_{1};
  mutable std::mutex mu_;  ///< guards buffers_ (registration only)
  std::vector<std::unique_ptr<Buffer>> buffers_;
};

}  // namespace perfbench
