#ifndef PERFBENCH_HARNESS_TRACE_H_
#define PERFBENCH_HARNESS_TRACE_H_

#include <atomic>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "harness/support.h"

namespace perfbench {

/// In-memory span recorder for the traced run. Spans are recorded by the
/// harness around its calls into each library layer; nothing inside the
/// library is instrumented.
///
/// Every recording thread owns one buffer (chosen by the caller: pool
/// workers use their worker id, other threads the ids after them), so
/// recording takes no lock. A span's parent is the innermost span still
/// open on the same thread, or an explicit span of another thread (a
/// pool task's parent is the caller's dispatch span). Spans of one
/// request share its id.
///
/// Span names start with their layer: graph., labeling., spatial., core.,
/// exec. or snapshot. Two other kinds exist: "request" and "glue." spans
/// are harness time (what no layer call covers), and names ending in
/// ".wait" are a thread blocked on other threads, left out of busy time.
class Tracer {
 public:
  static constexpr uint32_t kNone = UINT32_MAX;

  struct Span {
    uint32_t name = 0;
    uint32_t parent_thread = kNone;
    uint32_t parent = kNone;
    uint64_t request = 0;
    int64_t start_ns = 0;
    int64_t end_ns = 0;
    /// Calls the span covers (a span around a loop of N calls sets N).
    uint64_t items = 0;
  };

  /// Per-name totals. Self time is span time minus its same-thread
  /// children's time.
  struct Aggregate {
    uint64_t spans = 0;
    uint64_t items = 0;
    double total_ns = 0.0;
    double self_ns = 0.0;
  };

  Tracer(unsigned buffers, size_t max_spans);

  /// Registers a span name; call before recording starts.
  uint32_t Name(const std::string& name);

  uint32_t Begin(unsigned thread, uint32_t name, uint64_t request);
  uint32_t BeginChildOf(unsigned thread, uint32_t name, uint64_t request,
                        unsigned parent_thread, uint32_t parent);
  void End(unsigned thread, uint32_t span, uint64_t items = 1);
  /// Ends the innermost open span of `thread` at an earlier time. Another
  /// thread may call it once `thread` has stopped recording (a caller
  /// closing its pool workers' spans after the pool went idle).
  void EndAt(unsigned thread, uint32_t span, int64_t end_ns, uint64_t items);
  /// Records a finished span, a child of the innermost open span.
  void Record(unsigned thread, uint32_t name, uint64_t request,
              int64_t start_ns, int64_t end_ns, uint64_t items = 1);
  const Span& span(unsigned thread, uint32_t id) const {
    return buffers_[thread].spans[id];
  }

  /// True once the span budget is spent; callers stop at a request edge.
  bool full() const {
    return recorded_.load(std::memory_order_relaxed) >= max_spans_;
  }

  std::map<std::string, Aggregate> Aggregates() const;
  /// Mean nanoseconds per covered call of `name` (0 if never recorded).
  double NsPerItem(const std::string& name) const;
  /// Share of busy time in request/glue self time.
  double UnattributedShare() const;
  /// Share of busy time in each layer's self time, by layer prefix.
  std::map<std::string, double> LayerSelfShare() const;
  uint64_t span_count() const { return recorded_.load(); }

  /// Writes every span as one CSV row; false when the file cannot be
  /// written.
  bool WriteCsv(const std::string& path) const;

 private:
  struct Buffer {
    std::vector<Span> spans;
    std::vector<uint32_t> open;
  };

  uint32_t Push(unsigned thread, Span span);
  /// Busy time: top-level span time minus ".wait" time, all threads.
  double BusyNs() const;
  /// Self time of every span, buffer by buffer.
  std::vector<std::vector<double>> SelfTimes() const;

  std::vector<std::string> names_;
  std::vector<Buffer> buffers_;
  size_t max_spans_;
  std::atomic<size_t> recorded_{0};
};

/// Span budget of one traced run (about 20 MB of spans in memory).
inline constexpr size_t kMaxTraceSpans = 400000;

/// RAII span; a null tracer makes it a no-op.
class ScopedSpan {
 public:
  ScopedSpan(Tracer* tracer, unsigned thread, uint32_t name, uint64_t request)
      : tracer_(tracer), thread_(thread) {
    if (tracer_ != nullptr) span_ = tracer_->Begin(thread, name, request);
  }
  ~ScopedSpan() {
    if (tracer_ != nullptr) tracer_->End(thread_, span_, items_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  void set_items(uint64_t items) { items_ = items; }
  uint32_t id() const { return span_; }

 private:
  Tracer* tracer_;
  unsigned thread_;
  uint32_t span_ = Tracer::kNone;
  uint64_t items_ = 1;
};

/// The layer-attribution metrics every traced run reports: unattributed
/// share, self-time share per layer and, from the untraced and traced
/// throughputs, the tracing overhead. Also writes the spans to
/// <out_dir>/spans-<workload>-seed<seed>.csv and their per-name totals
/// into the detail record.
void SetTraceMetrics(const Tracer& tracer, const Options& options,
                     double untraced_qps, double traced_qps,
                     RunResult& result);

}  // namespace perfbench

#endif  // PERFBENCH_HARNESS_TRACE_H_
