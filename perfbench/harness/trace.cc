#include "harness/trace.h"

#include <cstdio>

#include "common/check.h"

namespace perfbench {

namespace {

bool StartsWith(const std::string& s, const char* prefix) {
  return s.rfind(prefix, 0) == 0;
}

bool IsGlue(const std::string& name) {
  return name == "request" || StartsWith(name, "glue.");
}

bool IsWait(const std::string& name) {
  return name.size() >= 5 && name.compare(name.size() - 5, 5, ".wait") == 0;
}

constexpr const char* kLayers[] = {"graph",  "labeling", "spatial",
                                   "core",   "exec",     "snapshot"};

}  // namespace

Tracer::Tracer(unsigned buffers, size_t max_spans)
    : buffers_(buffers), max_spans_(max_spans) {
  for (Buffer& b : buffers_) b.spans.reserve(4096);
}

uint32_t Tracer::Name(const std::string& name) {
  for (uint32_t i = 0; i < names_.size(); ++i) {
    if (names_[i] == name) return i;
  }
  names_.push_back(name);
  return static_cast<uint32_t>(names_.size() - 1);
}

uint32_t Tracer::Push(unsigned thread, Span span) {
  GSR_CHECK(thread < buffers_.size());
  Buffer& b = buffers_[thread];
  if (span.parent_thread == kNone && !b.open.empty()) {
    span.parent_thread = thread;
    span.parent = b.open.back();
  }
  b.spans.push_back(span);
  const uint32_t id = static_cast<uint32_t>(b.spans.size() - 1);
  b.open.push_back(id);
  recorded_.fetch_add(1, std::memory_order_relaxed);
  // Clock read last, so the bookkeeping above stays outside the span.
  b.spans.back().start_ns = NowNs();
  return id;
}

uint32_t Tracer::Begin(unsigned thread, uint32_t name, uint64_t request) {
  Span span;
  span.name = name;
  span.request = request;
  return Push(thread, span);
}

uint32_t Tracer::BeginChildOf(unsigned thread, uint32_t name,
                              uint64_t request, unsigned parent_thread,
                              uint32_t parent) {
  Span span;
  span.name = name;
  span.request = request;
  span.parent_thread = parent_thread;
  span.parent = parent;
  return Push(thread, span);
}

void Tracer::End(unsigned thread, uint32_t span, uint64_t items) {
  const int64_t now = NowNs();
  Buffer& b = buffers_[thread];
  GSR_CHECK(!b.open.empty() && b.open.back() == span);
  b.open.pop_back();
  b.spans[span].end_ns = now;
  b.spans[span].items = items;
}

void Tracer::EndAt(unsigned thread, uint32_t span, int64_t end_ns,
                   uint64_t items) {
  Buffer& b = buffers_[thread];
  GSR_CHECK(!b.open.empty() && b.open.back() == span);
  b.open.pop_back();
  b.spans[span].end_ns = end_ns;
  b.spans[span].items = items;
}

void Tracer::Record(unsigned thread, uint32_t name, uint64_t request,
                    int64_t start_ns, int64_t end_ns, uint64_t items) {
  const uint32_t id = Begin(thread, name, request);
  EndAt(thread, id, end_ns, items);
  buffers_[thread].spans[id].start_ns = start_ns;
}

std::vector<std::vector<double>> Tracer::SelfTimes() const {
  std::vector<std::vector<double>> self(buffers_.size());
  for (size_t t = 0; t < buffers_.size(); ++t) {
    const std::vector<Span>& spans = buffers_[t].spans;
    self[t].resize(spans.size());
    for (size_t i = 0; i < spans.size(); ++i) {
      self[t][i] = static_cast<double>(spans[i].end_ns - spans[i].start_ns);
    }
    for (const Span& s : spans) {
      if (s.parent_thread == t) {
        self[t][s.parent] -= static_cast<double>(s.end_ns - s.start_ns);
      }
    }
  }
  return self;
}

std::map<std::string, Tracer::Aggregate> Tracer::Aggregates() const {
  const auto self = SelfTimes();
  std::map<std::string, Aggregate> out;
  for (size_t t = 0; t < buffers_.size(); ++t) {
    const std::vector<Span>& spans = buffers_[t].spans;
    for (size_t i = 0; i < spans.size(); ++i) {
      Aggregate& a = out[names_[spans[i].name]];
      ++a.spans;
      a.items += spans[i].items;
      a.total_ns += static_cast<double>(spans[i].end_ns - spans[i].start_ns);
      a.self_ns += self[t][i];
    }
  }
  return out;
}

double Tracer::NsPerItem(const std::string& name) const {
  const auto all = Aggregates();
  const auto it = all.find(name);
  if (it == all.end() || it->second.items == 0) return 0.0;
  return it->second.total_ns / static_cast<double>(it->second.items);
}

double Tracer::BusyNs() const {
  double busy = 0.0;
  for (size_t t = 0; t < buffers_.size(); ++t) {
    for (const Span& s : buffers_[t].spans) {
      const double dur = static_cast<double>(s.end_ns - s.start_ns);
      if (s.parent_thread != t) busy += dur;      // Top level on its thread.
      if (IsWait(names_[s.name])) busy -= dur;    // Blocked, not busy.
    }
  }
  return busy;
}

double Tracer::UnattributedShare() const {
  const double busy = BusyNs();
  if (busy <= 0.0) return 0.0;
  double glue = 0.0;
  for (const auto& [name, a] : Aggregates()) {
    if (IsGlue(name)) glue += a.self_ns;
  }
  return glue / busy;
}

std::map<std::string, double> Tracer::LayerSelfShare() const {
  const double busy = BusyNs();
  std::map<std::string, double> share;
  for (const char* layer : kLayers) share[layer] = 0.0;
  if (busy <= 0.0) return share;
  for (const auto& [name, a] : Aggregates()) {
    if (IsWait(name)) continue;
    for (const char* layer : kLayers) {
      if (StartsWith(name, layer) && name.size() > std::string(layer).size() &&
          name[std::string(layer).size()] == '.') {
        share[layer] += a.self_ns / busy;
      }
    }
  }
  return share;
}

bool Tracer::WriteCsv(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f,
               "thread,span,name,request,parent_thread,parent,start_ns,"
               "end_ns,items\n");
  for (size_t t = 0; t < buffers_.size(); ++t) {
    const std::vector<Span>& spans = buffers_[t].spans;
    for (size_t i = 0; i < spans.size(); ++i) {
      const Span& s = spans[i];
      std::fprintf(f, "%zu,%zu,%s,%llu,%lld,%lld,%lld,%lld,%llu\n", t, i,
                   names_[s.name].c_str(),
                   static_cast<unsigned long long>(s.request),
                   s.parent_thread == kNone ? -1LL
                                            : static_cast<long long>(
                                                  s.parent_thread),
                   s.parent == kNone ? -1LL : static_cast<long long>(s.parent),
                   static_cast<long long>(s.start_ns),
                   static_cast<long long>(s.end_ns),
                   static_cast<unsigned long long>(s.items));
    }
  }
  return std::fclose(f) == 0;
}

void SetTraceMetrics(const Tracer& tracer, const Options& options,
                     double untraced_qps, double traced_qps,
                     RunResult& result) {
  result.Set("trace.unattributed_share", tracer.UnattributedShare());
  result.Set("trace.overhead",
             traced_qps > 0.0 ? untraced_qps / traced_qps - 1.0 : 0.0);
  for (const auto& [layer, share] : tracer.LayerSelfShare()) {
    result.Set("trace.self_share." + layer, share);
  }
  Json spans;
  for (const auto& [name, a] : tracer.Aggregates()) {
    Json entry;
    entry.Int("spans", a.spans);
    entry.Int("items", a.items);
    entry.Num("total_ms", a.total_ns / 1e6);
    entry.Num("self_ms", a.self_ns / 1e6);
    spans.Obj(name, entry);
  }
  const std::string path = options.out_dir + "/spans-" + options.workload +
                           "-seed" + std::to_string(options.seed) + ".csv";
  Json trace;
  trace.Str("spans_file", tracer.WriteCsv(path) ? path : "");
  trace.Int("span_count", tracer.span_count());
  trace.Num("untraced_qps", untraced_qps);
  trace.Num("traced_qps", traced_qps);
  trace.Obj("by_name", spans);
  result.detail.Obj("trace", trace);
}

}  // namespace perfbench
