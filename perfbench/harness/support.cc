#include "harness/support.h"

#include <sys/stat.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>

#include "common/check.h"
#include "harness/metrics.h"

namespace perfbench {

double Median(std::vector<double> values) { return Quantile(values, 0.5); }

double Quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  const size_t n = values.size();
  size_t rank = static_cast<size_t>(std::ceil(q * static_cast<double>(n)));
  rank = std::clamp<size_t>(rank, 1, n) - 1;
  std::nth_element(values.begin(), values.begin() + rank, values.end());
  return values[rank];
}

void Reservoir::Add(double value) {
  ++count_;
  if (kept_.size() < capacity_) {
    kept_.push_back(value);
    return;
  }
  const uint64_t slot = rng_.NextBounded(count_);
  if (slot < capacity_) kept_[slot] = value;
}

void Reservoir::Append(const Reservoir& other) {
  count_ += other.count_;
  kept_.insert(kept_.end(), other.kept_.begin(), other.kept_.end());
}

std::string FormatNumber(double value) {
  if (!std::isfinite(value)) return "0";
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", value);
  return buf;
}

namespace {

std::string Quote(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out + "\"";
}

}  // namespace

Json& Json::Num(const std::string& key, double value) {
  fields_.emplace_back(key, FormatNumber(value));
  return *this;
}

Json& Json::Int(const std::string& key, uint64_t value) {
  fields_.emplace_back(key, std::to_string(value));
  return *this;
}

Json& Json::Str(const std::string& key, const std::string& value) {
  fields_.emplace_back(key, Quote(value));
  return *this;
}

Json& Json::Bool(const std::string& key, bool value) {
  fields_.emplace_back(key, value ? "true" : "false");
  return *this;
}

Json& Json::Obj(const std::string& key, const Json& value) {
  fields_.emplace_back(key, value.Dump());
  return *this;
}

Json& Json::NumList(const std::string& key, const std::vector<double>& values) {
  std::string list = "[";
  for (size_t i = 0; i < values.size(); ++i) {
    if (i != 0) list += ", ";
    list += FormatNumber(values[i]);
  }
  fields_.emplace_back(key, list + "]");
  return *this;
}

std::string Json::Dump() const {
  std::string out = "{";
  for (size_t i = 0; i < fields_.size(); ++i) {
    if (i != 0) out += ", ";
    out += Quote(fields_[i].first) + ": " + fields_[i].second;
  }
  return out + "}";
}

void Fingerprint::Bytes(const void* data, size_t len) {
  const auto* p = static_cast<const unsigned char*>(data);
  for (size_t i = 0; i < len; ++i) {
    hash_ ^= p[i];
    hash_ *= 0x100000001b3ULL;
  }
}

std::string Fingerprint::Hex() const {
  char buf[24];
  std::snprintf(buf, sizeof(buf), "%016llx",
                static_cast<unsigned long long>(hash_));
  return buf;
}

std::string NetworkFingerprint(const gsr::GeoSocialNetwork& network) {
  Fingerprint fp;
  fp.U64(network.num_vertices());
  for (gsr::VertexId v = 0; v < network.num_vertices(); ++v) {
    const auto out = network.graph().OutNeighbors(v);
    fp.U64(out.size());
    fp.Bytes(out.data(), out.size() * sizeof(gsr::VertexId));
    if (network.IsSpatial(v)) {
      fp.F64(network.PointOf(v).x);
      fp.F64(network.PointOf(v).y);
    }
  }
  return fp.Hex();
}

void AddQueries(Fingerprint& fp,
                const std::vector<gsr::RangeReachQuery>& queries) {
  for (const gsr::RangeReachQuery& q : queries) {
    fp.U64(q.vertex);
    fp.F64(q.region.min_x);
    fp.F64(q.region.min_y);
    fp.F64(q.region.max_x);
    fp.F64(q.region.max_y);
  }
}

std::string UpdatesFingerprint(const std::vector<gsr::Update>& updates) {
  Fingerprint fp;
  for (const gsr::Update& u : updates) {
    fp.U64(static_cast<uint64_t>(u.kind));
    fp.U64(u.a);
    fp.U64(u.b);
    if (u.point.has_value()) {
      fp.F64(u.point->x);
      fp.F64(u.point->y);
    }
  }
  return fp.Hex();
}

uint64_t MixSeed(uint64_t stream, uint64_t seed) {
  uint64_t z = stream + 0x9E3779B97F4A7C15ULL * (seed + 1);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

std::string CpuModel() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const size_t colon = line.find(':');
      if (colon != std::string::npos) {
        const size_t start = line.find_first_not_of(' ', colon + 1);
        return start == std::string::npos ? "" : line.substr(start);
      }
    }
  }
  return "unknown";
}

double PeakRssMb() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;  // kB.
    }
  }
  return 0.0;
}

uint64_t FileBytes(const std::string& path) {
  struct stat st {};
  if (::stat(path.c_str(), &st) != 0) return 0;
  return static_cast<uint64_t>(st.st_size);
}

namespace {

uint64_t EnumFingerprint(const std::vector<gsr::VertexId>& vertices) {
  Fingerprint fp;
  fp.U64(vertices.size());
  fp.Bytes(vertices.data(), vertices.size() * sizeof(gsr::VertexId));
  return fp.value();
}

}  // namespace

Expected ToExpected(gsr::QueryKind kind, gsr::exec::BatchResult result) {
  Expected e;
  e.kind = kind;
  e.answers = std::move(result.answers);
  e.counts = std::move(result.counts);
  for (const auto& vertices : result.enums) {
    e.enum_fingerprints.push_back(EnumFingerprint(vertices));
  }
  return e;
}

uint64_t CountMismatches(const Expected& want,
                         const gsr::exec::BatchResult& got) {
  if (got.answers.size() != want.answers.size()) return want.answers.size();
  uint64_t bad = 0;
  for (size_t i = 0; i < want.answers.size(); ++i) {
    bool ok = got.answers[i] == want.answers[i];
    if (ok && want.kind != gsr::QueryKind::kBool) {
      ok = got.counts.size() == want.counts.size() &&
           got.counts[i] == want.counts[i];
    }
    if (ok && want.kind == gsr::QueryKind::kEnum) {
      ok = got.enums.size() == want.enum_fingerprints.size() &&
           EnumFingerprint(got.enums[i]) == want.enum_fingerprints[i];
    }
    if (!ok) ++bad;
  }
  return bad;
}

void RunResult::Set(const std::string& name, double value) {
  bool known = false;
  for (const MetricDef& def : EndToEndMetrics()) known |= def.name == name;
  for (const MetricDef& def : PerLayerMetrics()) known |= def.name == name;
  GSR_CHECK(known && "metric missing from metrics.h");
  metrics[name] = value;
}

double SerialNsPerQuery(const gsr::RangeReachMethod& method,
                        gsr::QueryScratch& scratch,
                        const std::vector<gsr::RangeReachQuery>& batch,
                        const Expected& expected, uint64_t& mismatches) {
  std::vector<uint8_t> answers(batch.size());
  const int64_t t0 = NowNs();
  for (size_t q = 0; q < batch.size(); ++q) {
    answers[q] = method.EvaluateQuery(batch[q], scratch) ? 1 : 0;
  }
  const double ns = static_cast<double>(NowNs() - t0);
  for (size_t q = 0; q < batch.size(); ++q) {
    if (answers[q] != expected.answers[q]) ++mismatches;
  }
  return ns / static_cast<double>(batch.size());
}

Json LatencySummary(const Reservoir& samples) {
  Json j;
  j.Num("p50_us", Quantile(samples.kept(), 0.50));
  j.Num("p99_us", Quantile(samples.kept(), 0.99));
  j.Int("samples", samples.count());
  j.Int("kept", samples.kept().size());
  return j;
}

}  // namespace perfbench
