#include "report.h"

#include <sys/resource.h>

#include <atomic>
#include <cmath>
#include <cstdio>

namespace perfbench {
namespace {

thread_local Spans::Scope* tls_open_span = nullptr;

int ThreadOrdinal() {
  static std::atomic<int> next{0};
  thread_local int ordinal = next.fetch_add(1);
  return ordinal;
}

std::string JsonString(const std::string& text) {
  std::string out = "\"";
  for (char c : text) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string JsonNumber(double value) {
  if (!std::isfinite(value)) return "null";
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.17g", value);
  return buf;
}

}  // namespace

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

uint64_t MixSeed(uint64_t seed, uint64_t stream) {
  uint64_t z = seed + 0x9E3779B97F4A7C15ULL * (stream + 1);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

Spans::Scope::Scope(Spans* spans, const char* layer, const char* name,
                    int64_t id)
    : spans_(spans != nullptr && spans->enabled() ? spans : nullptr),
      layer_(layer),
      name_(name),
      id_(id) {
  if (spans_ == nullptr) return;
  parent_ = tls_open_span;
  tls_open_span = this;
  start_ns_ = NowNs();
}

Spans::Scope::~Scope() {
  if (spans_ == nullptr) return;
  const int64_t end_ns = NowNs();
  const int64_t duration = end_ns - start_ns_;
  if (parent_ != nullptr) parent_->child_ns_ += duration;
  tls_open_span = parent_;
  spans_->Add(Record{layer_, name_, id_, ThreadOrdinal(), start_ns_, end_ns,
                     duration - child_ns_});
}

void Spans::Add(const Record& record) {
  std::lock_guard<std::mutex> lock(mu_);
  records_.push_back(record);
}

std::string Spans::ChromeTraceJson() const {
  std::lock_guard<std::mutex> lock(mu_);
  int64_t origin = 0;
  for (const Record& r : records_) {
    if (origin == 0 || r.start_ns < origin) origin = r.start_ns;
  }
  std::string out = "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
  for (size_t i = 0; i < records_.size(); ++i) {
    const Record& r = records_[i];
    if (i > 0) out += ",\n";
    out += "{\"name\":" + JsonString(r.name) + ",\"cat\":" +
           JsonString(r.layer) + ",\"ph\":\"X\",\"pid\":1,\"tid\":" +
           std::to_string(r.tid) + ",\"ts\":" +
           JsonNumber(static_cast<double>(r.start_ns - origin) / 1e3) +
           ",\"dur\":" +
           JsonNumber(static_cast<double>(r.end_ns - r.start_ns) / 1e3) +
           ",\"args\":{\"id\":" + std::to_string(r.id) + ",\"self_us\":" +
           JsonNumber(static_cast<double>(r.self_ns) / 1e3) + "}}";
  }
  return out + "]}\n";
}

std::string RunOutput::ToJson() const {
  auto numbers = [](const std::vector<double>& values) {
    std::string out = "[";
    for (size_t i = 0; i < values.size(); ++i) {
      if (i > 0) out += ",";
      out += JsonNumber(values[i]);
    }
    return out + "]";
  };
  // Appends `"key":value` pairs as a JSON object.
  auto object = [](const auto& pairs, auto format) {
    std::string out = "{";
    for (size_t i = 0; i < pairs.size(); ++i) {
      if (i > 0) out += ",";
      out += JsonString(pairs[i].first);
      out += ":";
      out += format(pairs[i].second);
    }
    return out + "}";
  };
  std::string out = "{\"workload\":" + JsonString(workload);
  out += ",\"setup_s\":" + numbers(setup_s);
  out += ",\"unit_ms\":" + numbers(unit_ms);
  out += ",\"timed_wall_s\":" + JsonNumber(timed_wall_s);
  out += ",\"peak_rss_mb\":" + JsonNumber(peak_rss_mb);
  out += ",\"regret\":" + JsonNumber(regret);
  out += ",\"payment\":" + JsonNumber(payment);
  out += ",\"attempted\":" + std::to_string(attempted);
  out += ",\"failures\":[";
  for (size_t i = 0; i < failures.size(); ++i) {
    if (i > 0) out += ",";
    out += JsonString(failures[i]);
  }
  out += "],\"exact\":" +
         object(exact, [](int64_t v) { return std::to_string(v); });
  out += ",\"layer\":" + object(layer, JsonNumber);
  out += ",\"series\":" + object(series, numbers);
  return out + "}\n";
}

}  // namespace perfbench
