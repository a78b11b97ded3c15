// In-memory span recorder for the traced run.
//
// Spans are recorded from the benchmark's own code around each call into a
// layer (src/<layer>) and kept in memory; they are written out once, when
// the run ends. A layer's self time is the sum of its spans' durations minus
// the parts their child spans cover.
#pragma once

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

struct Span {
  const char* layer;
  const char* name;
  std::int64_t start_ns;
  std::int64_t end_ns;
  std::int32_t parent;  ///< index into the span list, -1 for a root
  std::uint32_t round;  ///< each round replays epochs 1, 2, ... on a new node
  std::uint64_t epoch;
};

inline std::int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

class SpanRecorder {
 public:
  /// A disabled recorder records nothing and costs one branch per scope.
  explicit SpanRecorder(bool enabled) : enabled_(enabled) {
    if (enabled_) spans_.reserve(1 << 16);
  }

  bool enabled() const { return enabled_; }
  void set_round(std::uint32_t round) { round_ = round; }
  void set_epoch(std::uint64_t epoch) { epoch_ = epoch; }

  std::int32_t Open(const char* layer, const char* name) {
    spans_.push_back({layer, name, NowNs(), 0, open_, round_, epoch_});
    open_ = static_cast<std::int32_t>(spans_.size() - 1);
    return open_;
  }
  /// Closes span `id` and returns its duration in ns.
  std::int64_t Close(std::int32_t id) {
    Span& s = spans_[static_cast<std::size_t>(id)];
    s.end_ns = NowNs();
    open_ = s.parent;
    return s.end_ns - s.start_ns;
  }

  /// Self time (ms) and span count per layer, over spans whose epoch lies
  /// in [first_epoch, last_epoch], in every round.
  struct LayerTotals {
    double self_ms = 0;
    std::uint64_t count = 0;
  };
  std::map<std::string, LayerTotals> SelfTimes(std::uint64_t first_epoch,
                                               std::uint64_t last_epoch) const {
    std::vector<std::int64_t> child_ns(spans_.size(), 0);
    for (const Span& s : spans_) {
      if (s.parent >= 0) {
        child_ns[static_cast<std::size_t>(s.parent)] += s.end_ns - s.start_ns;
      }
    }
    std::map<std::string, LayerTotals> totals;
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      if (s.epoch < first_epoch || s.epoch > last_epoch) continue;
      LayerTotals& t = totals[s.layer];
      t.self_ms += static_cast<double>(s.end_ns - s.start_ns - child_ns[i]) / 1e6;
      ++t.count;
    }
    return totals;
  }

  /// Writes every span as one JSON array (times in µs from the first span).
  bool WriteJson(const std::string& path) const {
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) return false;
    const std::int64_t t0 = spans_.empty() ? 0 : spans_.front().start_ns;
    std::fputs("[\n", f);
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      std::fprintf(f,
                   "%s{\"id\":%zu,\"layer\":\"%s\",\"name\":\"%s\","
                   "\"start_us\":%.3f,\"end_us\":%.3f,\"parent\":%d,"
                   "\"round\":%u,\"epoch\":%llu}\n",
                   i == 0 ? "" : ",", i, s.layer, s.name,
                   static_cast<double>(s.start_ns - t0) / 1e3,
                   static_cast<double>(s.end_ns - t0) / 1e3, s.parent,
                   s.round, static_cast<unsigned long long>(s.epoch));
    }
    std::fputs("]\n", f);
    return std::fclose(f) == 0;
  }

 private:
  bool enabled_;
  std::vector<Span> spans_;
  std::int32_t open_ = -1;
  std::uint32_t round_ = 0;
  std::uint64_t epoch_ = 0;
};

/// RAII span; adds its duration (µs) to `*sum_us` when given.
class Scope {
 public:
  Scope(SpanRecorder& rec, const char* layer, const char* name,
        double* sum_us = nullptr)
      : rec_(rec), sum_us_(sum_us) {
    if (rec_.enabled()) id_ = rec_.Open(layer, name);
  }
  ~Scope() {
    if (!rec_.enabled()) return;
    const std::int64_t ns = rec_.Close(id_);
    if (sum_us_ != nullptr) *sum_us_ += static_cast<double>(ns) / 1e3;
  }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

 private:
  SpanRecorder& rec_;
  double* sum_us_;
  std::int32_t id_ = -1;
};

}  // namespace perfbench
