#ifndef PERFBENCH_DRIVER_UTIL_H_
#define PERFBENCH_DRIVER_UTIL_H_

// Shared helpers of the benchmark driver: clocks, a span recorder, a small
// JSON writer, /proc readers and flag parsing. Everything here is the
// benchmark's own code; the program under test is reached only through
// its public headers.

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <map>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

inline uint64_t NowNs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

inline double Ms(uint64_t ns) { return static_cast<double>(ns) * 1e-6; }
inline double Seconds(uint64_t ns) { return static_cast<double>(ns) * 1e-9; }

// ---------------------------------------------------------------------------
// Spans. One record per call into a layer: name, start, end, parent span and
// the request it belongs to. Kept in memory while the benchmark runs and
// written out once at the end; when disabled, Begin/End cost one branch.
// ---------------------------------------------------------------------------

struct Span {
  std::string name;
  uint64_t start_ns = 0;
  uint64_t end_ns = 0;
  int64_t parent = -1;  // index into the recorder, -1 for a root
  int64_t request = -1;  // request / query id, -1 when not per-request
};

class SpanRecorder {
 public:
  explicit SpanRecorder(bool enabled) : enabled_(enabled) {}

  bool enabled() const { return enabled_; }

  // Opens a span and returns its index (-1 when disabled).
  int64_t Begin(const std::string& name, int64_t parent = -1,
                int64_t request = -1) {
    if (!enabled_) return -1;
    std::lock_guard<std::mutex> lock(mutex_);
    spans_.push_back({name, NowNs(), 0, parent, request});
    return static_cast<int64_t>(spans_.size()) - 1;
  }

  void End(int64_t index) {
    if (index < 0) return;
    const uint64_t now = NowNs();
    std::lock_guard<std::mutex> lock(mutex_);
    spans_[static_cast<size_t>(index)].end_ns = now;
  }

  // Records a finished span whose bounds were measured elsewhere (client
  // timestamps, or lifecycle fields the program reports).
  int64_t Add(const std::string& name, uint64_t start_ns, uint64_t end_ns,
              int64_t parent = -1, int64_t request = -1) {
    if (!enabled_) return -1;
    std::lock_guard<std::mutex> lock(mutex_);
    spans_.push_back({name, start_ns, end_ns, parent, request});
    return static_cast<int64_t>(spans_.size()) - 1;
  }

  std::vector<Span> Take() {
    std::lock_guard<std::mutex> lock(mutex_);
    return std::move(spans_);
  }

 private:
  const bool enabled_;
  std::mutex mutex_;
  std::vector<Span> spans_;
};

// RAII span.
class ScopedSpan {
 public:
  ScopedSpan(SpanRecorder* rec, const std::string& name, int64_t parent = -1,
             int64_t request = -1)
      : rec_(rec), index_(rec->Begin(name, parent, request)) {}
  ~ScopedSpan() { rec_->End(index_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;
  int64_t index() const { return index_; }

 private:
  SpanRecorder* rec_;
  int64_t index_;
};

// ---------------------------------------------------------------------------
// Minimal JSON writer: objects of numbers, strings and number arrays.
// ---------------------------------------------------------------------------

class Json {
 public:
  Json& Num(const std::string& key, double v) {
    Key(key);
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    out_ += buf;
    return *this;
  }
  Json& Str(const std::string& key, const std::string& v) {
    Key(key);
    Quote(v);
    return *this;
  }
  Json& Arr(const std::string& key, const std::vector<double>& v) {
    Key(key);
    out_ += '[';
    char buf[64];
    for (size_t i = 0; i < v.size(); ++i) {
      if (i > 0) out_ += ',';
      std::snprintf(buf, sizeof(buf), "%.17g", v[i]);
      out_ += buf;
    }
    out_ += ']';
    return *this;
  }
  Json& Raw(const std::string& key, const std::string& json) {
    Key(key);
    out_ += json;
    return *this;
  }
  std::string Done() const { return "{" + out_ + "}"; }

  static std::string SpansJson(const std::vector<Span>& spans);

 private:
  void Key(const std::string& key) {
    if (!out_.empty()) out_ += ',';
    Quote(key);
    out_ += ':';
  }
  void Quote(const std::string& s) {
    out_ += '"';
    for (char c : s) {
      if (c == '"' || c == '\\') out_ += '\\';
      if (c == '\n') {
        out_ += "\\n";
        continue;
      }
      out_ += c;
    }
    out_ += '"';
  }
  std::string out_;
};

bool WriteFile(const std::string& path, const std::string& content);
bool ReadFile(const std::string& path, std::string* out);

// ---------------------------------------------------------------------------
// /proc readers.
// ---------------------------------------------------------------------------

// Peak resident set size (VmHWM) of `pid` ("self" when pid == 0), in MiB.
double PeakRssMb(int pid = 0);
// Minor page faults so far of `pid` ("self" when pid == 0).
uint64_t MinorFaults(int pid = 0);

// ---------------------------------------------------------------------------
// Flags: --name value pairs after the subcommand.
// ---------------------------------------------------------------------------

class Flags {
 public:
  Flags(int argc, char** argv, int first);
  std::string Get(const std::string& name, const std::string& def = "") const;
  // A numeric flag with no default: exits with status 2 when it is absent.
  double Need(const std::string& name) const;

 private:
  std::map<std::string, std::string> values_;
};

// Deterministic 64-bit mixer for deriving sub-seeds.
inline uint64_t Mix(uint64_t x) {
  x += 0x9E3779B97F4A7C15ULL;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ULL;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBULL;
  return x ^ (x >> 31);
}

int HardwareThreads();

}  // namespace perfbench

#endif  // PERFBENCH_DRIVER_UTIL_H_
