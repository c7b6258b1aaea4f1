// In-memory span log for the traced replay: one record per layer call
// (name, start, end, parent span, request id), kept in memory while the
// replay runs and written out once at the end.
#pragma once

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

class SpanLog {
 public:
  struct Span {
    const char* name = "";
    std::int64_t start_ns = 0;
    std::int64_t end_ns = 0;
    int parent = -1;
    std::int64_t request = -1;
    /// Outcome label where one call can take different paths (the cache
    /// tier of engine.map: "memory", "disk", "miss").
    std::string tag;

    double micros() const { return static_cast<double>(end_ns - start_ns) / 1e3; }
  };

  static std::int64_t NowNs() {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
  }

  /// Opens a span (a root when `parent` is -1) and returns its id.
  int Open(const char* name, int parent, std::int64_t request) {
    Span span;
    span.name = name;
    span.parent = parent;
    span.request = request;
    span.start_ns = NowNs();
    spans_.push_back(std::move(span));
    return static_cast<int>(spans_.size()) - 1;
  }
  void Close(int id) { spans_[static_cast<std::size_t>(id)].end_ns = NowNs(); }
  void Tag(int id, std::string tag) {
    spans_[static_cast<std::size_t>(id)].tag = std::move(tag);
  }
  std::int64_t request(int id) const {
    return spans_[static_cast<std::size_t>(id)].request;
  }

  void Reserve(std::size_t n) { spans_.reserve(n); }
  const std::vector<Span>& spans() const { return spans_; }

  /// Writes one JSON object per line: name, start/end in ns, parent,
  /// request, tag. Returns false when the file cannot be written.
  bool WriteJsonl(const std::string& path) const;

 private:
  std::vector<Span> spans_;
};

/// Opens a span on construction and closes it on destruction; inert when
/// the log is null.
class ScopedSpan {
 public:
  ScopedSpan(SpanLog* log, const char* name, int parent)
      : log_(log),
        id_(log == nullptr ? -1
                           : log->Open(name, parent,
                                       parent < 0 ? -1 : log->request(parent))) {}
  ~ScopedSpan() {
    if (log_ != nullptr) log_->Close(id_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  int id() const { return id_; }

 private:
  SpanLog* log_;
  int id_;
};

}  // namespace perfbench
