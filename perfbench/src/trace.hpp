// Spans recorded by the benchmark around its own calls into each
// layer's public functions. Kept in memory and written out when the
// run ends. One Tracer per thread.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

struct Span {
  const char* name = "";
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  std::int32_t parent = -1;  ///< index in the same Tracer; -1 = root
  std::uint64_t request = 0; ///< request id (serve_mix), else 0

  [[nodiscard]] double seconds() const {
    return static_cast<double>(end_ns - start_ns) * 1e-9;
  }
};

class Tracer {
 public:
  /// Open a span under the innermost open one; returns its index.
  /// `start_ns` < 0 means now.
  std::int32_t begin(const char* name, std::uint64_t request = 0,
                     std::int64_t start_ns = -1);
  /// Close span `id` (the innermost open one). `end_ns` < 0 means now.
  void end(std::int32_t id, std::int64_t end_ns = -1);

  [[nodiscard]] const std::vector<Span>& spans() const { return spans_; }
  [[nodiscard]] std::size_t size() const { return spans_.size(); }

  /// Total duration per span name over spans [first, size()).
  [[nodiscard]] std::map<std::string, double> totals_since(
      std::size_t first) const;

 private:
  std::vector<Span> spans_;
  std::vector<std::int32_t> open_;
};

class SpanScope {
 public:
  SpanScope(Tracer& tracer, const char* name, std::uint64_t request = 0)
      : tracer_(tracer), id_(tracer.begin(name, request)) {}
  ~SpanScope() { tracer_.end(id_); }
  SpanScope(const SpanScope&) = delete;
  SpanScope& operator=(const SpanScope&) = delete;

 private:
  Tracer& tracer_;
  std::int32_t id_;
};

/// Self time per span name under roots named `root`: a span's duration
/// minus what its children cover. The shares of all rows sum to 1, the
/// roots' total. Returns printable table lines.
[[nodiscard]] std::vector<std::string> self_time_table(
    const std::vector<const Tracer*>& tracers, const std::string& root);

/// Write every span as one JSON object per line: thread, id, name,
/// start/end (ns), parent and request id. Returns false on I/O error.
bool write_spans(const std::vector<const Tracer*>& tracers,
                 const std::string& path);

}  // namespace perfbench
