#ifndef PERFBENCH_SPANS_H_
#define PERFBENCH_SPANS_H_

#include <chrono>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

/// \file
/// In-memory span recorder for the traced run: name, start, end, parent and
/// the lane (thread or shard) that ran it. Spans are timed around calls into
/// the library's public functions; nothing inside the library is touched.
/// Written once, at exit, as Chrome/Perfetto trace-event JSON.

namespace perfbench {

class SpanRecorder {
 public:
  using Clock = std::chrono::steady_clock;

  /// Spans past this count are dropped (and counted), bounding memory.
  static constexpr std::size_t kMaxSpans = 200000;

  SpanRecorder() : t0_(Clock::now()) {}

  /// Reserves an id for a span that is recorded later (so children can name
  /// their parent before it has ended).
  std::uint64_t NewId();
  /// Records a finished span; `id` 0 allocates a fresh one. Returns the id.
  std::uint64_t Record(const char* name, Clock::time_point begin,
                       Clock::time_point end, std::uint64_t parent,
                       std::uint32_t lane, std::uint64_t id = 0);

  std::size_t size() const;
  std::uint64_t dropped() const;
  /// Writes {"otherData": <metadata>, "traceEvents": [...]} to `path`;
  /// `metadata_json` must be a JSON object. False on I/O failure.
  bool WriteChromeJson(const std::string& path,
                       const std::string& metadata_json) const;

 private:
  struct Span {
    const char* name;
    std::uint64_t id;
    std::uint64_t parent;
    std::uint32_t lane;
    double begin_us;
    double end_us;
  };

  const Clock::time_point t0_;
  mutable std::mutex mu_;
  std::vector<Span> spans_;
  std::uint64_t next_id_ = 1;
  std::uint64_t dropped_ = 0;
};

/// Times its own lifetime into a recorder as one top-level span (parent 0,
/// lane 0); inert when the recorder is null.
class ScopedSpan {
 public:
  ScopedSpan(SpanRecorder* spans, const char* name);
  ~ScopedSpan();
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  std::uint64_t id() const { return id_; }

 private:
  SpanRecorder* spans_;
  const char* name_;
  std::uint64_t id_;
  SpanRecorder::Clock::time_point begin_;
};

}  // namespace perfbench

#endif  // PERFBENCH_SPANS_H_
