#include "spans.h"

#include <cstdio>

namespace perfbench {

std::uint64_t SpanRecorder::NewId() {
  std::lock_guard<std::mutex> lock(mu_);
  return next_id_++;
}

std::uint64_t SpanRecorder::Record(const char* name, Clock::time_point begin,
                                   Clock::time_point end,
                                   std::uint64_t parent, std::uint32_t lane,
                                   std::uint64_t id) {
  std::lock_guard<std::mutex> lock(mu_);
  if (id == 0) id = next_id_++;
  if (spans_.size() >= kMaxSpans) {
    ++dropped_;
    return id;
  }
  const auto us = [this](Clock::time_point t) {
    return std::chrono::duration<double, std::micro>(t - t0_).count();
  };
  spans_.push_back(Span{name, id, parent, lane, us(begin), us(end)});
  return id;
}

std::size_t SpanRecorder::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return spans_.size();
}

std::uint64_t SpanRecorder::dropped() const {
  std::lock_guard<std::mutex> lock(mu_);
  return dropped_;
}

bool SpanRecorder::WriteChromeJson(const std::string& path,
                                   const std::string& metadata_json) const {
  std::lock_guard<std::mutex> lock(mu_);
  std::FILE* out = std::fopen(path.c_str(), "w");
  if (out == nullptr) return false;
  std::fprintf(out, "{\"otherData\":%s,\"traceEvents\":[",
               metadata_json.c_str());
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::fprintf(out,
                 "%s\n{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":%u,"
                 "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%llu,"
                 "\"parent\":%llu}}",
                 i == 0 ? "" : ",", s.name, s.lane, s.begin_us,
                 s.end_us - s.begin_us, static_cast<unsigned long long>(s.id),
                 static_cast<unsigned long long>(s.parent));
  }
  std::fprintf(out, "\n]}\n");
  return std::fclose(out) == 0;
}

ScopedSpan::ScopedSpan(SpanRecorder* spans, const char* name)
    : spans_(spans),
      name_(name),
      id_(spans != nullptr ? spans->NewId() : 0),
      begin_(SpanRecorder::Clock::now()) {}

ScopedSpan::~ScopedSpan() {
  if (spans_ != nullptr) {
    spans_->Record(name_, begin_, SpanRecorder::Clock::now(), 0, 0, id_);
  }
}

}  // namespace perfbench
