#include "timed_method.h"

#include <algorithm>
#include <utility>

namespace perfbench {

void ScoreStats::Merge(const ScoreStats& other) {
  calls += other.calls;
  queries += other.queries;
  candidates += other.candidates;
  score_seconds += other.score_seconds;
  stalls += other.stalls;
  stall_seconds += other.stall_seconds;
  stall_max_seconds = std::max(stall_max_seconds, other.stall_max_seconds);
}

ScoreProbe::ScoreProbe(SpanRecorder* spans, std::uint32_t span_every,
                       std::uint64_t parent_span)
    : spans_(spans),
      span_every_(std::max<std::uint32_t>(1, span_every)),
      parent_span_(parent_span) {}

std::unique_ptr<sqlb::AllocationMethod> ScoreProbe::Wrap(
    std::unique_ptr<sqlb::AllocationMethod> inner, std::uint32_t shard) {
  std::lock_guard<std::mutex> lock(mu_);
  if (frozen_) return inner;
  stats_.push_back(std::make_shared<ScoreStats>());
  return std::make_unique<TimedMethod>(std::move(inner), stats_.back(), this,
                                       shard);
}

void ScoreProbe::Freeze() {
  std::lock_guard<std::mutex> lock(mu_);
  frozen_ = true;
}

ScoreStats ScoreProbe::Total() const {
  std::lock_guard<std::mutex> lock(mu_);
  ScoreStats total;
  for (const auto& stats : stats_) total.Merge(*stats);
  return total;
}

TimedMethod::TimedMethod(std::unique_ptr<sqlb::AllocationMethod> inner,
                         std::shared_ptr<ScoreStats> stats,
                         const ScoreProbe* probe, std::uint32_t shard)
    : inner_(std::move(inner)),
      stats_(std::move(stats)),
      probe_(probe),
      shard_(shard) {}

Clock::time_point TimedMethod::Begin() {
  const Clock::time_point now = Clock::now();
  if (stats_->any_call) {
    const double gap =
        std::chrono::duration<double>(now - stats_->last_end).count();
    if (gap > ScoreStats::kStallThreshold) {
      ++stats_->stalls;
      stats_->stall_seconds += gap;
      stats_->stall_max_seconds = std::max(stats_->stall_max_seconds, gap);
    }
  }
  return now;
}

void TimedMethod::End(Clock::time_point begin, std::size_t queries,
                      std::size_t candidates) {
  const Clock::time_point end = Clock::now();
  stats_->score_seconds += std::chrono::duration<double>(end - begin).count();
  stats_->queries += queries;
  stats_->candidates += candidates;
  stats_->last_end = end;
  stats_->any_call = true;
  if (probe_->spans_ != nullptr && stats_->calls % probe_->span_every_ == 0) {
    probe_->spans_->Record("core.score", begin, end, probe_->parent_span_,
                           shard_);
  }
  ++stats_->calls;
}

sqlb::AllocationDecision TimedMethod::Allocate(
    const sqlb::AllocationRequest& request) {
  const Clock::time_point begin = Begin();
  sqlb::AllocationDecision decision = inner_->Allocate(request);
  End(begin, 1, request.candidates.size());
  return decision;
}

void TimedMethod::AllocateBatch(const sqlb::AllocationRequest* requests,
                                std::size_t count,
                                sqlb::AllocationDecision* decisions) {
  const Clock::time_point begin = Begin();
  inner_->AllocateBatch(requests, count, decisions);
  std::size_t candidates = 0;
  for (std::size_t i = 0; i < count; ++i) {
    candidates += requests[i].candidates.size();
  }
  End(begin, count, candidates);
}

sqlb::AllocationDecision TimedMethod::AllocateColumns(
    const sqlb::ColumnarRequest& request) {
  const Clock::time_point begin = Begin();
  sqlb::AllocationDecision decision = inner_->AllocateColumns(request);
  End(begin, 1, request.candidates->size());
  return decision;
}

void TimedMethod::AllocateBatchColumns(const sqlb::ColumnarRequest* requests,
                                       std::size_t count,
                                       sqlb::AllocationDecision* decisions) {
  const Clock::time_point begin = Begin();
  inner_->AllocateBatchColumns(requests, count, decisions);
  std::size_t candidates = 0;
  for (std::size_t i = 0; i < count; ++i) {
    candidates += requests[i].candidates->size();
  }
  End(begin, count, candidates);
}

}  // namespace perfbench
