#ifndef PERFBENCH_TIMED_METHOD_H_
#define PERFBENCH_TIMED_METHOD_H_

#include <chrono>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "core/allocation.h"
#include "spans.h"

/// \file
/// The traced run's view into the `core` scoring layer, taken from outside:
/// a decorator around the allocation method the factory returns. It
/// forwards every entry point (the four Allocate* calls and
/// RequiredColumns()) unchanged, so the gather and every decision stay
/// identical, and times each call on the steady clock.

namespace perfbench {

using Clock = std::chrono::steady_clock;

/// Per-shard scoring statistics. Single writer: the thread that owns the
/// shard's method (a DES worker or a serving group thread). Read only after
/// that thread has stopped.
struct ScoreStats {
  std::uint64_t calls = 0;
  std::uint64_t queries = 0;
  std::uint64_t candidates = 0;
  double score_seconds = 0.0;
  /// Gaps over kStallThreshold between the end of one scoring call and the
  /// start of the next on this shard.
  std::uint64_t stalls = 0;
  double stall_seconds = 0.0;
  double stall_max_seconds = 0.0;
  Clock::time_point last_end{};
  bool any_call = false;

  static constexpr double kStallThreshold = 1e-3;

  void Merge(const ScoreStats& other);
};

/// Every method the factory built for one live system, kept alive beyond
/// the methods themselves (the service owns and destroys those).
class ScoreProbe {
 public:
  /// `spans` (optional) receives one span per `span_every`-th scoring call
  /// on each shard, parented to span `parent_span`.
  ScoreProbe(SpanRecorder* spans, std::uint32_t span_every,
             std::uint64_t parent_span);

  /// The factory hook: wraps `inner` for `shard` (returns it unwrapped
  /// once frozen).
  std::unique_ptr<sqlb::AllocationMethod> Wrap(
      std::unique_ptr<sqlb::AllocationMethod> inner, std::uint32_t shard);
  /// Stops wrapping: methods built later (the replay oracle's) run untimed
  /// and leave the live system's stats alone.
  void Freeze();

  /// Stats summed over every wrapped method.
  ScoreStats Total() const;

 private:
  friend class TimedMethod;
  SpanRecorder* spans_;
  std::uint32_t span_every_;
  std::uint64_t parent_span_;
  mutable std::mutex mu_;
  bool frozen_ = false;
  std::vector<std::shared_ptr<ScoreStats>> stats_;
};

class TimedMethod final : public sqlb::AllocationMethod {
 public:
  TimedMethod(std::unique_ptr<sqlb::AllocationMethod> inner,
              std::shared_ptr<ScoreStats> stats, const ScoreProbe* probe,
              std::uint32_t shard);

  std::string name() const override { return inner_->name(); }
  sqlb::AllocationDecision Allocate(
      const sqlb::AllocationRequest& request) override;
  void AllocateBatch(const sqlb::AllocationRequest* requests,
                     std::size_t count,
                     sqlb::AllocationDecision* decisions) override;
  sqlb::AllocationDecision AllocateColumns(
      const sqlb::ColumnarRequest& request) override;
  void AllocateBatchColumns(const sqlb::ColumnarRequest* requests,
                            std::size_t count,
                            sqlb::AllocationDecision* decisions) override;
  sqlb::CandidateColumnNeeds RequiredColumns() const override {
    return inner_->RequiredColumns();
  }

 private:
  Clock::time_point Begin();
  void End(Clock::time_point begin, std::size_t queries,
           std::size_t candidates);

  std::unique_ptr<sqlb::AllocationMethod> inner_;
  std::shared_ptr<ScoreStats> stats_;
  const ScoreProbe* probe_;
  std::uint32_t shard_;
};

}  // namespace perfbench

#endif  // PERFBENCH_TIMED_METHOD_H_
