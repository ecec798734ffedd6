#include "selftest.h"

#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "core/sqlb_method.h"
#include "experiments/experiments.h"
#include "report.h"
#include "runtime/mediation_system.h"
#include "sqlb/service.h"
#include "stats.h"
#include "timed_method.h"
#include "workloads.h"

namespace perfbench {
namespace {

int failures = 0;

void Expect(bool ok, const std::string& what) {
  std::printf("  self-test %-4s %s\n", ok ? "ok" : "FAIL", what.c_str());
  if (!ok) ++failures;
}

/// Every output of a DES run the benchmark reads, compared exactly.
bool SameRun(const sqlb::runtime::RunResult& a,
             const sqlb::runtime::RunResult& b) {
  if (a.queries_issued != b.queries_issued ||
      a.queries_completed != b.queries_completed ||
      a.queries_infeasible != b.queries_infeasible ||
      a.response_time.count() != b.response_time.count() ||
      a.response_time.mean() != b.response_time.mean() ||
      a.response_time.variance() != b.response_time.variance() ||
      a.series.Names() != b.series.Names()) {
    return false;
  }
  for (const std::string& name : a.series.Names()) {
    if (a.series.Find(name)->samples != b.series.Find(name)->samples) {
      return false;
    }
  }
  return true;
}

/// A wrapped-method run must decide exactly like an unwrapped one.
void WrappedRunIsIdentical(sqlb::Mode mode) {
  sqlb::Config config;
  config.mode = mode;
  config.scenario() = sqlb::experiments::PaperConfig(/*seed=*/7);
  config.scenario().population.num_consumers = 24;
  config.scenario().population.num_providers = 48;
  config.scenario().workload = sqlb::runtime::WorkloadSpec::Constant(0.95);
  config.scenario().duration = 300.0;
  config.scenario().stats_warmup = 50.0;
  if (mode == sqlb::Mode::kSharded) {
    config.sharded.router.num_shards = 4;
    config.sharded.router.policy = sqlb::shard::RoutingPolicy::kLocality;
    config.sharded.rerouting_enabled = false;
    config.sharded.worker_threads = 2;
    config.sharded.adaptive_batch.enabled = true;
    config.sharded.adaptive_batch.min_window = 0.0;
    config.sharded.adaptive_batch.max_window = 0.5;
  }
  const sqlb::runtime::RunResult plain =
      sqlb::Service::Create(config, PlainFactory())->Run().run;
  SpanRecorder spans;
  ScoreProbe probe(&spans, 1, 0);
  const sqlb::runtime::RunResult wrapped =
      sqlb::Service::Create(config,
                            [&probe](std::uint32_t shard) {
                              return probe.Wrap(
                                  std::make_unique<sqlb::SqlbMethod>(), shard);
                            })
          ->Run()
          .run;
  const ScoreStats total = probe.Total();
  const char* label = mode == sqlb::Mode::kMono ? "mono" : "sharded";
  Expect(SameRun(plain, wrapped),
         std::string(label) + ": wrapped-method run bit-identical to plain (" +
             std::to_string(plain.queries_issued) + " queries)");
  Expect(total.queries == plain.queries_issued - plain.queries_infeasible &&
             total.calls > 0 && spans.size() == total.calls,
         std::string(label) + ": wrapper saw every mediated query and " +
             "recorded one span per call");
}

RungResult Rung(double qps, std::uint64_t shed, double drain_s,
                double late_s) {
  RungResult rung;
  rung.offered_qps = qps;
  rung.submit_qps = qps;
  rung.shed = shed;
  rung.drain_seconds = drain_s;
  rung.gen_late_p99_seconds = late_s;
  return rung;
}

void LadderPicksRightRung() {
  const RungResult ok1 = Rung(1e5, 0, 0.001, 1e-4);
  const RungResult ok2 = Rung(2e5, 0, 0.009, 1e-4);
  const RungResult shed = Rung(3e5, 5, 0.001, 1e-4);
  const RungResult slow_drain = Rung(3e5, 0, 0.011, 1e-4);
  const RungResult late = Rung(3e5, 0, 0.001, 2e-3);
  const RungResult ok4 = Rung(4e5, 0, 0.001, 1e-4);
  Expect(LadderVerdict({ok1, ok2, shed}) == 1, "ladder: shed rung ends it");
  Expect(LadderVerdict({ok1, ok2, slow_drain, ok4}) == 1,
         "ladder: drain over 10 ms fails a rung; later rungs do not count");
  Expect(LadderVerdict({ok1, ok2, late}) == 1,
         "ladder: a late generator invalidates its rung");
  Expect(LadderVerdict({shed, ok2}) == -1, "ladder: failing first rung");
  Expect(LadderVerdict({ok1, ok2, ok4}) == 2, "ladder: all rungs pass");
}

void SloShareFromKnownSamples() {
  sqlb::obs::Histogram histogram;
  for (int i = 0; i < 3; ++i) histogram.Record(0.0005);
  histogram.Record(0.0009);
  histogram.Record(0.000001);
  histogram.Record(0.002);
  histogram.Record(0.5);
  // 7 recorded, 5 within 1 ms; 1 more offered but shed.
  const double share = SloShare(histogram, 1e-3, 8);
  Expect(share == 5.0 / 8.0, "slo_share: 5 of 8 offered within 1 ms (got " +
                                 FormatNumber(share) + ")");
  Expect(SloShare(histogram, 1e-3, 0) == 0.0, "slo_share: nothing offered");
}

void NumbersPrintExactly() {
  Expect(FormatNumber(300000.0) == "300000", "format: 300000 not 3e+05");
  Expect(FormatNumber(0.00001) == "0.00001", "format: 1e-05 in fixed form");
  Expect(FormatNumber(1.2034) == "1.2034", "format: shortest round trip");
}

}  // namespace

int RunSelfTests() {
  failures = 0;
  WrappedRunIsIdentical(sqlb::Mode::kMono);
  WrappedRunIsIdentical(sqlb::Mode::kSharded);
  LadderPicksRightRung();
  SloShareFromKnownSamples();
  NumbersPrintExactly();
  std::printf("self-tests: %s\n", failures == 0 ? "all passed" : "FAILED");
  return failures;
}

}  // namespace perfbench
