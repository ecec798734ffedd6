#include "workloads.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "core/sqlb_method.h"
#include "experiments/experiments.h"
#include "runtime/mediation_core.h"
#include "runtime/mediation_system.h"
#include "stats.h"
#include "timed_method.h"
#include "workload/population.h"

namespace perfbench {
namespace {

// --- Workload parameters -----------------------------------------------------

/// DES tiers: the paper's Table 2 population at constant 95% load.
constexpr double kDesLoad = 0.95;
constexpr double kDesSimSeconds = 100.0;
constexpr double kDesWarmupSimSeconds = 20.0;
constexpr std::size_t kDesShards = 8;

/// Serving tiers: offered load as a share of the population's simulated
/// capacity (sets time_scale for each wall rate).
constexpr double kServingLoad = 0.8;
constexpr std::size_t kServingShards = 4;
/// serve-intake: the rate ladder (q/s); the first rung is the latency rung.
/// Every rung offers the same number of requests, so each records the same
/// replay trace and the run's memory peak does not hinge on one rung.
constexpr double kLadderRates[] = {100000.0, 200000.0, 300000.0, 400000.0};
constexpr double kRungRequests = 100000.0;
/// serve-intake capacity sessions: several times the rate one mediator
/// thread serves (about 350k q/s on 4 hardware threads), with time_scale set
/// for the ladder's top rung.
constexpr double kIntakeCapacityRate = 2000000.0;
constexpr double kIntakeCapacityRequests = 50000.0;
constexpr double kIntakeCapacityScaleRate = 400000.0;
/// serve-paper-m2: one fixed latency rate, and capacity sessions offered
/// several times what two mediator threads serve (about 95k q/s), with
/// time_scale set for 100k q/s.
constexpr double kPaperRate = 40000.0;
constexpr double kPaperSessionSeconds = 2.0;
constexpr double kPaperCapacityRate = 400000.0;
constexpr double kPaperCapacityRequests = 50000.0;
constexpr double kPaperCapacityScaleRate = 100000.0;
/// Capacity sessions are short and each one's rate varies widely on a shared
/// host, so a run takes more of them than latency sessions.
constexpr int kCapacitySessionsPerLatency = 2;
/// The generator waits at least this long between sends and presents
/// everything that fell due meanwhile in one SubmitMany. It waits spinning
/// (with a yield), so its schedule does not depend on timer slack or on how
/// fast the kernel wakes a sleeping thread.
constexpr auto kGeneratorTick = std::chrono::microseconds(50);
/// Submit-to-mediation latency limit behind slo_share.
constexpr double kSloSeconds = 1e-3;
/// One span per this many scoring calls per shard.
constexpr std::uint32_t kScoreSpanEvery = 64;
/// One span per this many SubmitMany calls.
constexpr std::uint64_t kSubmitSpanEvery = 256;

unsigned HardwareThreads() {
  return std::max(1u, std::thread::hardware_concurrency());
}

double Seconds(Clock::time_point begin, Clock::time_point end) {
  return std::chrono::duration<double>(end - begin).count();
}

sqlb::Service::MethodFactory TimedFactory(ScoreProbe* probe) {
  return [probe](std::uint32_t shard) {
    return probe->Wrap(std::make_unique<sqlb::SqlbMethod>(), shard);
  };
}

/// Wall budget of one run: repeat until `seconds` have passed since
/// construction, and at least `min_reps` times.
class Budget {
 public:
  Budget(double seconds, int min_reps)
      : begin_(Clock::now()), seconds_(seconds), min_reps_(min_reps) {}
  bool More(int reps_done) const {
    return reps_done < min_reps_ || Seconds(begin_, Clock::now()) < seconds_;
  }

 private:
  Clock::time_point begin_;
  double seconds_;
  int min_reps_;
};

/// Extra set-ups timed before each rep or session, so the samples are
/// spread through the whole run. setup_s is the fastest of them (and, on
/// serving, of each session's own set-up): a set-up is a fixed amount of
/// work, and on a shared host its time swings by 2x from one moment to the
/// next, so the fastest sample is the one that measures the work rather
/// than the neighbours.
constexpr int kSetupSamplesPerRep = 8;

/// Simulated length of the scenario a DES set-up sample runs: the mono tier
/// builds its system inside Run(), so a DES set-up is Create plus Run() of
/// the same scenario cut to (almost) nothing.
constexpr double kSetupSimSeconds = 1e-3;

/// Appends the wall time from Service::Create until the system is ready,
/// for `count` fresh systems: Create + Run() of a near-empty scenario for
/// the simulation modes; Create + RegisterProducer + Start for serving
/// (each serving system is stopped again, untimed).
void SampleSetups(const sqlb::Config& config, int count,
                  std::vector<double>* samples) {
  const bool serving = config.mode == sqlb::Mode::kServing;
  sqlb::Config setup = config;
  if (!serving) {
    setup.scenario().duration = kSetupSimSeconds;
    setup.scenario().stats_warmup = 0.0;
  }
  for (int i = 0; i < count; ++i) {
    const Clock::time_point t0 = Clock::now();
    std::unique_ptr<sqlb::Service> service =
        sqlb::Service::Create(setup, PlainFactory());
    if (serving) {
      service->RegisterProducer();
      service->Start();
    } else {
      service->Run();
    }
    samples->push_back(Seconds(t0, Clock::now()));
    if (serving) service->Stop();
  }
}

/// Traced runs alternate untraced and traced reps or sessions:
/// `plain_value(i)` ran just before `traced_value(i)` and, when there is one,
/// `plain_value(i + 1)` just after. Returns the median over the traced items
/// of each traced value over the mean of its untraced neighbours, so the
/// host's drift cancels.
template <typename Traced, typename Plain>
double NeighbourRatio(std::size_t traced_count, std::size_t plain_count,
                      Traced traced_value, Plain plain_value) {
  std::vector<double> ratios;
  for (std::size_t i = 0; i < traced_count; ++i) {
    const double neighbours =
        i + 1 < plain_count ? 0.5 * (plain_value(i) + plain_value(i + 1))
                            : plain_value(i);
    ratios.push_back(traced_value(i) / neighbours);
  }
  return Median(ratios);
}

/// The end-to-end metrics every workload reports (see BENCHMARK.json).
struct EndToEnd {
  double setup_s = 0.0;
  double alloc_per_s = 0.0;
  double p50_us = 0.0;
  double slo_share = 0.0;
};

void ReportEndToEnd(const EndToEnd& e, Report* report) {
  report->EndToEnd("setup_s", e.setup_s, "s");
  report->EndToEnd("alloc_per_s", e.alloc_per_s, "1/s");
  report->EndToEnd("p50_us", e.p50_us, "us");
  report->EndToEnd("slo_share", e.slo_share, "share");
  report->EndToEnd("peak_rss_mb", PeakRssMb(), "MB");
}

/// The per-layer metrics every traced run reports; a layer a workload does
/// not exercise stays 0.
struct Layers {
  double create_s = 0.0;
  double drain_s = 0.0;
  double submit_ns = 0.0;
  double run_len = 0.0;
  double shed = 0.0;
  double late_p99_us = 0.0;
  double bursts = 0.0;
  double queries_per_burst = 0.0;
  double idle_parks = 0.0;
  double spurious_wakes = 0.0;
  double stall_s = 0.0;
  double stall_max_ms = 0.0;
  double wait_p99_us = 0.0;
  double score_ns = 0.0;
  double candidates_per_query = 0.0;
  double queries_per_call = 0.0;
  double score_share = 0.0;
  double engine_ns = 0.0;
  double batch_flushes = 0.0;
  double batched_queries = 0.0;
  double gossip_load_messages = 0.0;
  double score_parallelism = 0.0;
  double trace_overhead = 0.0;

  /// The per-call scoring shape from a merged ScoreStats.
  void SetScoring(const ScoreStats& score) {
    candidates_per_query = static_cast<double>(score.candidates) /
                           static_cast<double>(score.queries);
    queries_per_call = static_cast<double>(score.queries) /
                       static_cast<double>(score.calls);
  }
};

void ReportLayers(const Layers& l, Report* report) {
  report->Layer("sqlb.create_s", l.create_s, "s");
  report->Layer("sqlb.drain_s", l.drain_s, "s");
  report->Layer("intake.submit_ns", l.submit_ns, "ns");
  report->Layer("intake.run_len", l.run_len, "queries");
  report->Layer("intake.shed", l.shed, "count");
  report->Layer("gen.late_p99_us", l.late_p99_us, "us");
  report->Layer("group.bursts", l.bursts, "count");
  report->Layer("group.queries_per_burst", l.queries_per_burst, "queries");
  report->Layer("group.idle_parks", l.idle_parks, "count");
  report->Layer("group.spurious_wakes", l.spurious_wakes, "count");
  report->Layer("group.stall_s", l.stall_s, "s");
  report->Layer("group.stall_max_ms", l.stall_max_ms, "ms");
  report->Layer("batch.wait_p99_us", l.wait_p99_us, "us");
  report->Layer("score.ns_per_query", l.score_ns, "ns");
  report->Layer("score.candidates_per_query", l.candidates_per_query,
                "candidates");
  report->Layer("score.queries_per_call", l.queries_per_call, "queries");
  report->Layer("score.share", l.score_share, "share");
  report->Layer("engine.ns_per_query", l.engine_ns, "ns");
  report->Layer("shard.batch_flushes", l.batch_flushes, "count");
  report->Layer("shard.batched_queries", l.batched_queries, "count");
  report->Layer("gossip.load_messages", l.gossip_load_messages, "count");
  report->Layer("shard.score_parallelism", l.score_parallelism, "threads");
  report->Layer("trace.overhead", l.trace_overhead, "ratio");
}

// --- DES workloads -----------------------------------------------------------

bool IsSharded(const std::string& workload) {
  return workload == "des-shard8";
}

sqlb::Config DesConfig(const std::string& workload, std::uint64_t seed) {
  sqlb::Config config;
  config.mode = IsSharded(workload) ? sqlb::Mode::kSharded : sqlb::Mode::kMono;
  sqlb::runtime::SystemConfig& scenario = config.scenario();
  scenario = sqlb::experiments::PaperConfig(seed);
  scenario.workload = sqlb::runtime::WorkloadSpec::Constant(kDesLoad);
  scenario.duration = kDesSimSeconds;
  scenario.stats_warmup = kDesWarmupSimSeconds;
  if (IsSharded(workload)) {
    // The scale_sharding strict-parity arm: consumer-affine routing, no
    // re-routing, adaptive per-shard windows sized for ~8-query bursts.
    sqlb::shard::ShardedSystemConfig& sharded = config.sharded;
    sharded.router.num_shards = kDesShards;
    sharded.router.policy = sqlb::shard::RoutingPolicy::kLocality;
    sharded.rerouting_enabled = false;
    sharded.parity = sqlb::shard::ParityMode::kStrict;
    sharded.worker_threads = std::min(4u, HardwareThreads());
    const sqlb::Population population(scenario.population, scenario.seed);
    const double rate =
        sqlb::runtime::NominalMaxArrivalRate(scenario, population);
    sharded.adaptive_batch.enabled = true;
    sharded.adaptive_batch.min_window = 0.0;
    sharded.adaptive_batch.max_window =
        std::min(2.0, 8.0 * static_cast<double>(kDesShards) / rate);
  }
  return config;
}

/// One Create + Run of a DES workload.
struct DesRep {
  double create_s = 0.0;
  double run_s = 0.0;
  std::uint64_t issued = 0;
  std::uint64_t completed = 0;
  std::uint64_t infeasible = 0;
  std::uint64_t reissued = 0;
  double mean_rt_s = 0.0;
  double cons_allocsat = 0.0;
  double rt_p50_s = 0.0;
  double rt_p99_s = 0.0;
  /// Queries mediated within kSloSeconds of arrival on the simulated clock
  /// (batch wait; an unbatched query is mediated at arrival).
  std::uint64_t within_slo = 0;
  double batch_wait_p99_s = 0.0;
  std::uint64_t batch_flushes = 0;
  std::uint64_t batched_queries = 0;
  std::uint64_t gossip_load_messages = 0;
  /// Traced reps only.
  ScoreStats score;

  double alloc_per_s() const {
    return static_cast<double>(issued) / run_s;
  }
  /// The outputs a traced rep must reproduce exactly.
  bool SameOutputs(const DesRep& other) const {
    return issued == other.issued && completed == other.completed &&
           infeasible == other.infeasible && reissued == other.reissued &&
           mean_rt_s == other.mean_rt_s &&
           cons_allocsat == other.cons_allocsat;
  }
};

DesRep RunDesRep(const sqlb::Config& config, SpanRecorder* spans) {
  DesRep rep;
  ScopedSpan rep_span(spans, "des.rep");
  const std::uint64_t run_id = spans != nullptr ? spans->NewId() : 0;
  ScoreProbe probe(spans, kScoreSpanEvery, run_id);
  sqlb::Service::MethodFactory factory =
      spans != nullptr ? TimedFactory(&probe) : PlainFactory();

  const Clock::time_point t0 = Clock::now();
  std::unique_ptr<sqlb::Service> service =
      sqlb::Service::Create(config, factory);
  const Clock::time_point t1 = Clock::now();
  const sqlb::shard::ShardedRunResult result = service->Run();
  const Clock::time_point t2 = Clock::now();
  if (spans != nullptr) {
    spans->Record("sqlb.Create", t0, t1, rep_span.id(), 0);
    spans->Record("sqlb.Run", t1, t2, rep_span.id(), 0, run_id);
  }
  rep.create_s = Seconds(t0, t1);
  rep.run_s = Seconds(t1, t2);

  const sqlb::runtime::RunResult& run = result.run;
  rep.issued = run.queries_issued;
  rep.completed = run.queries_completed;
  rep.infeasible = run.queries_infeasible;
  rep.reissued = run.queries_reissued;
  rep.mean_rt_s = run.response_time.mean();
  rep.rt_p50_s = run.ResponseTimeQuantile(0.50);
  rep.rt_p99_s = run.ResponseTimeQuantile(0.99);
  const sqlb::des::TimeSeries* allocsat =
      run.series.Find(sqlb::runtime::MediationSystem::kSeriesConsAllocSatMean);
  if (allocsat != nullptr && !allocsat->samples.empty()) {
    rep.cons_allocsat = allocsat->samples.back().second;
  }
  const sqlb::obs::Histogram* wait =
      run.metrics.FindHistogram(sqlb::obs::kMetricBatchWait);
  const std::uint64_t batched = wait != nullptr ? wait->count() : 0;
  const std::uint64_t unbatched = rep.issued - rep.infeasible - batched;
  rep.within_slo =
      unbatched + (wait != nullptr ? CountWithin(*wait, kSloSeconds) : 0);
  rep.batch_wait_p99_s =
      run.metrics.HistogramQuantile(sqlb::obs::kMetricBatchWait, 0.99);
  rep.batch_flushes = result.batch_flushes;
  rep.batched_queries = result.batched_queries;
  rep.gossip_load_messages = result.gossip_load_messages;
  service.reset();
  if (spans != nullptr) {
    rep.score = probe.Total();
  }
  return rep;
}

void CheckDesRep(const std::string& label, const DesRep& rep, Report* report) {
  report->Check(rep.completed + rep.infeasible == rep.issued,
                label + ": completed " + std::to_string(rep.completed) +
                    " + infeasible " + std::to_string(rep.infeasible) +
                    " == issued " + std::to_string(rep.issued));
  report->Check(rep.reissued == 0, label + ": no re-issued queries");
}

void RunDes(const RunOptions& options, Report* report, SpanRecorder* spans) {
  const sqlb::Config config = DesConfig(options.workload, options.seed);
  const bool sharded = IsSharded(options.workload);
  const std::size_t threads = sharded ? config.sharded.worker_threads : 1;

  std::vector<DesRep> plain;
  std::vector<DesRep> traced;
  std::vector<double> setups;
  Budget budget(options.seconds, 4);
  for (int i = 0; budget.More(i); ++i) {
    if (!options.traced) SampleSetups(config, kSetupSamplesPerRep, &setups);
    // Traced runs alternate untraced and traced reps, so the overhead ratio
    // compares neighbours rather than the start and end of the run.
    const bool trace_this = options.traced && i % 2 == 1;
    DesRep rep = RunDesRep(config, trace_this ? spans : nullptr);
    CheckDesRep(std::string(trace_this ? "traced" : "untraced") + " rep " +
                    std::to_string(i),
                rep, report);
    report->Info("rep " + std::to_string(i) + (trace_this ? " traced" : "") +
                 ": Run() " + FormatNumber(rep.run_s) + " s, " +
                 FormatNumber(rep.alloc_per_s()) + " q/s");
    (trace_this ? traced : plain).push_back(std::move(rep));
  }
  const DesRep& first = plain.front();
  bool deterministic = true;
  for (const DesRep& rep : plain) deterministic &= rep.SameOutputs(first);
  report->Check(deterministic,
                "untraced reps of one seed agree exactly (counters, mean rt, "
                "allocsat)");
  for (const DesRep& rep : plain) report->Count(rep.issued, rep.infeasible);

  // Every rep does the same deterministic work, and the host slows whole
  // stretches of reps by a quarter or more, so the fastest rep is the one
  // that measures the work rather than the neighbours.
  const DesRep& fastest = *std::min_element(
      plain.begin(), plain.end(),
      [](const DesRep& a, const DesRep& b) { return a.run_s < b.run_s; });
  report->Info("reps: " + std::to_string(plain.size()) + " untraced, " +
               std::to_string(traced.size()) + " traced; " +
               std::to_string(first.issued) + " queries per rep over " +
               FormatNumber(kDesSimSeconds) + " simulated s");

  if (!options.traced) {
    // Figures with no wall-clock counterpart on a simulated tier, printed
    // for every run but outside the gated set (see perfbench/README.md).
    report->Info("mean_rt_s " + FormatNumber(first.mean_rt_s) +
                 " s (simulated response time, post-warmup)");
    report->Info("cons_allocsat " + FormatNumber(first.cons_allocsat) +
                 " (final consumer allocation satisfaction)");
    report->Info("response time p50 " + FormatNumber(first.rt_p50_s) +
                 " s, p99 " + FormatNumber(first.rt_p99_s) +
                 " s (simulated, " + std::to_string(first.completed) +
                 " completions)");
    report->Info("fail_share " +
                 FormatNumber(static_cast<double>(first.infeasible) /
                              static_cast<double>(first.issued)) +
                 " (infeasible / issued)");
    EndToEnd e;
    e.setup_s = *std::min_element(setups.begin(), setups.end());
    e.alloc_per_s = fastest.alloc_per_s();
    e.p50_us = fastest.run_s * 1e6 / static_cast<double>(fastest.issued);
    e.slo_share = static_cast<double>(first.within_slo) /
                  static_cast<double>(first.issued);
    ReportEndToEnd(e, report);
    return;
  }

  bool traced_equal = true;
  for (const DesRep& rep : traced) traced_equal &= rep.SameOutputs(first);
  report->Check(traced_equal,
                "traced reps reproduce the untraced counters, mean_rt_s and "
                "cons_allocsat exactly");

  // Scoring and engine are thread-time per query: scoring summed over the
  // workers, engine the rest of threads x Run() wall (on the worker pool
  // that includes barrier waits).
  std::vector<double> create, score_ns, engine_ns, share, parallelism;
  ScoreStats score;
  for (std::size_t i = 0; i < traced.size(); ++i) {
    const DesRep& rep = traced[i];
    create.push_back(rep.create_s);
    const double queries = static_cast<double>(rep.issued);
    const double thread_wall = rep.run_s * static_cast<double>(threads);
    score_ns.push_back(rep.score.score_seconds * 1e9 / queries);
    engine_ns.push_back((thread_wall - rep.score.score_seconds) * 1e9 /
                        queries);
    share.push_back(rep.score.score_seconds / thread_wall);
    parallelism.push_back(rep.score.score_seconds / rep.run_s);
    score.Merge(rep.score);
  }
  const double overhead = NeighbourRatio(
      traced.size(), plain.size(),
      [&](std::size_t i) { return traced[i].run_s; },
      [&](std::size_t i) { return plain[i].run_s; });
  const DesRep& last = traced.back();
  Layers layers;
  layers.create_s = Median(create);
  layers.wait_p99_us = last.batch_wait_p99_s * 1e6;
  layers.score_ns = Median(score_ns);
  layers.SetScoring(score);
  layers.score_share = Median(share);
  layers.engine_ns = Median(engine_ns);
  layers.batch_flushes = static_cast<double>(last.batch_flushes);
  layers.batched_queries = static_cast<double>(last.batched_queries);
  layers.gossip_load_messages = static_cast<double>(last.gossip_load_messages);
  layers.score_parallelism = Median(parallelism);
  layers.trace_overhead = overhead;
  ReportLayers(layers, report);

  // Layer budget: within a traced rep, score + engine is the whole thread
  // time by construction; against the untraced rep before it, the rest of
  // the untraced wall is unattributed (negative when the traced rep ran
  // faster).
  report->Info("layer budget: threads x Run() wall = score " +
               FormatNumber(100.0 * Median(share)) + "% + engine " +
               FormatNumber(100.0 - 100.0 * Median(share)) + "% (" +
               FormatNumber(Median(score_ns)) + " + " +
               FormatNumber(Median(engine_ns)) +
               " ns/query, traced); unattributed share of the untraced "
               "Run() wall " + FormatNumber(1.0 - overhead) +
               " (median over traced reps against their untraced neighbours)");
  if (options.workload == "des-paper") {
    report->Check(std::fabs(overhead - 1.0) <= 0.10,
                  "score + engine within 10% of the untraced Run() wall "
                  "(median over traced reps against their untraced "
                  "neighbours)");
  }
  report->Info("peak_rss_mb " + FormatNumber(PeakRssMb()));
}

// --- Serving workloads -------------------------------------------------------

/// What one serving session offers: `requests` at `rate` q/s, with
/// time_scale set so that `scale_rate` q/s would be kServingLoad of the
/// population's simulated capacity (Population::total_capacity / mean query
/// units). Below saturation scale_rate is the offered rate.
struct Offer {
  double rate = 0.0;
  double requests = 0.0;
  double scale_rate = 0.0;

  double seconds() const { return requests / rate; }
};

Offer OpenLoop(double rate, double requests) {
  return Offer{rate, requests, rate};
}

/// A serving workload: its population and thread count, its latency
/// sessions (below saturation: p50_us, slo_share) and its capacity sessions.
/// A capacity session offers more than the mediator serves; its intake
/// queues hold every request (the request count is below
/// shards x max_queued_per_shard), so served per wall second from the first
/// submit to the end of Drain() is the mediator's rate, not the generator's.
/// Its time_scale follows a rate near that capacity rather than the flood
/// rate, which would multiply the simulated time, and the simulated work,
/// that passes per wall second.
struct ServingShape {
  bool paper_population = false;
  std::size_t mediator_threads = 1;
  Offer latency;
  Offer capacity;
};

ServingShape ShapeOf(const std::string& workload) {
  if (workload == "serve-paper-m2") {
    return ServingShape{
        true, 2, OpenLoop(kPaperRate, kPaperRate * kPaperSessionSeconds),
        Offer{kPaperCapacityRate, kPaperCapacityRequests,
              kPaperCapacityScaleRate}};
  }
  // serve-intake: the ladder's first rung is the latency rate.
  return ServingShape{false, 1, OpenLoop(kLadderRates[0], kRungRequests),
                      Offer{kIntakeCapacityRate, kIntakeCapacityRequests,
                            kIntakeCapacityScaleRate}};
}

/// The serving config for one session of `offer`.
sqlb::Config ServingServiceConfig(const ServingShape& shape,
                                  std::uint64_t seed, const Offer& offer) {
  sqlb::Config config;
  config.mode = sqlb::Mode::kServing;
  sqlb::runtime::SystemConfig& scenario = config.scenario();
  scenario = sqlb::experiments::PaperConfig(seed);
  if (!shape.paper_population) {
    scenario.population.num_consumers = 24;
    scenario.population.num_providers = 48;
  }
  scenario.record_series = false;
  const sqlb::Population population(scenario.population, scenario.seed);
  const double sim_rate = kServingLoad * population.total_capacity() /
                          population.mean_query_units();
  config.serving.time_scale = offer.scale_rate / sim_rate;
  scenario.duration = offer.seconds() * config.serving.time_scale;
  scenario.stats_warmup = 0.1 * scenario.duration;
  config.serving.shards = kServingShards;
  config.serving.mediator_threads = shape.mediator_threads;
  return config;
}

/// One serving session: Create + Start, an open-loop generator at `rate`
/// for `seconds`, Drain, Stop, and the replay oracle.
struct Session {
  double rate = 0.0;
  double time_scale = 0.0;
  double create_s = 0.0;
  double start_s = 0.0;
  RungResult rung;
  /// How late the generator presented each request against its schedule.
  sqlb::obs::Histogram late;
  std::uint64_t offered = 0;
  std::uint64_t accepted = 0;
  std::uint64_t runs = 0;
  double submit_seconds = 0.0;
  /// Served per wall second from the first submit to the end of Drain():
  /// the mediator's rate in a capacity session, the offered rate below
  /// saturation.
  double alloc_per_s = 0.0;
  sqlb::runtime::ServingReport report;
  bool replay_identical = false;
  std::string replay_diff;
  bool replay_conserved = false;
  ScoreStats score;

  double p_us(double q) const { return report.intake_wall.Quantile(q) * 1e6; }
  double slo_share() const {
    return SloShare(report.intake_wall, kSloSeconds, offered);
  }
};

Session RunSession(const ServingShape& shape, std::uint64_t seed,
                   std::uint64_t session_index, const Offer& offer,
                   SpanRecorder* spans) {
  Session session;
  const double rate = offer.rate;
  session.rate = rate;
  ScopedSpan session_span(spans, "serve.session");
  const std::uint64_t parent = session_span.id();

  const sqlb::Config config = ServingServiceConfig(shape, seed, offer);
  session.time_scale = config.serving.time_scale;
  const sqlb::Population population(config.scenario().population,
                                    config.scenario().seed);

  // The inputs: uniform consumers and query classes, from the seed.
  const std::uint64_t count = static_cast<std::uint64_t>(offer.requests);
  std::vector<sqlb::runtime::ServingRequest> requests(count);
  sqlb::Rng rng(seed * 0x9E3779B97F4A7C15ULL + session_index);
  const std::uint64_t consumers = config.scenario().population.num_consumers;
  const std::uint64_t classes = population.num_query_classes();
  for (sqlb::runtime::ServingRequest& request : requests) {
    request.consumer =
        static_cast<std::uint32_t>(rng.NextUint64() % consumers);
    request.class_index =
        static_cast<std::uint32_t>(rng.NextUint64() % classes);
  }

  ScoreProbe probe(spans, kScoreSpanEvery, parent);
  const sqlb::Service::MethodFactory factory =
      spans != nullptr ? TimedFactory(&probe) : PlainFactory();
  const Clock::time_point c0 = Clock::now();
  std::unique_ptr<sqlb::Service> service =
      sqlb::Service::Create(config, factory);
  sqlb::runtime::ServingProducer* producer = service->RegisterProducer();
  const Clock::time_point c1 = Clock::now();
  service->Start();
  const Clock::time_point c2 = Clock::now();
  session.create_s = Seconds(c0, c1);
  session.start_s = Seconds(c1, c2);
  if (spans != nullptr) {
    spans->Record("sqlb.Create", c0, c1, parent, 0);
    spans->Record("sqlb.Start", c1, c2, parent, 0);
  }

  // Open-loop generator on this thread: everything due goes out in one
  // SubmitMany; nothing shed is retried.
  sqlb::obs::Histogram& late = session.late;
  const Clock::time_point t0 = Clock::now();
  const double period = 1.0 / rate;
  std::uint64_t sent = 0;
  std::uint64_t calls = 0;
  while (sent < count) {
    const Clock::time_point now = Clock::now();
    const double elapsed = Seconds(t0, now);
    const std::uint64_t due = std::min<std::uint64_t>(
        count, static_cast<std::uint64_t>(elapsed * rate) + 1);
    if (due > sent) {
      for (std::uint64_t i = sent; i < due; ++i) {
        late.Record(std::max(0.0, elapsed - static_cast<double>(i) * period));
      }
      std::uint32_t previous_shard = UINT32_MAX;
      for (std::uint64_t i = sent; i < due; ++i) {
        const std::uint32_t shard =
            requests[i].consumer % static_cast<std::uint32_t>(kServingShards);
        session.runs += shard != previous_shard;
        previous_shard = shard;
      }
      const Clock::time_point s0 = Clock::now();
      const std::size_t accepted =
          service->SubmitMany(producer, requests.data() + sent, due - sent);
      const Clock::time_point s1 = Clock::now();
      session.submit_seconds += Seconds(s0, s1);
      if (spans != nullptr && calls % kSubmitSpanEvery == 0) {
        spans->Record("sqlb.SubmitMany", s0, s1, parent, 0);
      }
      ++calls;
      session.accepted += accepted;
      session.rung.shed += (due - sent) - accepted;
      sent = due;
    }
    const Clock::time_point next_due =
        t0 + std::chrono::duration_cast<Clock::duration>(
                 std::chrono::duration<double>(static_cast<double>(sent) *
                                               period));
    const Clock::time_point until = std::max(next_due, now + kGeneratorTick);
    while (Clock::now() < until) std::this_thread::yield();
  }
  const Clock::time_point g1 = Clock::now();
  service->Drain();
  const Clock::time_point g2 = Clock::now();
  session.report = service->Stop();
  const Clock::time_point g3 = Clock::now();
  if (spans != nullptr) {
    spans->Record("gen.open_loop", t0, g1, parent, 0);
    spans->Record("sqlb.Drain", g1, g2, parent, 0);
    spans->Record("sqlb.Stop", g2, g3, parent, 0);
  }
  session.offered = sent;
  session.alloc_per_s = static_cast<double>(session.report.served) /
                        Seconds(t0, g2);
  session.rung.offered_qps = rate;
  session.rung.submit_qps = static_cast<double>(sent) / Seconds(t0, g1);
  session.rung.drain_seconds = Seconds(g1, g2);
  session.rung.gen_late_p99_seconds = late.Quantile(0.99);
  probe.Freeze();
  session.score = probe.Total();

  const Clock::time_point r0 = Clock::now();
  const sqlb::runtime::ServingReplayResult replay = service->Replay();
  const Clock::time_point r1 = Clock::now();
  if (spans != nullptr) spans->Record("sqlb.Replay", r0, r1, parent, 0);
  session.replay_identical = service->trace().decisions.IdenticalTo(
      replay.decisions, &session.replay_diff);
  session.replay_conserved =
      replay.run.queries_completed + replay.run.queries_infeasible ==
          replay.run.queries_issued &&
      replay.run.queries_issued == session.report.served;
  return session;
}

void CheckSession(const std::string& label, const Session& s, Report* report) {
  const sqlb::runtime::ServingReport& r = s.report;
  report->Check(r.submitted + r.shed == s.offered && r.submitted == s.accepted,
                label + ": submitted " + std::to_string(r.submitted) +
                    " + shed " + std::to_string(r.shed) + " == offered " +
                    std::to_string(s.offered));
  report->Check(r.served == r.submitted,
                label + ": served " + std::to_string(r.served) +
                    " == submitted");
  report->Check(r.run.queries_completed + r.run.queries_infeasible ==
                        r.run.queries_issued &&
                    r.run.queries_issued == r.served,
                label + ": completed + infeasible == issued == served");
  report->Check(s.replay_identical && s.replay_conserved,
                label + ": replay oracle bit-identical over " +
                    std::to_string(r.run.queries_issued) + " decisions" +
                    (s.replay_identical ? "" : " (" + s.replay_diff + ")"));
}

/// The generator's lateness pooled over a run's sessions. A run whose
/// generator fell behind did not offer the named load: it is invalid. (On a
/// ladder rung, lateness is part of that rung's verdict instead.)
double CheckGenerator(const std::string& label,
                      const std::vector<Session>& sessions, Report* report) {
  sqlb::obs::Histogram late;
  for (const Session& s : sessions) late.Merge(s.late);
  const double p99 = late.Quantile(0.99);
  report->Check(p99 <= kMaxGeneratorLateSeconds,
                label + ": generator on schedule (late p99 " +
                    FormatNumber(p99 * 1e6) + " us <= " +
                    FormatNumber(kMaxGeneratorLateSeconds * 1e6) + " us)");
  return p99;
}

/// The figures the serving workloads report over a run's sessions.
struct SessionMedians {
  double alloc_per_s, p50_us, p99_us, slo_share, mean_rt_s;
  std::uint64_t samples, offered, failed;
};

SessionMedians MediansOf(const std::vector<Session>& sessions) {
  // Latency figures pool every session's samples into one histogram, so the
  // tail percentiles rest on the whole run rather than on one session.
  std::vector<double> alloc, rt;
  sqlb::obs::Histogram pooled;
  std::uint64_t offered = 0, failed = 0;
  for (const Session& s : sessions) {
    alloc.push_back(s.alloc_per_s);
    rt.push_back(s.report.run.response_time.mean());
    pooled.Merge(s.report.intake_wall);
    offered += s.offered;
    failed += s.report.shed + s.report.run.queries_infeasible;
  }
  return SessionMedians{Median(alloc),
                        pooled.Quantile(0.50) * 1e6,
                        pooled.Quantile(0.99) * 1e6,
                        SloShare(pooled, kSloSeconds, offered),
                        Median(rt),
                        pooled.count(),
                        offered,
                        failed};
}

/// `plain[i]` is the untraced session run just before `traced[i]`.
void ReportServingLayers(const std::vector<Session>& traced,
                         const std::vector<Session>& plain,
                         std::size_t mediator_threads, Report* report) {
  std::vector<double> create, drain, submit_ns, score_ns, share, parallelism,
      wait_p99;
  ScoreStats score;
  std::uint64_t offered = 0, runs = 0, shed = 0, bursts = 0, parks = 0,
                spurious = 0, served = 0, flushes = 0, batched = 0;
  double session_wall = 0.0, gen_submit = 0.0;
  for (const Session& s : traced) {
    create.push_back(s.create_s);
    drain.push_back(s.rung.drain_seconds);
    submit_ns.push_back(s.submit_seconds * 1e9 /
                        static_cast<double>(s.offered));
    score_ns.push_back(s.score.score_seconds * 1e9 /
                       static_cast<double>(s.score.queries));
    share.push_back(s.score.score_seconds /
                    (s.report.wall_seconds *
                     static_cast<double>(mediator_threads)));
    parallelism.push_back(s.score.score_seconds / s.report.wall_seconds);
    wait_p99.push_back(s.report.run.metrics.HistogramQuantile(
                           sqlb::obs::kMetricBatchWait, 0.99) /
                       s.time_scale * 1e6);
    score.Merge(s.score);
    offered += s.offered;
    runs += s.runs;
    shed += s.report.shed;
    bursts += s.report.bursts;
    parks += s.report.idle_parks;
    spurious += s.report.spurious_wakes;
    served += s.report.served;
    flushes +=
        s.report.run.metrics.CounterValue(sqlb::obs::kMetricBatchFlushes);
    batched +=
        s.report.run.metrics.CounterValue(sqlb::obs::kMetricBatchedQueries);
    session_wall += s.report.wall_seconds;
    gen_submit += s.submit_seconds;
  }
  const double n = static_cast<double>(traced.size());
  Layers layers;
  layers.create_s = Median(create);
  layers.drain_s = Median(drain);
  layers.submit_ns = Median(submit_ns);
  layers.run_len = static_cast<double>(offered) / static_cast<double>(runs);
  layers.shed = static_cast<double>(shed);
  layers.late_p99_us = CheckGenerator("traced sessions", traced, report) * 1e6;
  layers.bursts = static_cast<double>(bursts) / n;
  layers.queries_per_burst =
      static_cast<double>(served) / static_cast<double>(bursts);
  layers.idle_parks = static_cast<double>(parks) / n;
  layers.spurious_wakes = static_cast<double>(spurious) / n;
  layers.wait_p99_us = Median(wait_p99);
  layers.score_ns = Median(score_ns);
  layers.SetScoring(score);
  // Below saturation a shard's scoring calls come every few tens of
  // microseconds; a gap over 1 ms is a stall of the group loop.
  layers.stall_s = score.stall_seconds / n;
  layers.stall_max_ms = score.stall_max_seconds * 1e3;
  layers.score_share = Median(share);
  layers.batch_flushes = static_cast<double>(flushes) / n;
  layers.batched_queries = static_cast<double>(batched) / n;
  layers.score_parallelism = Median(parallelism);
  layers.trace_overhead = NeighbourRatio(
      traced.size(), plain.size(),
      [&](std::size_t i) { return traced[i].p_us(0.5); },
      [&](std::size_t i) { return plain[i].p_us(0.5); });
  ReportLayers(layers, report);

  // Layer budget per mediator thread: scoring is the only layer timed from
  // outside on those threads; the rest (intake drain, batching, gather,
  // decide, DES completions, wake/park and idle) is unattributed.
  const double thread_wall =
      session_wall * static_cast<double>(mediator_threads);
  report->Info("layer budget: mediator thread wall " +
               FormatNumber(thread_wall) +
               " s; score " + FormatNumber(score.score_seconds) +
               " s; unattributed share " +
               FormatNumber(1.0 - score.score_seconds / thread_wall) +
               "; generator SubmitMany " + FormatNumber(gen_submit) + " s of " +
               FormatNumber(session_wall) + " s session wall");
  report->Info("peak_rss_mb " + FormatNumber(PeakRssMb()));
}

void CountSessions(const std::vector<Session>& sessions, Report* report) {
  for (const Session& s : sessions) {
    report->Count(s.offered, s.report.shed + s.report.run.queries_infeasible);
  }
}

void InfoSession(const std::string& label, const Session& s, Report* report) {
  report->Info(label + ": offered " + std::to_string(s.offered) + " at " +
               FormatNumber(s.rate) + " q/s (time_scale " +
               FormatNumber(s.time_scale) +
               "), p50 " + FormatNumber(s.p_us(0.5)) + " us, p99 " +
               FormatNumber(s.p_us(0.99)) + " us over " +
               std::to_string(s.report.intake_wall.count()) +
               " samples, slo " + FormatNumber(s.slo_share()) + ", drain " +
               FormatNumber(s.rung.drain_seconds * 1e3) + " ms, served " +
               FormatNumber(s.alloc_per_s) + " 1/s, shed " +
               std::to_string(s.report.shed) + ", fail_share " +
               FormatNumber(static_cast<double>(
                                s.report.shed +
                                s.report.run.queries_infeasible) /
                            static_cast<double>(s.offered)));
}

void RunServing(const RunOptions& options, Report* report,
                SpanRecorder* spans) {
  const ServingShape shape = ShapeOf(options.workload);
  const bool ladder = options.workload == "serve-intake";
  std::uint64_t index = 0;

  if (options.traced) {
    // Latency sessions, alternating untraced and traced, so the overhead
    // ratio compares neighbours rather than the start and end of the run.
    std::vector<Session> plain, traced;
    Budget budget(options.seconds, 2);
    for (int i = 0; budget.More(i); ++i) {
      const bool trace_this = i % 2 == 1;
      (trace_this ? traced : plain)
          .push_back(RunSession(shape, options.seed, index++, shape.latency,
                                trace_this ? spans : nullptr));
    }
    for (std::size_t i = 0; i < plain.size(); ++i) {
      CheckSession("untraced session " + std::to_string(i), plain[i], report);
    }
    for (std::size_t i = 0; i < traced.size(); ++i) {
      CheckSession("traced session " + std::to_string(i), traced[i], report);
      InfoSession("traced session " + std::to_string(i), traced[i], report);
    }
    CheckGenerator("untraced sessions", plain, report);
    CountSessions(plain, report);
    CountSessions(traced, report);
    ReportServingLayers(traced, plain, shape.mediator_threads, report);
    return;
  }

  Budget budget(options.seconds, 3);
  std::vector<double> setups;
  const auto measured_session = [&](const Offer& offer) {
    SampleSetups(ServingServiceConfig(shape, options.seed, offer),
                 kSetupSamplesPerRep, &setups);
    Session s = RunSession(shape, options.seed, index++, offer, nullptr);
    setups.push_back(s.create_s + s.start_s);
    return s;
  };
  std::vector<Session> latency, capacity;
  std::string sustained = "n/a (one fixed rate)";
  if (ladder) {
    // Every rung runs, so each run does the same work whatever the verdict;
    // the verdict is the highest rung before the first failing one. The
    // first rung is also a latency session.
    std::vector<RungResult> rungs;
    for (const double rung_rate : kLadderRates) {
      Session s = measured_session(OpenLoop(rung_rate, kRungRequests));
      const std::string label = "rung " + FormatNumber(rung_rate);
      InfoSession(label, s, report);
      rungs.push_back(s.rung);
      if (rung_rate == shape.latency.rate) {
        latency.push_back(std::move(s));
      } else {
        // Rungs above the latency rate probe the limit: their accounting
        // and replay are checked, their shed is the verdict's business.
        CheckSession(label, s, report);
      }
    }
    const int verdict = LadderVerdict(rungs);
    sustained = verdict < 0 ? std::string("0 (no rung sustained)")
                            : FormatNumber(rungs[verdict].submit_qps) +
                                  " 1/s (rung " +
                                  FormatNumber(rungs[verdict].offered_qps) +
                                  ")";
  }
  for (int i = static_cast<int>(latency.size()); budget.More(i); ++i) {
    latency.push_back(measured_session(shape.latency));
    for (int k = 0; k < kCapacitySessionsPerLatency; ++k) {
      capacity.push_back(measured_session(shape.capacity));
    }
  }
  for (std::size_t i = 0; i < latency.size(); ++i) {
    const std::string label = "session " + std::to_string(i);
    CheckSession(label, latency[i], report);
    InfoSession(label, latency[i], report);
  }
  for (std::size_t i = 0; i < capacity.size(); ++i) {
    const std::string label = "capacity session " + std::to_string(i);
    CheckSession(label, capacity[i], report);
    InfoSession(label, capacity[i], report);
  }
  CheckGenerator("latency sessions", latency, report);
  CountSessions(latency, report);
  CountSessions(capacity, report);
  const SessionMedians m = MediansOf(latency);
  // Printed every run, outside the gated set (see perfbench/README.md).
  report->Info("sustained_qps " + sustained);
  report->Info("p99_us " + FormatNumber(m.p99_us) + " us (" +
               std::to_string(m.samples) + " samples over " +
               std::to_string(latency.size()) + " sessions at " +
               FormatNumber(shape.latency.rate) + " q/s)");
  report->Info("mean_rt_s " + FormatNumber(m.mean_rt_s) +
               " s (simulated response time)");
  report->Info("fail_share " +
               FormatNumber(static_cast<double>(m.failed) /
                            static_cast<double>(m.offered)) +
               " ((shed + infeasible) / offered)");
  EndToEnd e;
  e.setup_s = *std::min_element(setups.begin(), setups.end());
  e.alloc_per_s = MediansOf(capacity).alloc_per_s;
  e.p50_us = m.p50_us;
  e.slo_share = m.slo_share;
  ReportEndToEnd(e, report);
}

}  // namespace

sqlb::Service::MethodFactory PlainFactory() {
  return [](std::uint32_t) { return std::make_unique<sqlb::SqlbMethod>(); };
}

bool IsWorkload(const std::string& name) {
  return name == "des-paper" || name == "des-shard8" ||
         name == "serve-intake" || name == "serve-paper-m2";
}

std::string WorkloadParameters(const std::string& name) {
  if (name == "des-paper" || name == "des-shard8") {
    std::string text = "population 200x400, load " + FormatNumber(kDesLoad) +
                       ", " + FormatNumber(kDesSimSeconds) + " simulated s";
    if (IsSharded(name)) {
      text += ", 8 shards, kLocality, strict parity, adaptive batching, " +
              std::to_string(std::min(4u, HardwareThreads())) +
              " worker threads";
    }
    return text;
  }
  if (name == "serve-intake") {
    return "population 24x48, 4 shards, mediator_threads 1, load " +
           FormatNumber(kServingLoad) +
           ", ladder 100k/200k/300k/400k q/s x " + FormatNumber(kRungRequests) +
           " requests, then 100k q/s latency sessions and " +
           FormatNumber(kIntakeCapacityRequests) +
           "-request capacity sessions at " +
           FormatNumber(kIntakeCapacityRate) + " q/s (time_scale for " +
           FormatNumber(kIntakeCapacityScaleRate) + " q/s)";
  }
  return "population 200x400, 4 shards, mediator_threads 2, load " +
         FormatNumber(kServingLoad) + ", " + FormatNumber(kPaperRate) +
         " q/s x " + FormatNumber(kPaperSessionSeconds) +
         " s latency sessions, " + FormatNumber(kPaperCapacityRequests) +
         "-request capacity sessions at " +
         FormatNumber(kPaperCapacityRate) + " q/s (time_scale for " +
         FormatNumber(kPaperCapacityScaleRate) + " q/s)";
}

void RunWorkload(const RunOptions& options, Report* report,
                 SpanRecorder* spans) {
  if (options.workload.rfind("des-", 0) == 0) {
    RunDes(options, report, spans);
  } else {
    RunServing(options, report, spans);
  }
}

}  // namespace perfbench
