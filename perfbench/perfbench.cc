// The repository benchmark's binary (see README.md here).
//
// Runs one workload for a host-time budget, as a series of identical
// repetitions ("reps") of one seeded scenario, and prints
//
//   metric <name> <value> <unit> <e2e|layer|info> <exact|host>
//   span <name> count=<n> total_ms=<ms> self_ms=<ms>     (traced runs)
//   fingerprint digest=<hex> submitted=<n> committed=<n> events=<n>
//   result correct=<0|1> attempted=<n> failed=<n> reps=<n>
//
// run.py builds this binary and turns those lines into the benchmark's
// JSON result. `exact` values are pure functions of the seed; `host`
// values are host time or memory.
//
// The cluster is driven only through public library calls:
// ProgramGenerator builds each Program, OpenLoopArrivals schedules
// open-loop arrivals on runtime(), ReplicationScheme::Submit runs each
// transaction with a done callback, and runtime().RunUntil advances
// simulated time in fixed slices. Crash/restart, drain, digests and the
// final invariant check are this file's own calls, so each can be
// timed from outside the library.

#include <sched.h>
#include <sys/prctl.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cinttypes>
#include <cmath>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>
#include <type_traits>
#include <vector>

#include "fault/fault_injector.h"
#include "fault/invariant_checker.h"
#include "obs/metrics.h"
#include "replication/cluster.h"
#include "replication/eager.h"
#include "replication/lazy_group.h"
#include "replication/lazy_master.h"
#include "replication/ownership.h"
#include "workload/workload.h"

namespace tdr::perfbench {
namespace {

using Clock = std::chrono::steady_clock;

double SecondsOf(Clock::duration d) {
  return std::chrono::duration<double>(d).count();
}

enum class Scheme { kEagerGroup, kLazyGroup, kLazyMaster };

/// One benchmark workload. Simulated sizes are fixed here; the host
/// budget (--seconds) only decides how many reps run.
struct Workload {
  const char* name;
  Scheme scheme;
  std::uint32_t nodes;
  std::uint64_t db_size;
  std::uint32_t shards;
  double tps_per_node;
  std::uint32_t actions;
  SimTime action_time;
  bool poisson;
  /// Lazy group's BatchShipper window and cap; both zero = per-commit
  /// shipping.
  SimTime batch_window = SimTime::Zero();
  std::size_t batch_cap = 0;
  /// WAL group commit on the in-memory backend.
  bool wal = false;
  /// Crash the last node for the middle third of the window, restart
  /// it, arm the invariant checker, and check convergence at the end.
  bool crash = false;
  /// Thread backend, with the same scenario on the sim as the oracle.
  bool threads = false;
  double warmup_s;  // simulated seconds before the measured window
  double window_s;  // simulated seconds of the measured window
};

// Measured-window slices per rep: at least 200, so that the p95 of the
// per-slice host cost has at least ten samples beyond it.
constexpr int kSlices = 240;

constexpr Workload kWorkloads[] = {
    {.name = "lazy_batched",
     .scheme = Scheme::kLazyGroup,
     .nodes = 4,
     .db_size = 1000000,
     .shards = 4,
     .tps_per_node = 200,
     .actions = 4,
     .action_time = SimTime::Millis(5),
     .poisson = true,
     .batch_window = SimTime::Millis(50),
     .batch_cap = 64,
     .warmup_s = 2,
     .window_s = 100},
    {.name = "durable_crash",
     .scheme = Scheme::kLazyMaster,
     .nodes = 4,
     .db_size = 100000,
     .shards = 1,
     .tps_per_node = 200,
     .actions = 4,
     .action_time = SimTime::Millis(5),
     .poisson = true,
     .wal = true,
     .crash = true,
     .warmup_s = 2,
     .window_s = 90},
    {.name = "threads_lockstep",
     .scheme = Scheme::kEagerGroup,
     .nodes = 3,
     .db_size = 1024,
     .shards = 4,
     .tps_per_node = 40,
     .actions = 4,
     .action_time = SimTime::Millis(5),
     .poisson = false,
     .threads = true,
     .warmup_s = 2,
     .window_s = 60},
};

/// One named value of the output. Names and units are string literals.
struct Metric {
  const char* name = "";
  double value = 0;
  const char* unit = "";
};

/// In-memory spans of a traced rep: name, start, end and the enclosing
/// span. Aggregated into per-name self time after the rep, in the rep's
/// process, which also writes them out as a Chrome trace.
///
/// With the thread backend, spans opened inside arrival callbacks run
/// on node workers, one event at a time: the runtime hands each event
/// over with a synchronising gate, so the span stack never races.
class Tracer {
 public:
  struct Span {
    const char* name;
    Clock::time_point start;
    Clock::time_point end;
    int parent;
  };

  int Open(const char* name) {
    spans_.push_back(Span{name, Clock::now(), {}, current_});
    current_ = static_cast<int>(spans_.size()) - 1;
    return current_;
  }
  void Close(int id) {
    spans_[id].end = Clock::now();
    current_ = spans_[id].parent;
  }

  const std::vector<Span>& spans() const { return spans_; }

 private:
  std::vector<Span> spans_;
  int current_ = -1;
};

/// RAII span; a no-op without a tracer, so untraced reps pay one
/// branch per call site.
class ScopedSpan {
 public:
  ScopedSpan(Tracer* tracer, const char* name)
      : tracer_(tracer), id_(tracer != nullptr ? tracer->Open(name) : -1) {}
  ~ScopedSpan() {
    if (tracer_ != nullptr) tracer_->Close(id_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  Tracer* tracer_;
  int id_;
};

struct SpanTotals {
  const char* name = "";
  std::uint64_t count = 0;
  double total_ns = 0;
  double self_ns = 0;
};

struct Fingerprint {
  std::uint64_t digest = 0;
  std::uint64_t submitted = 0;
  std::uint64_t committed = 0;
  std::uint64_t events = 0;

  bool operator==(const Fingerprint&) const = default;
};

/// Everything one rep produces.
struct RepResult {
  bool traced = false;

  // Host time of each phase of the rep, in order: setup, warm-up, the
  // measured window's slices, and the tail (drain, checks, teardown).
  double setup_s = 0;
  double warmup_s = 0;
  std::vector<double> slice_ns;
  double tail_s = 0;
  double total_s = 0;
  double window_s = 0;  // sum of the slices' host time
  // Commits and events of the window; exact, like everything simulated.
  std::vector<std::uint64_t> slice_committed;
  std::uint64_t window_committed = 0;
  std::uint64_t window_events = 0;

  // Outcomes and checks.
  std::uint64_t submitted = 0;
  std::uint64_t committed = 0;
  std::uint64_t not_committed = 0;  // aborted, rejected or unavailable
  std::vector<std::string> failures;
  Fingerprint fingerprint;
  std::vector<std::uint64_t> shard_digests;

  // Per-layer values: counts repeat exactly for a seed; times come from
  // spans (traced reps only) or host clocks.
  std::vector<Metric> counts;
  std::vector<Metric> times;
  std::vector<SpanTotals> span_totals;
  double worker_utilization = 0;

  double txn_per_s() const {
    return window_s > 0 ? static_cast<double>(window_committed) / window_s
                        : 0;
  }
};

/// What the done callbacks report, counted as they fire.
struct Outcomes {
  std::uint64_t submitted = 0;
  std::uint64_t done = 0;
  std::uint64_t committed = 0;
  std::uint64_t not_committed = 0;  // aborted, rejected or unavailable
  bool in_window = false;
  std::vector<std::int64_t> response_us;  // simulated, window commits

  void OnDone(const TxnResult& r) {
    ++done;
    if (r.outcome == TxnOutcome::kCommitted) {
      ++committed;
      if (in_window) response_us.push_back(r.Duration().micros());
    } else {
      ++not_committed;
    }
  }
};

double Percentile(std::vector<double> values, double p) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const double rank = p / 100.0 * static_cast<double>(values.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(std::floor(rank));
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  return values[lo] + (values[hi] - values[lo]) * (rank - std::floor(rank));
}

double Median(std::vector<double> values) {
  return Percentile(std::move(values), 50);
}

/// Nearest-rank percentile of exact simulated durations (integers, so
/// the result repeats bit for bit).
double ExactPercentile(std::vector<std::int64_t> values, double p) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  std::size_t rank = static_cast<std::size_t>(
      std::ceil(p / 100.0 * static_cast<double>(values.size())));
  rank = std::clamp<std::size_t>(rank, 1, values.size());
  return static_cast<double>(values[rank - 1]);
}

double PerTxn(double count, std::uint64_t committed) {
  return committed > 0 ? count / static_cast<double>(committed) : 0;
}

std::vector<SpanTotals> AggregateSpans(const Tracer& tracer) {
  const auto& spans = tracer.spans();
  std::vector<double> child_ns(spans.size(), 0);
  for (const auto& s : spans) {
    if (s.parent >= 0) {
      child_ns[s.parent] +=
          std::chrono::duration<double, std::nano>(s.end - s.start).count();
    }
  }
  std::vector<SpanTotals> out;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const double ns =
        std::chrono::duration<double, std::nano>(spans[i].end - spans[i].start)
            .count();
    auto it = std::find_if(out.begin(), out.end(), [&](const SpanTotals& t) {
      return std::strcmp(t.name, spans[i].name) == 0;
    });
    if (it == out.end()) {
      out.push_back(SpanTotals{.name = spans[i].name});
      it = out.end() - 1;
    }
    it->count += 1;
    it->total_ns += ns;
    it->self_ns += ns - child_ns[i];
  }
  return out;
}

const SpanTotals* FindSpan(const RepResult& rep, const char* name) {
  for (const SpanTotals& totals : rep.span_totals) {
    if (std::strcmp(totals.name, name) == 0) return &totals;
  }
  return nullptr;
}

double SpanTotalNs(const RepResult& rep, const char* name) {
  const SpanTotals* t = FindSpan(rep, name);
  return t != nullptr ? t->total_ns : 0;
}

fault::SchemeClass SchemeClassOf(Scheme scheme) {
  switch (scheme) {
    case Scheme::kEagerGroup:
      return fault::SchemeClass::kEagerGroup;
    case Scheme::kLazyGroup:
      return fault::SchemeClass::kLazyGroup;
    case Scheme::kLazyMaster:
      return fault::SchemeClass::kLazyMaster;
  }
  return fault::SchemeClass::kEagerGroup;
}

/// Runs one rep of `w` on `seed`. `tracer` is null for untraced reps.
/// `threads` selects the backend (false for the threads workload's sim
/// oracle).
RepResult RunRep(const Workload& w, std::uint64_t seed, bool threads,
                 Tracer* tracer) {
  RepResult rep;
  const Clock::time_point rep_start = Clock::now();
  ScopedSpan rep_span(tracer, "rep");

  // --- Setup: cluster (stores, lock tables, WAL set), scheme, faults.
  std::unique_ptr<Cluster> cluster;
  std::unique_ptr<Ownership> ownership;
  std::unique_ptr<ReplicationScheme> scheme;
  LazyGroupScheme* lazy_group = nullptr;
  LazyMasterScheme* lazy_master = nullptr;
  std::unique_ptr<fault::FaultInjector> injector;
  std::unique_ptr<fault::InvariantChecker> checker;
  {
    ScopedSpan setup_span(tracer, "setup");
    {
      ScopedSpan s(tracer, "setup.cluster");
      Cluster::Options copts;
      copts.num_nodes = w.nodes;
      copts.db_size = w.db_size;
      copts.num_shards = w.shards;
      copts.action_time = w.action_time;
      copts.seed = seed;
      copts.backend = threads ? RuntimeBackend::kThreads : RuntimeBackend::kSim;
      if (w.wal) copts.wal.mode = DurabilityMode::kGroup;
      cluster = std::make_unique<Cluster>(copts);
    }
    {
      ScopedSpan s(tracer, "setup.scheme");
      switch (w.scheme) {
        case Scheme::kEagerGroup:
          scheme = std::make_unique<EagerGroupScheme>(cluster.get());
          break;
        case Scheme::kLazyGroup: {
          LazyGroupScheme::Options o;
          o.batch.flush_window = w.batch_window;
          o.batch.max_batch_updates = w.batch_cap;
          auto lg = std::make_unique<LazyGroupScheme>(cluster.get(), o);
          lazy_group = lg.get();
          scheme = std::move(lg);
          break;
        }
        case Scheme::kLazyMaster: {
          std::vector<NodeId> owners(w.nodes);
          for (NodeId n = 0; n < w.nodes; ++n) owners[n] = n;
          ownership = std::make_unique<Ownership>(
              Ownership::RoundRobin(w.db_size, owners));
          LazyMasterScheme::Options o;
          // Refreshes lost while a node is down are repaired from the
          // masters when it comes back.
          o.reconnect_catch_up = w.crash;
          auto lm = std::make_unique<LazyMasterScheme>(cluster.get(),
                                                       ownership.get(), o);
          lazy_master = lm.get();
          scheme = std::move(lm);
          break;
        }
      }
    }
    if (w.crash) {
      ScopedSpan s(tracer, "setup.fault");
      injector = std::make_unique<fault::FaultInjector>(
          cluster.get(), fault::FaultPlan{}, Rng(seed, 777));
      fault::InvariantChecker::Options chk;
      chk.scheme = SchemeClassOf(w.scheme);
      chk.ownership = ownership.get();
      // Six periodic sweeps: with the crash and restart slices they stay
      // fewer than the 12 slices beyond the per-slice p95, so that the
      // p95 keeps measuring the ordinary slices' tail.
      chk.check_interval = SimTime::Seconds(w.window_s / 6);
      checker = std::make_unique<fault::InvariantChecker>(cluster.get(), chk);
      checker->Arm();
    }
  }
  rep.setup_s = SecondsOf(Clock::now() - rep_start);

  // --- Open-loop arrivals: every program and every gap comes from the
  // seed, one stream per node.
  ProgramGenerator::Options gopts;
  gopts.db_size = w.db_size;
  gopts.actions = w.actions;
  ProgramGenerator generator(gopts);
  Program scratch;
  Rng seed_rng(seed, 0x9e3779b97f4a7c15ULL);
  std::vector<Rng> program_rngs;
  std::vector<std::unique_ptr<OpenLoopArrivals>> arrivals;
  Outcomes outcomes;
  // One pointer of capture keeps the callback inside std::function's
  // local buffer: submitting allocates no closure.
  ReplicationScheme::DoneCallback on_done =
      [o = &outcomes](const TxnResult& r) { o->OnDone(r); };
  for (NodeId origin = 0; origin < w.nodes; ++origin) {
    program_rngs.push_back(seed_rng.Fork());
  }
  for (NodeId origin = 0; origin < w.nodes; ++origin) {
    OpenLoopArrivals::Options aopts;
    aopts.tps = w.tps_per_node;
    aopts.poisson = w.poisson;
    aopts.node_affinity = origin;
    arrivals.push_back(std::make_unique<OpenLoopArrivals>(
        &cluster->runtime(), aopts, seed_rng.Fork(), [&, origin]() {
          {
            ScopedSpan s(tracer, "workload.gen");
            generator.NextInto(program_rngs[origin], &scratch);
          }
          ++outcomes.submitted;
          ScopedSpan s(tracer, "replication.submit");
          scheme->Submit(origin, scratch, on_done);
        }));
  }
  runtime::Runtime& rt = cluster->runtime();
  for (auto& a : arrivals) a->Start();

  {
    ScopedSpan s(tracer, "warmup");
    const Clock::time_point t0 = Clock::now();
    rt.RunUntil(SimTime::Seconds(w.warmup_s));
    rep.warmup_s = SecondsOf(Clock::now() - t0);
  }

  // --- Measured window: fixed simulated-time slices, host-timed.
  {
    ScopedSpan window_span(tracer, "window");
    outcomes.in_window = true;
    const std::uint64_t events_before = cluster->sim().executed_events();
    const NodeId victim = static_cast<NodeId>(w.nodes - 1);
    for (int i = 0; i < kSlices; ++i) {
      if (injector != nullptr && i == kSlices / 3) {
        ScopedSpan s(tracer, "fault.crash");
        injector->Crash(victim);
      }
      if (injector != nullptr && i == 2 * kSlices / 3) {
        ScopedSpan s(tracer, "fault.restart");
        injector->Restart(victim);
      }
      const SimTime horizon = SimTime::Seconds(
          w.warmup_s + w.window_s * static_cast<double>(i + 1) / kSlices);
      const std::uint64_t committed_before = outcomes.committed;
      const Clock::time_point t0 = Clock::now();
      {
        ScopedSpan s(tracer, "slice");
        rt.RunUntil(horizon);
      }
      const double ns =
          std::chrono::duration<double, std::nano>(Clock::now() - t0).count();
      const std::uint64_t committed = outcomes.committed - committed_before;
      rep.window_s += ns * 1e-9;
      rep.window_committed += committed;
      rep.slice_ns.push_back(ns);
      rep.slice_committed.push_back(committed);
    }
    rep.window_events = cluster->sim().executed_events() - events_before;
    outcomes.in_window = false;
  }
  for (auto& a : arrivals) a->Stop();
  const Clock::time_point window_end = Clock::now();

  // --- Drain: ship pending batches, run the event loop dry, repair.
  {
    ScopedSpan s(tracer, "replication.drain");
    if (checker != nullptr) checker->Disarm();
    if (lazy_group != nullptr) lazy_group->FlushAllBatches();
    rt.Run();
    if (lazy_master != nullptr) {
      lazy_master->CatchUpAll();
      rt.Run();
    }
  }

  // --- Checks and fingerprints.
  {
    ScopedSpan s(tracer, "storage.digest");
    rep.fingerprint.digest = cluster->StateDigest();
    for (ShardId shard = 0; shard < cluster->shards().num_shards(); ++shard) {
      for (std::uint64_t d : cluster->ShardDigests(shard)) {
        rep.shard_digests.push_back(d);
      }
    }
  }
  const std::uint64_t divergent = cluster->DivergentSlots();
  std::uint64_t violations = 0;
  if (checker != nullptr) {
    ScopedSpan s(tracer, "fault.check_final");
    checker->CheckFinal();
    violations = checker->violations_total();
    for (const fault::Violation& v : checker->TakeViolations()) {
      std::fprintf(stderr, "violation: %s\n", v.ToString().c_str());
    }
  }
  rep.submitted = outcomes.submitted;
  rep.committed = outcomes.committed;
  rep.not_committed = outcomes.not_committed;
  if (outcomes.done != rep.submitted) {
    rep.failures.push_back("done callbacks " + std::to_string(outcomes.done) +
                           " != submitted " +
                           std::to_string(rep.submitted));
  }
  if (w.scheme != Scheme::kLazyGroup && divergent != 0) {
    rep.failures.push_back("replicas diverge after the drain: " +
                           std::to_string(divergent) + " slots");
  }
  if (violations != 0) {
    rep.failures.push_back("invariant violations: " +
                           std::to_string(violations));
  }
  rep.fingerprint.submitted = rep.submitted;
  rep.fingerprint.committed = rep.committed;
  rep.fingerprint.events = cluster->sim().executed_events();

  runtime::ThreadRuntime* thread_rt = cluster->thread_runtime();
  if (thread_rt != nullptr) {
    ScopedSpan s(tracer, "runtime.shutdown");
    // Joins the workers and publishes the kProfile runtime metrics.
    thread_rt->Shutdown();
    obs::SnapshotOptions sopts;
    sopts.include_profile = true;
    const obs::MetricsSnapshot snap = cluster->metrics().Snapshot(sopts);
    if (const obs::MetricValue* util =
            snap.Find("runtime.worker_utilization")) {
      rep.worker_utilization = util->stats.mean();
    }
  }

  // --- Layer counts, read from the program's own counters.
  const obs::MetricsRegistry& m = cluster->metrics();
  const std::uint64_t c = rep.committed;
  auto count = [&rep](const char* name, double value, const char* unit) {
    rep.counts.push_back(Metric{name, value, unit});
  };
  auto per_txn = [c](std::uint64_t n) {
    return PerTxn(static_cast<double>(n), c);
  };
  auto ratio = [](std::uint64_t n, std::uint64_t d) {
    return d > 0 ? static_cast<double>(n) / static_cast<double>(d) : 0;
  };
  count("sim.events_per_txn", per_txn(cluster->sim().executed_events()),
        "events/txn");
  count("txn.started_per_committed", per_txn(m.Get("txn.started")), "ratio");
  count("lock.waits_per_txn", per_txn(m.Get("lock.waits")), "1/txn");
  count("txn.deadlocks_per_txn", per_txn(cluster->executor().deadlocked()),
        "1/txn");
  count("txn.response_ms_p50",
        ExactPercentile(outcomes.response_us, 50) / 1000.0, "ms");
  count("txn.response_ms_p99",
        ExactPercentile(outcomes.response_us, 99) / 1000.0, "ms");
  count("net.sent_per_txn", per_txn(m.Get("net.sent")), "msg/txn");
  count("net.delivered_per_txn", per_txn(m.Get("net.delivered")), "msg/txn");
  count("replica.applied_per_txn", per_txn(m.Get("replica.applied")),
        "1/txn");
  count("replica.conflicts_per_txn", per_txn(m.Get("replica.conflicts")),
        "1/txn");
  count("replica.waits_per_txn", per_txn(m.Get("replica.waits")), "1/txn");
  // BatchShipper labels its registry cells by stream; read its own
  // counters instead.
  BatchShipper* shipper =
      lazy_group != nullptr ? lazy_group->batch_shipper() : nullptr;
  std::uint64_t batches = 0, batch_updates = 0, coalesced = 0;
  if (shipper != nullptr) {
    batches = shipper->batches_shipped();
    batch_updates = shipper->updates_shipped();
    coalesced = shipper->updates_coalesced();
  }
  count("batch.shipped_per_txn", per_txn(batches), "1/txn");
  count("batch.updates_per_batch", ratio(batch_updates, batches), "1/batch");
  count("batch.coalesced_per_txn", per_txn(coalesced), "1/txn");
  count("storage.divergent_slots", static_cast<double>(divergent), "count");
  std::uint64_t wal_records = 0, wal_flushes = 0, wal_adopted = 0;
  if (wal::WalSet* wals = cluster->wals()) {
    wal_records = wals->wal_metrics().records_appended.value();
    wal_flushes = wals->wal_metrics().flushes.value();
    wal_adopted = wals->wal_metrics().catch_up_adopted.value();
  }
  count("wal.records_per_txn", per_txn(wal_records), "1/txn");
  count("wal.flushes_per_txn", per_txn(wal_flushes), "1/txn");
  count("wal.records_per_flush", ratio(wal_records, wal_flushes), "1/flush");
  count("wal.replayed_records",
        static_cast<double>(cluster->recovery().records_replayed()), "count");
  count("wal.catch_up_adopted", static_cast<double>(wal_adopted), "count");
  count("fault.violations", static_cast<double>(violations), "count");
  std::uint64_t dispatched = 0, epochs = 0;
  double wave_width = 0;
  if (thread_rt != nullptr) {
    dispatched = thread_rt->dispatched();
    epochs = thread_rt->epochs();
    // Turn-based dispatch runs every event as its own wave of width 1.
    wave_width =
        epochs > 0 ? ratio(dispatched + thread_rt->inline_events(), epochs) : 1;
  }
  count("runtime.dispatched_per_txn", per_txn(dispatched), "1/txn");
  count("runtime.epochs_per_txn", per_txn(epochs), "1/txn");
  count("runtime.wave_width_mean", wave_width, "events");

  // --- Teardown, inside the rep's host time.
  {
    ScopedSpan s(tracer, "teardown");
    arrivals.clear();
    checker.reset();
    injector.reset();
    scheme.reset();
    cluster.reset();
  }
  const Clock::time_point rep_end = Clock::now();
  rep.tail_s = SecondsOf(rep_end - window_end);
  rep.total_s = SecondsOf(rep_end - rep_start);
  return rep;
}

/// End-to-end host costs of a run, assembled from its fastest moments.
struct FastestRep {
  double txn_per_s = 0;
  double ns_per_txn_p50 = 0;
  double ns_per_txn_p95 = 0;
  double setup_s = 0;
  double total_s = 0;
};

/// Takes every phase of a rep (setup, warm-up, tail) and every slice of
/// its window at its minimum host time over `reps`, and sums them. Every
/// rep of one seed does the same simulated work slice by slice, so the
/// reps of a slice differ only by how much the host slowed it. On a VM
/// shared with other tenants that slowdown comes and goes within
/// seconds, takes up to a third off a whole rep and never makes one
/// faster than the code allows; a slice's minimum over a few dozen reps
/// lands in a quiet moment and so tracks the code's own cost, where a
/// whole rep's time, or any statistic over whole reps, keeps the
/// slowdown of the moments it spans.
FastestRep Fastest(const std::vector<const RepResult*>& reps) {
  auto fastest = [&reps](auto phase_s) {
    double best = phase_s(*reps.front());
    for (const RepResult* r : reps) best = std::min(best, phase_s(*r));
    return best;
  };
  const RepResult& first = *reps.front();
  double window_ns = 0;
  std::vector<double> ns_per_txn;
  for (std::size_t i = 0; i < first.slice_ns.size(); ++i) {
    const double ns =
        fastest([i](const RepResult& r) { return r.slice_ns[i]; });
    window_ns += ns;
    ns_per_txn.push_back(
        ns /
        static_cast<double>(std::max<std::uint64_t>(first.slice_committed[i],
                                                    1)));
  }
  FastestRep out;
  out.txn_per_s = window_ns > 0 ? static_cast<double>(first.window_committed) /
                                      (window_ns * 1e-9)
                                : 0;
  out.ns_per_txn_p50 = Percentile(ns_per_txn, 50);
  out.ns_per_txn_p95 = Percentile(ns_per_txn, 95);
  out.setup_s = fastest([](const RepResult& r) { return r.setup_s; });
  out.total_s = out.setup_s +
                fastest([](const RepResult& r) { return r.warmup_s; }) +
                window_ns * 1e-9 +
                fastest([](const RepResult& r) { return r.tail_s; });
  return out;
}

/// Host-time layer metrics of a traced rep, from its spans.
void AddSpanTimes(RepResult* rep, const Tracer& tracer) {
  rep->span_totals = AggregateSpans(tracer);
  auto time = [rep](const char* name, double value, const char* unit) {
    rep->times.push_back(Metric{name, value, unit});
  };
  const SpanTotals* gen = FindSpan(*rep, "workload.gen");
  const SpanTotals* slice = FindSpan(*rep, "slice");
  time("workload.gen_ns_per_txn",
       gen != nullptr && gen->count > 0
           ? gen->total_ns / static_cast<double>(gen->count)
           : 0,
       "ns");
  time("sim.events_per_wall_s",
       rep->window_s > 0 ? static_cast<double>(rep->window_events) /
                               rep->window_s
                         : 0,
       "events/s");
  time("sim.slice_self_ns_per_txn",
       slice != nullptr ? PerTxn(slice->self_ns, rep->window_committed) : 0,
       "ns");
  std::vector<double> submit_ns;
  for (const Tracer::Span& s : tracer.spans()) {
    if (std::strcmp(s.name, "replication.submit") == 0) {
      submit_ns.push_back(
          std::chrono::duration<double, std::nano>(s.end - s.start).count());
    }
  }
  time("replication.submit_ns_p50", Percentile(submit_ns, 50), "ns");
  time("replication.submit_ns_p95", Percentile(submit_ns, 95), "ns");
  time("replication.drain_s", SpanTotalNs(*rep, "replication.drain") * 1e-9,
       "s");
  time("setup.cluster_s", SpanTotalNs(*rep, "setup.cluster") * 1e-9, "s");
  time("setup.scheme_s", SpanTotalNs(*rep, "setup.scheme") * 1e-9, "s");
  time("storage.digest_ms", SpanTotalNs(*rep, "storage.digest") * 1e-6, "ms");
  time("wal.restart_ms", SpanTotalNs(*rep, "fault.restart") * 1e-6, "ms");
  time("fault.crash_ms", SpanTotalNs(*rep, "fault.crash") * 1e-6, "ms");
  time("fault.check_final_ms", SpanTotalNs(*rep, "fault.check_final") * 1e-6,
       "ms");
  time("runtime.worker_utilization", rep->worker_utilization, "ratio");
}

void WriteChromeTrace(const Tracer& tracer, const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot write trace to %s\n", path.c_str());
    return;
  }
  const auto& spans = tracer.spans();
  const Clock::time_point origin =
      spans.empty() ? Clock::time_point{} : spans.front().start;
  std::fprintf(f, "{\"traceEvents\":[\n");
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const auto& s = spans[i];
    std::fprintf(
        f,
        "%s{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":%.3f,"
        "\"dur\":%.3f,\"args\":{\"id\":%zu,\"parent\":%d}}\n",
        i == 0 ? "" : ",", s.name,
        std::chrono::duration<double, std::micro>(s.start - origin).count(),
        std::chrono::duration<double, std::micro>(s.end - s.start).count(), i,
        s.parent);
  }
  std::fprintf(f, "]}\n");
  if (std::fclose(f) != 0) {
    std::fprintf(stderr, "error closing trace file %s\n", path.c_str());
  }
}

/// Byte encoding of a RepResult, for a rep run in a child process.
/// Metric, unit and span names are string literals and travel as
/// pointers: a forked child has the parent's image at the same
/// addresses.
class RepWriter {
 public:
  template <typename T>
  void operator()(const T& v) {
    static_assert(std::is_trivially_copyable_v<T>);
    const char* p = reinterpret_cast<const char*>(&v);
    bytes_.append(p, sizeof(T));
  }
  template <typename T>
  void operator()(const std::vector<T>& v) {
    (*this)(v.size());
    for (const T& e : v) (*this)(e);
  }
  void operator()(const std::string& v) {
    (*this)(v.size());
    bytes_.append(v);
  }

  const std::string& bytes() const { return bytes_; }

 private:
  std::string bytes_;
};

class RepReader {
 public:
  explicit RepReader(std::string bytes) : bytes_(std::move(bytes)) {}

  template <typename T>
  void operator()(T& v) {
    static_assert(std::is_trivially_copyable_v<T>);
    Take(&v, sizeof(T));
  }
  template <typename T>
  void operator()(std::vector<T>& v) {
    std::size_t n = 0;
    (*this)(n);
    v.resize(n);
    for (T& e : v) (*this)(e);
  }
  void operator()(std::string& v) {
    std::size_t n = 0;
    (*this)(n);
    v.resize(n);
    Take(v.data(), n);
  }

  /// True when every byte was read and none was missing.
  bool complete() const { return ok_ && pos_ == bytes_.size(); }

 private:
  void Take(void* out, std::size_t n) {
    if (n > bytes_.size() - pos_) {
      ok_ = false;
      pos_ = bytes_.size();
      return;
    }
    std::memcpy(out, bytes_.data() + pos_, n);
    pos_ += n;
  }

  std::string bytes_;
  std::size_t pos_ = 0;
  bool ok_ = true;
};

/// Every field of a RepResult, in one order for writing and reading.
template <typename Archive, typename Rep>
void RepFields(Archive& a, Rep& r) {
  a(r.traced);
  a(r.setup_s);
  a(r.warmup_s);
  a(r.slice_ns);
  a(r.tail_s);
  a(r.total_s);
  a(r.window_s);
  a(r.slice_committed);
  a(r.window_committed);
  a(r.window_events);
  a(r.submitted);
  a(r.committed);
  a(r.not_committed);
  a(r.failures);
  a(r.fingerprint);
  a(r.shard_digests);
  a(r.counts);
  a(r.times);
  a(r.span_totals);
  a(r.worker_utilization);
}

[[noreturn]] void Fatal(const char* what) {
  std::perror(what);
  std::exit(1);
}

/// Confines the calling process, and the threads it starts later, to
/// `cpu`. On a VM, waking a worker on another vCPU that has gone idle
/// costs the host's reschedule latency, which swings 2-10x with other
/// tenants' load; on one CPU every hand-off is a local context switch,
/// so the thread workload's host time measures the runtime's own work
/// (mailboxes, gates, task pool, dispatch).
bool PinToCpu(int cpu) {
  cpu_set_t set;
  CPU_ZERO(&set);
  CPU_SET(cpu, &set);
  return sched_setaffinity(0, sizeof(set), &set) == 0;
}

/// Runs one rep (see RunRep) in a child forked from this process, which
/// runs no rep itself, and returns the child's result. So every rep
/// starts from the same heap, as a process that runs the scenario once
/// would. Reps run one after another in one process inherit the heap
/// the previous reps left, laid out by the seed's own allocations: on
/// durable_crash that made reps of seed 4 build their cluster 50 %
/// slower than those of seed 1 (12 ms against 8 ms, in every run) and
/// run their window 15-20 % slower, while the first rep of either seed,
/// on a fresh heap, built it in the same 22 ms.
///
/// A traced rep's spans stay in the child: it derives the span-based
/// metrics itself and, given `trace_out`, writes its Chrome trace there.
/// With `cpu` >= 0 the child runs pinned to that CPU (see PinToCpu).
RepResult RunRepInChild(const Workload& w, std::uint64_t seed, bool threads,
                        bool traced, const std::string& trace_out, int cpu) {
  int fds[2];
  if (pipe(fds) != 0) Fatal("perfbench: pipe");
  std::fflush(stdout);
  std::fflush(stderr);
  const pid_t parent = getpid();
  const pid_t pid = fork();
  if (pid < 0) Fatal("perfbench: fork");
  if (pid == 0) {
    // The child dies with the parent, so a killed run leaves nothing.
    if (prctl(PR_SET_PDEATHSIG, SIGKILL) != 0 || getppid() != parent) {
      _exit(1);
    }
    if (cpu >= 0 && !PinToCpu(cpu)) {
      std::perror("perfbench: cannot pin a rep to one CPU");
      _exit(1);
    }
    close(fds[0]);
    Tracer tracer;
    RepResult rep = RunRep(w, seed, threads, traced ? &tracer : nullptr);
    if (traced) {
      rep.traced = true;
      AddSpanTimes(&rep, tracer);
      if (!trace_out.empty()) WriteChromeTrace(tracer, trace_out);
    }
    RepWriter out;
    RepFields(out, rep);
    const std::string& bytes = out.bytes();
    for (std::size_t done = 0; done < bytes.size();) {
      const ssize_t n = write(fds[1], bytes.data() + done, bytes.size() - done);
      if (n <= 0) _exit(1);
      done += static_cast<std::size_t>(n);
    }
    _exit(0);
  }
  close(fds[1]);
  std::string bytes;
  char buf[1 << 16];
  for (;;) {
    const ssize_t n = read(fds[0], buf, sizeof(buf));
    if (n < 0) Fatal("perfbench: read from rep");
    if (n == 0) break;
    bytes.append(buf, static_cast<std::size_t>(n));
  }
  close(fds[0]);
  int status = 0;
  if (waitpid(pid, &status, 0) != pid) Fatal("perfbench: waitpid");
  if (!WIFEXITED(status) || WEXITSTATUS(status) != 0) {
    std::fprintf(stderr, "perfbench: rep process failed (status %d)\n",
                 status);
    std::exit(1);
  }
  RepReader in(std::move(bytes));
  RepResult rep;
  RepFields(in, rep);
  if (!in.complete()) {
    std::fprintf(stderr, "perfbench: rep process sent a truncated result\n");
    std::exit(1);
  }
  return rep;
}

void PrintMetric(const char* name, double value, const char* unit,
                 const char* set, bool exact) {
  std::printf("metric %s %.17g %s %s %s\n", name, value, unit, set,
              exact ? "exact" : "host");
}

/// Peak resident set of the largest rep process.
double PeakRssMb() {
  struct rusage usage;
  if (getrusage(RUSAGE_CHILDREN, &usage) != 0) return 0;
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

/// The CPUs this process may run on.
std::vector<int> AllowedCpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) != 0) Fatal("perfbench: CPUs");
  std::vector<int> cpus;
  for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
    if (CPU_ISSET(cpu, &set)) cpus.push_back(cpu);
  }
  return cpus;
}

int Usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload <name> --seed <n> --seconds <s> "
               "--trace <0|1> [--trace-out <path>] "
               "[--force-check-failure]\nworkloads:");
  for (const Workload& w : kWorkloads) std::fprintf(stderr, " %s", w.name);
  std::fprintf(stderr, "\n");
  return 2;
}

int Main(int argc, char** argv) {
  const Workload* workload = nullptr;
  std::uint64_t seed = 0;
  double seconds = -1;
  int trace = -1;
  std::string trace_out;
  bool force_check_failure = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const bool has_value = i + 1 < argc;
    if (arg == "--workload" && has_value) {
      const std::string name = argv[++i];
      for (const Workload& w : kWorkloads) {
        if (name == w.name) workload = &w;
      }
      if (workload == nullptr) return Usage();
    } else if (arg == "--seed" && has_value) {
      seed = std::strtoull(argv[++i], nullptr, 10);
    } else if (arg == "--seconds" && has_value) {
      seconds = std::strtod(argv[++i], nullptr);
    } else if (arg == "--trace" && has_value) {
      trace = std::atoi(argv[++i]);
    } else if (arg == "--trace-out" && has_value) {
      trace_out = argv[++i];
    } else if (arg == "--force-check-failure") {
      force_check_failure = true;
    } else {
      return Usage();
    }
  }
  if (workload == nullptr || seconds < 0 || (trace != 0 && trace != 1)) {
    return Usage();
  }
  const Workload& w = *workload;
  const bool traced = trace == 1;
  // The thread workload's reps each run on one CPU, and successive reps
  // on successive CPUs: a vCPU the host slows for a minute then slows
  // only its share of the reps, and each slice's fastest time comes
  // from a CPU that was quiet.
  const std::vector<int> cpus = AllowedCpus();

  // The thread workload's oracle: the same scenario on the sim, run
  // once, outside every timed window.
  RepResult oracle;
  if (w.threads) {
    oracle = RunRepInChild(w, seed, /*threads=*/false, /*traced=*/false, "",
                           /*cpu=*/-1);
  }

  // Reps run until the budget is spent. A traced run alternates
  // untraced and traced reps, so that the tracing overhead compares
  // reps of one run under the same conditions.
  const int min_reps = traced ? 4 : 3;
  const Clock::time_point start = Clock::now();
  std::vector<RepResult> reps;
  while (static_cast<int>(reps.size()) < min_reps ||
         SecondsOf(Clock::now() - start) < seconds) {
    const bool trace_this = traced && reps.size() % 2 == 1;
    // A traced run moves on after each untraced/traced pair, so that
    // both halves of the overhead see every CPU.
    const std::size_t turn = traced ? reps.size() / 2 : reps.size();
    const int cpu = w.threads ? cpus[turn % cpus.size()] : -1;
    RepResult rep =
        RunRepInChild(w, seed, w.threads, trace_this, trace_out, cpu);
    std::fprintf(stderr,
                 "rep %zu%s: setup_s=%.6f total_s=%.6f txn_per_s=%.1f\n",
                 reps.size(), trace_this ? " (traced)" : "", rep.setup_s,
                 rep.total_s, rep.txn_per_s());
    reps.push_back(std::move(rep));
  }

  // Checks across reps: every rep of one seed must repeat the first.
  for (std::size_t i = 0; i < reps.size(); ++i) {
    RepResult& rep = reps[i];
    if (w.threads) {
      if (rep.fingerprint.digest != oracle.fingerprint.digest ||
          rep.shard_digests != oracle.shard_digests ||
          rep.committed != oracle.committed) {
        rep.failures.push_back("thread backend differs from the sim oracle");
      }
    }
    if (i > 0) {
      bool same = rep.fingerprint == reps[0].fingerprint &&
                  rep.slice_committed == reps[0].slice_committed &&
                  rep.counts.size() == reps[0].counts.size();
      for (std::size_t k = 0; same && k < rep.counts.size(); ++k) {
        same = rep.counts[k].value == reps[0].counts[k].value;
      }
      if (!same) rep.failures.push_back("rep differs from the first rep");
    }
    if (force_check_failure) rep.failures.push_back("forced check failure");
  }

  std::uint64_t attempted = 0, failed = 0, not_committed = 0;
  bool correct = true;
  for (const RepResult& rep : reps) {
    attempted += rep.submitted;
    if (rep.failures.empty()) {
      not_committed += rep.not_committed;
    } else {
      correct = false;
      failed += rep.submitted;
      for (const std::string& f : rep.failures) {
        std::fprintf(stderr, "check failed: %s\n", f.c_str());
      }
    }
  }
  const double fail_frac =
      attempted > 0
          ? static_cast<double>(failed + not_committed) /
                static_cast<double>(attempted)
          : 1;

  // Every end-to-end host metric is assembled from the untraced reps'
  // fastest slices and phases (see Fastest). Stalls the code causes
  // (pool growth, flush bursts) recur in every rep, so the slice p95
  // still shows them.
  std::vector<const RepResult*> untraced_reps, traced_reps;
  for (const RepResult& rep : reps) {
    (rep.traced ? traced_reps : untraced_reps).push_back(&rep);
  }
  const FastestRep fastest = Fastest(untraced_reps);

  if (!traced) {
    PrintMetric("txn_per_s", fastest.txn_per_s, "txn/s", "e2e", false);
    PrintMetric("ns_per_txn_p50", fastest.ns_per_txn_p50, "ns", "e2e", false);
    PrintMetric("ns_per_txn_p95", fastest.ns_per_txn_p95, "ns", "e2e", false);
    PrintMetric("setup_s", fastest.setup_s, "s", "e2e", false);
    PrintMetric("total_s", fastest.total_s, "s", "e2e", false);
    PrintMetric("peak_rss_mb", PeakRssMb(), "MB", "e2e", false);
    PrintMetric("fail_frac", fail_frac, "ratio", "info", true);
  } else {
    PrintMetric("txn.fail_frac", fail_frac, "ratio", "layer", true);
    for (const Metric& m : reps[0].counts) {
      PrintMetric(m.name, m.value, m.unit, "layer", true);
    }
    // Host-time layer metrics: median over the traced reps.
    const std::vector<Metric>& names = traced_reps.front()->times;
    for (std::size_t k = 0; k < names.size(); ++k) {
      std::vector<double> values;
      for (const RepResult* r : traced_reps) {
        values.push_back(r->times[k].value);
      }
      PrintMetric(names[k].name, Median(values), names[k].unit,
                  "layer", false);
    }
    std::vector<double> ratio;
    if (w.threads && oracle.window_s > 0) {
      for (const RepResult* r : traced_reps) {
        ratio.push_back(r->window_s / oracle.window_s);
      }
    }
    PrintMetric("runtime.oracle_wall_ratio", Median(ratio), "ratio", "layer",
                false);
    PrintMetric("trace.overhead_frac",
                1 - Fastest(traced_reps).txn_per_s / fastest.txn_per_s,
                "ratio", "layer", false);
    // Self time of every span name, per traced rep.
    for (const SpanTotals& entry : traced_reps.front()->span_totals) {
      const char* name = entry.name;
      std::uint64_t n = 0;
      double total = 0, self = 0;
      for (const RepResult* r : traced_reps) {
        if (const SpanTotals* t = FindSpan(*r, name)) {
          n += t->count;
          total += t->total_ns;
          self += t->self_ns;
        }
      }
      const double k = static_cast<double>(traced_reps.size());
      std::printf("span %s count=%.17g total_ms=%.6f self_ms=%.6f\n", name,
                  static_cast<double>(n) / k, total / k * 1e-6,
                  self / k * 1e-6);
    }
  }

  const Fingerprint& fp = reps[0].fingerprint;
  std::printf("fingerprint digest=%016" PRIx64 " submitted=%" PRIu64
              " committed=%" PRIu64 " events=%" PRIu64 "\n",
              fp.digest, fp.submitted, fp.committed, fp.events);
  std::printf("result correct=%d attempted=%" PRIu64 " failed=%" PRIu64
              " reps=%zu\n",
              correct ? 1 : 0, attempted, failed, reps.size());
  return 0;
}

}  // namespace
}  // namespace tdr::perfbench

int main(int argc, char** argv) { return tdr::perfbench::Main(argc, argv); }
