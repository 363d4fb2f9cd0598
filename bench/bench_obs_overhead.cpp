// What does observability cost the likelihood hot path? Three modes, with
// likelihood-kernel throughput measured interleaved (this machine drifts
// ~10% run-to-run, so never compare single shots):
//
//   off        obs + flight recorder disabled — the bare kernels
//   flight     flight recorder only — what every production run pays
//              (the recorder is on by default)
//   heartbeat  obs enabled + a HeartbeatWriter publishing live progress
//   trace      obs enabled (counters, spans, latency histograms), no writer
//   attrib     obs enabled + a JobObs sink bound (daemon per-job
//              attribution: every counter/histogram/span mirrors into the
//              job block, as raxhd charges it to the submitting tenant)
//
// The CI-enforced budget is on the *always-on* modes: disabled obs
// instrumentation and the enabled flight recorder must each cost < 2% of
// kernel throughput. The comm plane (obs/comm_obs.h) is gated the same
// way: a disabled-observability minimpi ping-pong must pay < 2% for the
// per-edge matrix / ring gauge / overlap gate sites it now carries.
// Measuring that directly is hopeless (the effect is far
// below machine noise), so the checks are deterministic instead: microbench
// the per-event cost (one relaxed atomic load + branch for the disabled obs
// gate; a clock sample + four relaxed stores for a flight record), count
// the events one evaluation triggers, and bound the cost as
// per_event_ns * events * safety / eval_ns. The safety factor covers gate
// sites that fire without bumping a counter (span and histogram guards, the
// per-job timing gate, phase scopes).
//
// Also reported (not gated): the time to dump a full flight ring to disk —
// the crash path's cost, paid once at death.
#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <vector>

#include "bench_util.h"
#include "bio/patterns.h"
#include "bio/seqsim.h"
#include "likelihood/engine.h"
#include "minimpi/comm.h"
#include "obs/flight.h"
#include "obs/hist.h"
#include "obs/live.h"
#include "obs/metrics.h"
#include "obs/obs.h"
#include "parallel/workforce.h"
#include "tree/tree.h"

namespace {

using namespace raxh;

constexpr int kRounds = 5;
constexpr int kEvalsPerRound = 30;
constexpr double kDisabledBudget = 0.02;
constexpr double kGateSafetyFactor = 8.0;

struct Fixture {
  Fixture() : crew(2) {
    SimConfig cfg;
    cfg.taxa = 24;
    cfg.distinct_sites = 512;
    cfg.total_sites = 512;
    cfg.seed = 99;
    sim = simulate_alignment(cfg);
    patterns = PatternAlignment::compress(sim.alignment);
    GtrParams gtr;
    gtr.freqs = patterns.empirical_frequencies();
    engine = std::make_unique<LikelihoodEngine>(
        patterns, gtr, RateModel::cat(patterns.num_patterns()), &crew);
    tree = std::make_unique<Tree>(
        Tree::parse_newick(sim.true_tree_newick, patterns.names()));
  }

  // Seconds per full (invalidate + newview sweep + evaluate) evaluation.
  double time_round(bool live_updates) {
    volatile double sink = 0.0;
    const std::uint64_t start = obs::now_ns();
    for (int i = 0; i < kEvalsPerRound; ++i) {
      engine->invalidate_all();
      sink = engine->evaluate(*tree);
      if (live_updates) {
        obs::live_unit_done();
        obs::live_report_lnl(sink);
      }
    }
    return static_cast<double>(obs::now_ns() - start) * 1e-9 / kEvalsPerRound;
  }

  Workforce crew;
  SimResult sim;
  PatternAlignment patterns;
  std::unique_ptr<LikelihoodEngine> engine;
  std::unique_ptr<Tree> tree;
};

double median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

// ns per instrumentation-point gate with observability disabled: the relaxed
// atomic load + branch every obs::count / Span / hist_record call pays.
// When `bound_sink` is set, a JobObs attribution block is bound to the
// thread first — the daemon's worst case for a disabled run. The enabled
// check precedes the sink check, so the two must measure the same.
double measure_gate_ns(bool bound_sink = false) {
  obs::set_enabled(false);
  std::shared_ptr<obs::JobObs> job =
      bound_sink ? std::make_shared<obs::JobObs>() : nullptr;
  obs::JobScope scope(job);
  constexpr std::uint64_t kCalls = 1 << 24;
  const std::uint64_t start = obs::now_ns();
  for (std::uint64_t i = 0; i < kCalls; ++i)
    obs::count(obs::Counter::kNewviewCalls);
  return static_cast<double>(obs::now_ns() - start) /
         static_cast<double>(kCalls);
}

// ns the attribution mirror adds to one enabled obs::count: bound-sink
// cost minus unbound cost (one extra relaxed fetch_add into the job block).
double measure_attribution_event_ns() {
  obs::set_enabled(true);
  constexpr std::uint64_t kCalls = 1 << 22;
  const std::uint64_t t0 = obs::now_ns();
  for (std::uint64_t i = 0; i < kCalls; ++i)
    obs::count(obs::Counter::kNewviewCalls);
  const double unbound = static_cast<double>(obs::now_ns() - t0);
  auto job = std::make_shared<obs::JobObs>();
  obs::JobScope scope(job);
  const std::uint64_t t1 = obs::now_ns();
  for (std::uint64_t i = 0; i < kCalls; ++i)
    obs::count(obs::Counter::kNewviewCalls);
  const double bound = static_cast<double>(obs::now_ns() - t1);
  obs::set_enabled(false);
  obs::reset();
  const double delta = (bound - unbound) / static_cast<double>(kCalls);
  return delta > 0.0 ? delta : 0.0;
}

// ns per flight-recorder event: enabled records a clock sample + four
// relaxed stores into the thread's ring; disabled is the gate alone.
double measure_flight_ns(bool enabled) {
  obs::flight::set_enabled(enabled);
  constexpr std::uint64_t kCalls = 1 << 22;
  const std::uint64_t start = obs::now_ns();
  for (std::uint64_t i = 0; i < kCalls; ++i)
    obs::flight::record(obs::flight::Kind::kNote, 1, i);
  return static_cast<double>(obs::now_ns() - start) /
         static_cast<double>(kCalls);
}

// Flight events per evaluation (sampled crew job dispatch/join), averaged
// over enough evaluations to smooth the 1-in-64 job sampling; rounded up.
std::uint64_t measure_flight_events_per_eval(Fixture& f) {
  obs::flight::set_enabled(true);
  constexpr std::uint64_t kEvals = 64;
  const std::uint64_t before = obs::flight::events_recorded();
  for (std::uint64_t i = 0; i < kEvals; ++i) {
    f.engine->invalidate_all();
    f.engine->evaluate(*f.tree);
  }
  const std::uint64_t recorded = obs::flight::events_recorded() - before;
  return (recorded + kEvals - 1) / kEvals;
}

// ms to dump every (full) ring to disk — the one-shot crash-path cost.
double measure_dump_ms() {
  obs::flight::set_enabled(true);
  for (std::size_t i = 0; i < obs::flight::kRingCapacity; ++i)
    obs::flight::record(obs::flight::Kind::kNote, 1, i);
  obs::flight::set_dump_dir("bench_out/obs_blackbox");
  const std::uint64_t start = obs::now_ns();
  if (!obs::flight::dump_now(0, "bench dump")) return -1.0;
  return static_cast<double>(obs::now_ns() - start) / 1e6;
}

// Atomic-load gate sites the comm plane adds to one 4-op ping-pong round
// trip (send + recv on each rank, all serialized on the critical path) with
// observability disabled. Thread channels pay one obs::enabled() gate in
// send and one in recv (it decides whether the hop is timed): 4. Shm rings
// additionally pay the send_frame ring-depth gate on each send: 6. Not
// gates, and not comm-plane additions: the message and byte counts send/recv
// always book into the edge matrix are the comm's stats (they replace the
// per-op OpStats adds that predate the plane). The untimed hop's other
// checks (stall-scope flags, the kCollEdge test) are plain tests of stack
// values, covered by the safety factor.
constexpr double kCommGatesChannel = 4.0;
constexpr double kCommGatesShm = 6.0;

// The kernel bound's x8 factor models cache amplification of a gate inside
// a hot SIMD loop. The comm gates instead sit next to 4 KiB memcpys and a
// cross-thread handoff measured in microseconds, so x4 covers the
// microbenchmark underestimating in-context cost without that term.
constexpr double kCommGateSafetyFactor = 4.0;

// ns per minimpi ping-pong round trip with the comm plane cold (obs and
// flight recorder disabled): 2 thread-backed ranks over the given
// transport, 4 KiB payloads — the small-message regime where per-op gate
// costs matter most relative to transport work.
double measure_comm_rt_ns(const mpi::CommOptions& options) {
  obs::set_enabled(false);
  obs::flight::set_enabled(false);
  constexpr int kWarm = 64;
  constexpr int kIters = 2048;
  constexpr int kTag = 7;
  std::atomic<double> round_trip_ns{0.0};
  mpi::run_thread_ranks(
      2,
      [&](mpi::Comm& comm) {
        const mpi::Bytes payload(4096, 0x5a);
        if (comm.rank() == 0) {
          for (int i = 0; i < kWarm; ++i) {
            comm.send(1, kTag, payload);
            comm.recv(1, kTag);
          }
          const std::uint64_t start = obs::now_ns();
          for (int i = 0; i < kIters; ++i) {
            comm.send(1, kTag, payload);
            comm.recv(1, kTag);
          }
          round_trip_ns.store(
              static_cast<double>(obs::now_ns() - start) / kIters,
              std::memory_order_relaxed);
        } else {
          for (int i = 0; i < kWarm + kIters; ++i) {
            const mpi::Bytes got = comm.recv(0, kTag);
            comm.send(0, kTag, got);
          }
        }
      },
      options);
  return round_trip_ns.load(std::memory_order_relaxed);
}

// Counter-visible instrumented events in one full evaluation (enables obs
// to count them, then restores the disabled state).
std::uint64_t measure_events_per_eval(Fixture& f) {
  obs::set_enabled(true);
  obs::reset();
  f.engine->invalidate_all();
  f.engine->evaluate(*f.tree);
  const obs::CounterSnapshot snap = obs::counters_snapshot();
  obs::set_enabled(false);
  obs::reset();
  return snap[obs::Counter::kNewviewCalls] +
         snap[obs::Counter::kEvaluateCalls] +
         snap[obs::Counter::kDerivativeCalls] +
         snap[obs::Counter::kReductionCalls] +
         snap[obs::Counter::kWorkforceJobs];
}

}  // namespace

int main() {
  bench::print_header(
      "OBS OVERHEAD - telemetry cost on the likelihood kernels",
      "repo budget: observability must cost a disabled run < 2%");

  Fixture f;
  f.time_round(false);  // warm-up: faults pages, settles the crew

  // A second fixture whose crew was constructed under a job binding: its
  // workers inherited the sink, so the attrib mode mirrors from every
  // thread, exactly as a daemon executor does.
  auto attrib_job = std::make_shared<obs::JobObs>();
  std::unique_ptr<Fixture> f_attrib;
  {
    obs::JobScope scope(attrib_job, 0);
    f_attrib = std::make_unique<Fixture>();
  }
  f_attrib->time_round(false);  // warm-up

  std::vector<double> off_s, flight_s, heartbeat_s, trace_s, attrib_s;
  for (int round = 0; round < kRounds; ++round) {
    obs::set_enabled(false);
    obs::flight::set_enabled(false);
    off_s.push_back(f.time_round(false));

    obs::flight::set_enabled(true);
    flight_s.push_back(f.time_round(false));

    obs::set_enabled(true);
    obs::reset();
    obs::live_begin_run(0, {{"bench", kRounds * kEvalsPerRound, 1.0}});
    {
      obs::HeartbeatWriter writer(
          obs::HeartbeatOptions{"bench_out/obs_heartbeat", 0, 50, {},
                                nullptr});
      heartbeat_s.push_back(f.time_round(true));
    }

    obs::reset();
    trace_s.push_back(f.time_round(false));

    obs::reset();
    {
      obs::JobScope scope(attrib_job, 0);
      attrib_s.push_back(f_attrib->time_round(false));
    }
    obs::set_enabled(false);
    obs::reset();
  }

  const double off = median(off_s);
  const double flight = median(flight_s);
  const double heartbeat = median(heartbeat_s);
  const double trace = median(trace_s);
  const double attrib = median(attrib_s);
  const double flight_overhead = flight / off - 1.0;
  const double heartbeat_overhead = heartbeat / off - 1.0;
  const double trace_overhead = trace / off - 1.0;
  const double attrib_overhead = attrib / off - 1.0;
  const double attrib_vs_trace = attrib / trace - 1.0;

  const double gate_ns = measure_gate_ns();
  const double gate_bound_sink_ns = measure_gate_ns(/*bound_sink=*/true);
  const auto events = measure_events_per_eval(f);
  // The daemon gate: even with an attribution sink bound to every thread, a
  // disabled run must stay under budget. Taking the worse of the two gate
  // measurements makes the bound cover both the CLI and the daemon path.
  const double worst_gate_ns = std::max(gate_ns, gate_bound_sink_ns);
  const double disabled_bound = worst_gate_ns * static_cast<double>(events) *
                                kGateSafetyFactor / (off * 1e9);
  const double attribution_event_ns = measure_attribution_event_ns();

  const double flight_gate_ns = measure_flight_ns(false);
  const double flight_record_ns = measure_flight_ns(true);
  const auto flight_events = measure_flight_events_per_eval(f);
  const double flight_bound = flight_record_ns *
                              static_cast<double>(flight_events) *
                              kGateSafetyFactor / (off * 1e9);
  const double dump_ms = measure_dump_ms();

  // Comm-plane gate: bound each transport with its own gate count over its
  // own round trip (min of 3 — the shortest trip is the stablest sample and
  // inflates the bound, i.e. stays conservative), then gate on the worse.
  mpi::CommOptions comm_chan;
  mpi::CommOptions comm_shm;
  comm_shm.transport = mpi::Transport::kShm;
  double chan_rt_ns = 1e18, shm_rt_ns = 1e18;
  for (int r = 0; r < 3; ++r) {
    chan_rt_ns = std::min(chan_rt_ns, measure_comm_rt_ns(comm_chan));
    shm_rt_ns = std::min(shm_rt_ns, measure_comm_rt_ns(comm_shm));
  }
  const double comm_bound_chan = kCommGatesChannel * worst_gate_ns *
                                 kCommGateSafetyFactor / chan_rt_ns;
  const double comm_bound_shm =
      kCommGatesShm * worst_gate_ns * kCommGateSafetyFactor / shm_rt_ns;
  const double comm_bound = std::max(comm_bound_chan, comm_bound_shm);

  std::printf("\nkernel throughput (median of %d interleaved rounds, "
              "%d evals/round, 512 patterns, 2 threads):\n",
              kRounds, kEvalsPerRound);
  std::printf("  %-22s %8.1f us/eval\n", "all off", off * 1e6);
  std::printf("  %-22s %8.1f us/eval  (%+.1f%%)\n", "flight recorder",
              flight * 1e6, flight_overhead * 100.0);
  std::printf("  %-22s %8.1f us/eval  (%+.1f%%)\n", "obs on + heartbeats",
              heartbeat * 1e6, heartbeat_overhead * 100.0);
  std::printf("  %-22s %8.1f us/eval  (%+.1f%%)\n", "obs on (trace)",
              trace * 1e6, trace_overhead * 100.0);
  std::printf("  %-22s %8.1f us/eval  (%+.1f%%, %+.1f%% vs trace)\n",
              "obs on + attribution", attrib * 1e6, attrib_overhead * 100.0,
              attrib_vs_trace * 100.0);
  std::printf("\ndaemon attribution (per-job mirroring, not always-on):\n");
  std::printf("  mirror cost          %10.2f ns/event "
              "(one extra relaxed fetch_add)\n",
              attribution_event_ns);
  std::printf("\ndisabled-cost bound (deterministic):\n");
  std::printf("  gate cost            %10.2f ns/site "
              "(with bound sink %.2f ns)\n",
              gate_ns, gate_bound_sink_ns);
  std::printf("  events per eval      %10llu  (x%.0f safety factor)\n",
              static_cast<unsigned long long>(events), kGateSafetyFactor);
  std::printf("  bound                %10.4f%%  (budget %.0f%%)\n",
              disabled_bound * 100.0, kDisabledBudget * 100.0);
  std::printf("\nflight-recorder cost bound (deterministic):\n");
  std::printf("  record cost          %10.2f ns/event  (gate alone %.2f ns)\n",
              flight_record_ns, flight_gate_ns);
  std::printf("  events per eval      %10llu  (x%.0f safety factor)\n",
              static_cast<unsigned long long>(flight_events),
              kGateSafetyFactor);
  std::printf("  bound                %10.4f%%  (budget %.0f%%)\n",
              flight_bound * 100.0, kDisabledBudget * 100.0);
  std::printf("  full-ring dump       %10.2f ms (crash path, paid once)\n",
              dump_ms);
  std::printf("\ncomm-plane cost bound (deterministic, 4 KiB ping-pong):\n");
  std::printf("  round trip (channel) %10.2f us  (%.0f gate sites)\n",
              chan_rt_ns / 1e3, kCommGatesChannel);
  std::printf("  round trip (shm)     %10.2f us  (%.0f gate sites)\n",
              shm_rt_ns / 1e3, kCommGatesShm);
  std::printf("  bound                %10.4f%%  (x%.0f safety, budget "
              "%.0f%%)\n",
              comm_bound * 100.0, kCommGateSafetyFactor,
              kDisabledBudget * 100.0);

  char extra[1536];
  std::snprintf(
      extra, sizeof(extra),
      "\"budget\":%.2f,\"eval_us_off\":%.1f,\"eval_us_flight\":%.1f,"
      "\"eval_us_heartbeat\":%.1f,"
      "\"eval_us_trace\":%.1f,\"eval_us_attrib\":%.1f,"
      "\"flight_overhead\":%.4f,"
      "\"heartbeat_overhead\":%.4f,"
      "\"trace_overhead\":%.4f,\"attrib_overhead\":%.4f,"
      "\"attrib_vs_trace\":%.4f,\"gate_ns\":%.2f,"
      "\"gate_bound_sink_ns\":%.2f,\"attribution_event_ns\":%.2f,"
      "\"instrumented_events_per_eval\":%llu,\"safety_factor\":%.0f,"
      "\"flight_record_ns\":%.2f,\"flight_gate_ns\":%.2f,"
      "\"flight_events_per_eval\":%llu,\"flight_cost_bound\":%.6f,"
      "\"blackbox_dump_ms\":%.2f,"
      "\"comm_pingpong_chan_us\":%.2f,\"comm_pingpong_shm_us\":%.2f,"
      "\"comm_cost_bound\":%.6f",
      kDisabledBudget, off * 1e6, flight * 1e6, heartbeat * 1e6, trace * 1e6,
      attrib * 1e6, flight_overhead, heartbeat_overhead, trace_overhead,
      attrib_overhead, attrib_vs_trace, gate_ns, gate_bound_sink_ns,
      attribution_event_ns, static_cast<unsigned long long>(events),
      kGateSafetyFactor, flight_record_ns, flight_gate_ns,
      static_cast<unsigned long long>(flight_events), flight_bound, dump_ms,
      chan_rt_ns / 1e3, shm_rt_ns / 1e3, comm_bound);
  bench::write_summary("obs_overhead", "disabled_cost_bound", disabled_bound,
                       "fraction", extra);

  if (disabled_bound >= kDisabledBudget) {
    std::printf("\nFAILED: disabled-mode instrumentation cost exceeds the "
                "%.0f%% budget\n",
                kDisabledBudget * 100.0);
    return EXIT_FAILURE;
  }
  if (flight_bound >= kDisabledBudget) {
    std::printf("\nFAILED: always-on flight-recorder cost exceeds the "
                "%.0f%% budget\n",
                kDisabledBudget * 100.0);
    return EXIT_FAILURE;
  }
  if (comm_bound >= kDisabledBudget) {
    std::printf("\nFAILED: disabled comm-plane cost exceeds the "
                "%.0f%% budget\n",
                kDisabledBudget * 100.0);
    return EXIT_FAILURE;
  }
  std::printf(
      "\ndisabled-mode, flight-recorder, and comm-plane costs within "
      "budget\n");
  return EXIT_SUCCESS;
}
