#include "obs/obs.h"

#include <pthread.h>

#include <cstdio>
#include <memory>
#include <mutex>
#include <new>

#include "obs/comm_obs.h"
#include "obs/hist.h"
#include "obs/live.h"
#include "obs/metrics.h"
#include "obs/phase.h"

namespace raxh::obs {

namespace detail {

std::atomic<bool> g_enabled{false};

namespace {

std::atomic<int> g_rank{-1};

// One per thread, padded so no two threads' tallies share a cache line.
// Only the owner thread writes its counters and histograms; snapshot reads
// from other threads are relaxed loads — race-free under TSan.
struct alignas(64) ThreadState {
  int tid = 0;
  Tally tally{/*shared=*/false, kTraceCapacity};
};

struct Registry {
  std::mutex mutex;
  // shared_ptr so a thread's tally outlives the thread (crew workers are
  // torn down per analysis, but their events belong to the run).
  std::vector<std::shared_ptr<ThreadState>> threads;
  std::vector<Tally*> jobs;  // live JobObs tallies
  // Counters and histograms of destroyed jobs (never holds spans).
  Tally retired{/*shared=*/false, 0};
  // Process-wide track for phase markers, exported as tid kPhaseTrackTid.
  // Kept out of the thread rings so phase spans never compete for slots
  // with high-frequency spans (a busy crew evicts tens of thousands of job
  // spans per stage).
  SpanRing phase_track{kTraceCapacity};
  int next_tid = 0;

  // Every tally the process-wide views sum. Caller holds `mutex`.
  template <typename Fn>
  void for_each_tally(Fn fn) {
    for (const auto& state : threads) fn(state->tally);
    for (Tally* job : jobs) fn(*job);
    fn(retired);
  }
};

Registry& registry() {
  static Registry* r = new Registry;  // leaked: usable during static teardown
  return *r;
}

void clear_all_locked(Registry& reg) {
  reg.for_each_tally([](Tally& t) { t.clear(); });
  reg.phase_track.clear();
}

// Forked children must not re-export the parent's pre-fork history: minimpi's
// ProcessComm forks rank 1.. from rank 0 after setup, and a child that kept
// the inherited events would duplicate them in the merged exports.
void atfork_child() {
  Registry& reg = registry();
  // Fresh mutexes: the forked child owns single-threaded copies, but a mutex
  // state inherited mid-flight would be undefined to lock.
  new (&reg.mutex) std::mutex;
  reg.for_each_tally([](Tally& t) { t.spans.reset_for_fork(); });
  reg.phase_track.reset_for_fork();
  clear_all_locked(reg);
  run_phases_reset_for_fork();
  live_reset_for_fork();
  comm::reset_for_fork();
}

std::once_flag g_atfork_once;

thread_local std::shared_ptr<ThreadState> t_state;

// This thread's state (registered globally on first use).
ThreadState& thread_state() {
  if (!t_state) {
    std::call_once(g_atfork_once,
                   [] { ::pthread_atfork(nullptr, nullptr, atfork_child); });
    auto fresh = std::make_shared<ThreadState>();
    Registry& reg = registry();
    std::lock_guard<std::mutex> lock(reg.mutex);
    fresh->tid = reg.next_tid++;
    reg.threads.push_back(fresh);
    t_state = std::move(fresh);
  }
  return *t_state;
}

// The one tally this thread's events go to: its bound job's, else its own.
Tally& sink() {
  if (JobObs* job = t_job_sink) return job->tally();
  return thread_state().tally;
}

}  // namespace

void add_count(Counter c, std::uint64_t n) { sink().add_count(c, n); }

void hist_add(Hist h, std::uint64_t ns) { sink().add_hist(h, ns); }

void register_job_tally(Tally& tally) {
  Registry& reg = registry();
  std::lock_guard<std::mutex> lock(reg.mutex);
  reg.jobs.push_back(&tally);
}

void retire_job_tally(Tally& tally) {
  Registry& reg = registry();
  std::lock_guard<std::mutex> lock(reg.mutex);
  reg.retired.absorb(tally);
  std::erase(reg.jobs, &tally);
}

}  // namespace detail

void set_enabled(bool on) {
  detail::g_enabled.store(on, std::memory_order_relaxed);
}

void set_rank(int r) { detail::g_rank.store(r, std::memory_order_relaxed); }

int rank() { return detail::g_rank.load(std::memory_order_relaxed); }

namespace {
thread_local std::uint64_t t_synthetic_delay_ns = 0;
}  // namespace

void add_synthetic_delay_ns(std::uint64_t ns) {
  t_synthetic_delay_ns += ns;
  count(Counter::kSyntheticDelayNs, ns);
}

std::uint64_t synthetic_delay_ns_this_thread() { return t_synthetic_delay_ns; }

void reset() {
  auto& reg = detail::registry();
  std::lock_guard<std::mutex> lock(reg.mutex);
  detail::clear_all_locked(reg);
  run_phases().clear();
  live_reset();
  set_rank(-1);
}

const char* counter_name(Counter c) {
  switch (c) {
    case Counter::kNewviewCalls:
      return "newview_calls";
    case Counter::kEvaluateCalls:
      return "evaluate_calls";
    case Counter::kDerivativeCalls:
      return "derivative_calls";
    case Counter::kPatternsEvaluated:
      return "patterns_evaluated";
    case Counter::kReductionCalls:
      return "reduction_calls";
    case Counter::kWorkforceJobs:
      return "workforce_jobs";
    case Counter::kBarrierWaitNs:
      return "barrier_wait_ns";
    case Counter::kSpansDropped:
      return "spans_dropped";
    case Counter::kFaultsInjected:
      return "faults_injected";
    case Counter::kRankFailures:
      return "rank_failures";
    case Counter::kUnitsRegranted:
      return "units_regranted";
    case Counter::kSyntheticDelayNs:
      return "synthetic_delay_ns";
    case Counter::kAlignParses:
      return "align_parses";
    case Counter::kAlignCacheHits:
      return "align_cache_hits";
    case Counter::kAlignCacheMisses:
      return "align_cache_misses";
    case Counter::kAlignCacheEvictions:
      return "align_cache_evictions";
    case Counter::kServeJobsSubmitted:
      return "serve_jobs_submitted";
    case Counter::kServeJobsCompleted:
      return "serve_jobs_completed";
    case Counter::kCommBytesSent:
      return "comm_bytes_sent";
    case Counter::kCommBytesRecv:
      return "comm_bytes_recv";
    case Counter::kKernelFallback:
      return "kernel_fallbacks";
    case Counter::kRepeatPatternsComputed:
      return "repeat_patterns_computed";
    case Counter::kRepeatPatternsCopied:
      return "repeat_patterns_copied";
    case Counter::kKernelScalarPatterns:
      return "kernel_scalar_patterns";
    case Counter::kPmatSetsComputed:
      return "pmat_sets_computed";
    case Counter::kPmatSetsReused:
      return "pmat_sets_reused";
    case Counter::kCount:
      break;
  }
  return "unknown";
}

CounterSnapshot counters_snapshot() {
  CounterSnapshot snap;
  auto& reg = detail::registry();
  std::lock_guard<std::mutex> lock(reg.mutex);
  reg.for_each_tally([&](const Tally& t) { t.sum_counters(snap); });
  return snap;
}

HistSnapshot hist_snapshot(Hist h) {
  HistSnapshot snap;
  auto& reg = detail::registry();
  std::lock_guard<std::mutex> lock(reg.mutex);
  reg.for_each_tally([&](const Tally& t) { t.sum_hist(h, snap); });
  return snap;
}

void record_span(std::string name, std::uint64_t start_ns,
                 std::uint64_t dur_ns) {
  // A thread bound to a job records into the job's ring instead of its own:
  // the daemon's merged trace nests the spans under the owning job, and
  // concurrent jobs stop interleaving in one timeline.
  if (JobObs* job = detail::t_job_sink) {
    const int lane = detail::t_job_lane >= 0
                         ? detail::t_job_lane
                         : kJobUnlanedTidBase + detail::thread_state().tid;
    job->tally().add_span({std::move(name), start_ns, dur_ns, lane});
    return;
  }
  detail::ThreadState& state = detail::thread_state();
  state.tally.add_span({std::move(name), start_ns, dur_ns, state.tid});
}

void record_phase_span(std::string name, std::uint64_t start_ns,
                       std::uint64_t dur_ns) {
  if (JobObs* job = detail::t_job_sink) {
    job->set_lane_name(kJobPhaseLane, "phases");
    job->tally().add_span({std::move(name), start_ns, dur_ns, kJobPhaseLane});
    return;
  }
  SpanRing& track = detail::registry().phase_track;
  track.name_lane(kPhaseTrackTid, "phases");
  if (track.push({std::move(name), start_ns, dur_ns, kPhaseTrackTid}))
    detail::add_count(Counter::kSpansDropped, 1);
}

std::string export_trace_fragment(int my_rank) {
  const int pid = my_rank >= 0 ? my_rank : 0;
  // The process_name record lets Perfetto label each rank's track group.
  ChromeTrace trace(pid, "rank " + std::to_string(pid));
  auto& reg = detail::registry();
  std::lock_guard<std::mutex> lock(reg.mutex);
  bool any_event = false;
  for (const auto& state : reg.threads)
    any_event |= state->tally.spans.append_to(trace);
  any_event |= reg.phase_track.append_to(trace);
  return any_event ? trace.take() : std::string();
}

std::string merge_trace_fragments(const std::vector<std::string>& fragments) {
  std::string out = "{\"traceEvents\":[\n";
  bool first = true;
  for (const auto& frag : fragments) {
    if (frag.empty()) continue;
    if (!first) out += ",\n";
    first = false;
    out += frag;
  }
  out += "\n],\"displayTimeUnit\":\"ms\"}\n";
  return out;
}

std::string export_metrics_fragment(int my_rank,
                                    const std::string& extra_sections) {
  const CounterSnapshot snap = counters_snapshot();
  std::string out = "{\"rank\":" + std::to_string(my_rank >= 0 ? my_rank : 0);
  out += ",\"counters\":{";
  for (int i = 0; i < kNumCounters; ++i) {
    if (i > 0) out += ",";
    out += "\"";
    out += counter_name(static_cast<Counter>(i));
    out += "\":" + std::to_string(snap.values[i]);
  }
  out += "},\"phases\":{";
  bool first = true;
  for (const auto& [name, secs] : run_phases().phases()) {
    if (!first) out += ",";
    first = false;
    out += "\"";
    append_json_escaped(out, name);
    char buf[40];
    std::snprintf(buf, sizeof(buf), "\":%.6f", secs);
    out += buf;
  }
  out += "},";
  out += hist_metrics_section();
  if (!extra_sections.empty()) {
    out += ",";
    out += extra_sections;
  }
  out += "}";
  return out;
}

std::string merge_metrics_fragments(const std::vector<std::string>& fragments) {
  std::string out = "[\n";
  bool first = true;
  for (const auto& frag : fragments) {
    if (frag.empty()) continue;
    if (!first) out += ",\n";
    first = false;
    out += frag;
  }
  out += "\n]\n";
  return out;
}

}  // namespace raxh::obs
