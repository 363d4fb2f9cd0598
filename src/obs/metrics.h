// The one store behind every observability event, job-scoped attribution,
// and Prometheus text exposition.
//
// A Tally holds a counter array, the latency histograms and a bounded span
// ring, and each counter increment, histogram sample or span is written to
// exactly one Tally. Every thread owns one (obs.cpp's per-thread registry)
// and so does every JobObs. The recording sites in obs.cpp (add_count,
// hist_add, record_span) write the bound job's tally when the calling thread
// is bound to a job, and the thread's own tally otherwise — never both.
// The process-wide views (counters_snapshot, hist_snapshot and the exporters
// built on them) sum the thread tallies, the live job tallies, and a retired
// accumulator each JobObs folds its counters and histograms into when it is
// destroyed. Per-job deltas therefore sum to the process-global delta by
// construction: there is no second copy to keep in step.
//
// Jobs are attributed by thread binding: every thread working on behalf of a
// job binds the job's block (JobScope RAII; crew threads inherit their
// creator's binding). Each event is charged to exactly one job, or to none
// (daemon housekeeping).
//
// Cost model: the disabled path is untouched — obs::count() and friends
// still return after one relaxed atomic load when observability is off, so
// the <2% disabled-overhead budget does not depend on this file. When
// enabled, every event pays one thread-local load + branch to pick its
// tally. An unbound thread then writes its own tally with owner-only relaxed
// stores (no lock prefix); a bound thread writes its job's tally, shared by
// the job's few threads, with relaxed fetch_adds (and a CAS loop for a
// histogram max). bench_obs_overhead's attrib mode measures the bound path.
//
// PromWriter renders metrics in the Prometheus text exposition format
// (version 0.0.4): HELP/TYPE preambles, escaped label values, and log2
// histograms re-expressed as cumulative `le` buckets in seconds.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "obs/hist.h"
#include "obs/obs.h"

namespace raxh::obs {

// ---------------------------------------------------------------------------
// Spans and the Chrome trace writer
// ---------------------------------------------------------------------------

// One completed span. `lane` is its exported Chrome tid: the recording
// thread's obs tid in a thread ring, kPhaseTrackTid on the phase track, and
// a job lane in a job ring.
struct SpanEvent {
  std::string name;
  std::uint64_t start_ns = 0;
  std::uint64_t dur_ns = 0;
  int lane = 0;
};

// The one JSON string escaper of the obs exporters.
void append_json_escaped(std::string& out, std::string_view s);

// The one Chrome trace_event writer: a process_name record for `pid`, then
// thread_name records and complete ("ph":"X") span events, comma-joined
// into a fragment obs::merge_trace_fragments can merge.
class ChromeTrace {
 public:
  ChromeTrace(int pid, std::string_view process_name);
  void name_lane(int lane, std::string_view name);
  void span(const SpanEvent& e);
  [[nodiscard]] std::string take() { return std::move(out_); }

 private:
  void name_record(const char* kind, int lane, std::string_view name);
  int pid_;
  std::string out_;
};

// Bounded span ring: once `capacity` events are held, each push overwrites
// the oldest. Also holds the names of its lanes. Mutex-guarded: a thread
// ring's lock is uncontended, a job's threads share the job's ring.
class SpanRing {
 public:
  explicit SpanRing(std::size_t capacity) : capacity_(capacity) {}
  // Returns true when the push evicted the oldest event.
  bool push(SpanEvent event);
  // Labels a lane (exported as a thread_name record).
  void name_lane(int lane, std::string name);
  // Drops the events and the lane names.
  void clear();
  // Writes the lane names, then the events oldest first; false if no events.
  bool append_to(ChromeTrace& trace) const;
  // Fork-child reinitialization (obs.cpp's pthread_atfork child handler).
  void reset_for_fork();

 private:
  mutable std::mutex mu_;
  std::vector<SpanEvent> events_;
  std::size_t next_ = 0;  // oldest event once the ring wrapped, else 0
  std::size_t capacity_;
  std::vector<std::pair<int, std::string>> lane_names_;
};

// ---------------------------------------------------------------------------
// Tally: counters, histograms and spans, stored once
// ---------------------------------------------------------------------------

class Tally {
 public:
  // `shared`: several threads write this tally at once (a job's), so every
  // add is an atomic read-modify-write. Otherwise only the owning thread
  // writes, and an add is a relaxed load + store with no lock prefix.
  Tally(bool shared, std::size_t span_capacity)
      : shared_(shared), spans(span_capacity) {}

  void add_count(Counter c, std::uint64_t n) {
    bump(counters_[static_cast<int>(c)], n);
  }
  void add_hist(Hist h, std::uint64_t ns) {
    const int hi = static_cast<int>(h);
    bump(buckets_[hi][hist_bucket(ns)], 1);
    bump(count_[hi], 1);
    bump(sum_ns_[hi], ns);
    raise_max(max_ns_[hi], ns);
  }
  // A span evicted from the full ring is counted as kSpansDropped here.
  void add_span(SpanEvent event) {
    if (spans.push(std::move(event))) add_count(Counter::kSpansDropped, 1);
  }

  // Add this tally's counters / one histogram into a snapshot (any thread).
  void sum_counters(CounterSnapshot& into) const;
  void sum_hist(Hist h, HistSnapshot& into) const;
  // Folds `other`'s counters and histograms (not its spans) into this one.
  void absorb(const Tally& other);
  // Zeroes the counters and histograms and clears the spans.
  void clear();

 private:
  void bump(std::atomic<std::uint64_t>& slot, std::uint64_t n) {
    if (shared_)
      slot.fetch_add(n, std::memory_order_relaxed);
    else
      slot.store(slot.load(std::memory_order_relaxed) + n,
                 std::memory_order_relaxed);
  }
  void raise_max(std::atomic<std::uint64_t>& slot, std::uint64_t v) {
    std::uint64_t cur = slot.load(std::memory_order_relaxed);
    if (!shared_) {
      if (v > cur) slot.store(v, std::memory_order_relaxed);
      return;
    }
    while (v > cur &&
           !slot.compare_exchange_weak(cur, v, std::memory_order_relaxed)) {
    }
  }

  const bool shared_;
  std::atomic<std::uint64_t> counters_[kNumCounters] = {};
  std::atomic<std::uint64_t> buckets_[kNumHists][kHistBuckets] = {};
  std::atomic<std::uint64_t> count_[kNumHists] = {};
  std::atomic<std::uint64_t> sum_ns_[kNumHists] = {};
  std::atomic<std::uint64_t> max_ns_[kNumHists] = {};

 public:
  // Last, so span-lock traffic stays off the counters' cache lines.
  SpanRing spans;
};

namespace detail {
// The process-wide views' list of live job tallies (obs.cpp's registry).
// retire_job_tally folds the tally's counters and histograms into the
// retired accumulator and unregisters it, in one step under the registry
// lock, so no snapshot sees the job twice or not at all.
void register_job_tally(Tally& tally);
void retire_job_tally(Tally& tally);
}  // namespace detail

// ---------------------------------------------------------------------------
// JobObs: one job's attributed slice of the process-wide telemetry
// ---------------------------------------------------------------------------

// Spans recorded for a job are bounded per job; beyond this the oldest are
// overwritten (and counted as kSpansDropped). 8k spans comfortably hold a
// small job's full crew/collective history and bound a huge one's memory.
inline constexpr std::size_t kJobSpanCapacity = 8192;

// Trace-lane layout inside one job's pid: ranks bind lanes 0..nranks-1,
// phase markers land on kJobPhaseLane, and bound threads without an explicit
// lane (rare) are exported at kJobUnlanedTidBase + their process obs tid.
inline constexpr int kJobPhaseLane = 999;
inline constexpr int kJobLifecycleLane = 998;
inline constexpr int kJobUnlanedTidBase = 100;

class JobObs {
 public:
  JobObs() { detail::register_job_tally(tally_); }
  ~JobObs() { detail::retire_job_tally(tally_); }
  JobObs(const JobObs&) = delete;
  JobObs& operator=(const JobObs&) = delete;

  // Where every thread bound to this job records.
  Tally& tally() { return tally_; }

  // Comm-plane stall gauge: net count of the job's sender threads currently
  // blocked on a full shm ring (raxh_top's per-job stall state).
  void comm_stall_delta(int d) {
    comm_stalled_.fetch_add(d, std::memory_order_relaxed);
  }
  [[nodiscard]] int comm_stalled() const {
    return comm_stalled_.load(std::memory_order_relaxed);
  }

  // Labels a trace lane (exported as a Chrome thread_name metadata event
  // under the job's pid). Typically "rank R" from the hybrid driver.
  void set_lane_name(int lane, std::string name) {
    tally_.spans.name_lane(lane, std::move(name));
  }

  // Point-in-time views (any thread).
  [[nodiscard]] CounterSnapshot counters() const {
    CounterSnapshot snap;
    tally_.sum_counters(snap);
    return snap;
  }
  [[nodiscard]] HistSnapshot hist(Hist h) const {
    HistSnapshot snap;
    tally_.sum_hist(h, snap);
    return snap;
  }

  // This job's spans (plus lane-name metadata) as a Chrome trace_event
  // fragment with pid=`pid`, mergeable by obs::merge_trace_fragments.
  // Lifecycle spans the serving layer wants on a dedicated lane are passed
  // in as `extra`.
  [[nodiscard]] std::string export_trace_fragment(
      int pid, const std::string& process_name,
      const std::vector<SpanEvent>& extra) const;

 private:
  Tally tally_{/*shared=*/true, kJobSpanCapacity};
  std::atomic<int> comm_stalled_{0};
};

// ---------------------------------------------------------------------------
// Thread binding
// ---------------------------------------------------------------------------

// Binds the calling thread's telemetry to `job` (nullptr unbinds). While
// bound *and* observability is enabled, every counter/histogram/span this
// thread records is charged to the job instead of the thread. The binding is thread-local;
// Workforce crews inherit their creator's binding at construction.
void bind_job(std::shared_ptr<JobObs> job);

// The calling thread's current binding (for handing down to spawned
// threads); null when unbound. current_job_lane() is the matching trace
// lane (-1 when none).
[[nodiscard]] std::shared_ptr<JobObs> current_job();
[[nodiscard]] int current_job_lane();

// RAII binding with save/restore, plus an optional lane id for span
// attribution (lanes separate a job's ranks in the exported trace; threads
// without an explicit lane inherit lane -1 and are exported under their
// process-wide obs tid).
class JobScope {
 public:
  explicit JobScope(std::shared_ptr<JobObs> job, int lane = -1);
  ~JobScope();
  JobScope(const JobScope&) = delete;
  JobScope& operator=(const JobScope&) = delete;

 private:
  std::shared_ptr<JobObs> saved_;
  int saved_lane_;
};

namespace detail {
// Hot-path view of the binding, read by the obs.cpp recording sites. Raw
// pointer: the thread-local shared_ptr set by bind_job keeps it alive.
extern thread_local JobObs* t_job_sink;
extern thread_local int t_job_lane;
}  // namespace detail

// ---------------------------------------------------------------------------
// Prometheus text exposition
// ---------------------------------------------------------------------------

// Escapes a label value per the exposition format: backslash, double quote,
// and newline get backslash-escaped.
[[nodiscard]] std::string prom_escape_label(const std::string& value);

// Builder for one scrape. Each family is announced once with HELP/TYPE; the
// *_total convention for counters is the caller's responsibility (pass the
// suffixed name).
class PromWriter {
 public:
  void gauge(const std::string& name, const std::string& help, double value);
  void counter(const std::string& name, const std::string& help,
               std::uint64_t value);
  // One family, many label sets: {label_name, [(label_value, value)...]}.
  void counter_labeled(
      const std::string& name, const std::string& help,
      const std::string& label_name,
      const std::vector<std::pair<std::string, std::uint64_t>>& series);
  void gauge_labeled(
      const std::string& name, const std::string& help,
      const std::string& label_name,
      const std::vector<std::pair<std::string, double>>& series);
  // Fully general variant for multi-label families (e.g. the comm-plane's
  // {rank,peer,op,dir} edges): each entry's first element is the complete
  // pre-rendered label set — the text between the braces, already escaped.
  void counter_multilabeled(
      const std::string& name, const std::string& help,
      const std::vector<std::pair<std::string, std::uint64_t>>& series);
  void gauge_multilabeled(
      const std::string& name, const std::string& help,
      const std::vector<std::pair<std::string, double>>& series);
  // A log2-ns histogram as a Prometheus histogram in seconds: cumulative
  // `le` buckets at each power-of-two boundary that holds samples, then
  // `+Inf`, `_sum`, `_count`.
  void histogram_ns(const std::string& name, const std::string& help,
                    const HistSnapshot& snap);

  [[nodiscard]] std::string take() { return std::move(out_); }

 private:
  void preamble(const std::string& name, const std::string& help,
                const char* type);
  std::string out_;
};

}  // namespace raxh::obs
