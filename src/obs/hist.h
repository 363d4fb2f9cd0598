// Lock-free log2-bucketed latency histograms for the hybrid stack's three
// synchronization hot spots: crew job durations, the master's barrier wait,
// and minimpi collective latencies.
//
// Samples are stored in obs's Tally (metrics.h): a sample goes to the bound
// job's tally if the recording thread is bound to a job, and to the
// thread's own tally otherwise. hist_snapshot() sums every tally. A recorded
// duration costs one bit_width plus a handful of relaxed stores (relaxed
// fetch_adds into a job's shared tally); with observability disabled
// hist_record() is the usual single-branch no-op.
//
// Buckets are powers of two of nanoseconds: bucket 0 holds exactly 0 ns,
// bucket b >= 1 holds [2^(b-1), 2^b - 1] ns, and bucket 64 tops out at
// UINT64_MAX. Quantiles interpolate linearly inside the selected bucket,
// so p50/p95/p99 are exact to within one octave — plenty for latency
// triage, and the price of never allocating or locking on the hot path.
#pragma once

#include <bit>
#include <cstdint>
#include <string>

namespace raxh::obs {

enum class Hist : int {
  kCrewJobNs = 0,    // one crew thread executing one dispatched job
  kBarrierWaitNs,    // master blocked waiting for crew completion
  kCollectiveNs,     // one minimpi collective call (barrier/bcast/reduce/...)
  // Serving-stack latencies (raxhd; recorded by the ServiceCore pipeline):
  kAdmissionNs,      // SUBMIT accepted -> alignment admitted (parse or hit)
  kQueueWaitNs,      // admitted -> executor slot granted
  kExecNs,           // executor slot granted -> terminal state
  kHistCount
};
inline constexpr int kNumHists = static_cast<int>(Hist::kHistCount);

// Stable export names, indexed by Hist.
[[nodiscard]] const char* hist_name(Hist h);

inline constexpr int kHistBuckets = 65;

// Bucket index for a duration: 0 for 0 ns, otherwise bit_width(ns)
// (so exact powers of two open a new bucket: 2^k lands in bucket k+1).
[[nodiscard]] constexpr int hist_bucket(std::uint64_t ns) {
  return static_cast<int>(std::bit_width(ns));
}

// Inclusive value range covered by a bucket.
[[nodiscard]] constexpr std::uint64_t hist_bucket_lower(int bucket) {
  return bucket <= 0 ? 0 : std::uint64_t{1} << (bucket - 1);
}
[[nodiscard]] constexpr std::uint64_t hist_bucket_upper(int bucket) {
  if (bucket <= 0) return 0;
  if (bucket >= 64) return ~std::uint64_t{0};
  return (std::uint64_t{1} << bucket) - 1;
}

namespace detail {
void hist_add(Hist h, std::uint64_t ns);
}  // namespace detail

// Record one duration sample (see the storage note above). No-op when
// observability is disabled (callers may also pre-check obs::enabled()).
void hist_record(Hist h, std::uint64_t ns);

// One histogram at a point in time: hist_snapshot() sums every tally (each
// thread's, each live job's, and the retired jobs' total); JobObs::hist()
// reads one job's.
struct HistSnapshot {
  std::uint64_t buckets[kHistBuckets] = {};
  std::uint64_t count = 0;   // total samples
  std::uint64_t sum_ns = 0;  // sum of all recorded durations
  std::uint64_t max_ns = 0;  // largest recorded duration

  // Value at quantile q in [0, 1]: linear interpolation inside the bucket
  // containing the q-th sample. 0 when empty.
  [[nodiscard]] std::uint64_t quantile_ns(double q) const;
  [[nodiscard]] double mean_ns() const {
    return count == 0 ? 0.0
                      : static_cast<double>(sum_ns) / static_cast<double>(count);
  }
};
[[nodiscard]] HistSnapshot hist_snapshot(Hist h);

// The `"latency":{...}` JSON section embedded in export_metrics_fragment():
// per histogram count/mean/max plus p50/p95/p99 in nanoseconds.
[[nodiscard]] std::string hist_metrics_section();

}  // namespace raxh::obs
