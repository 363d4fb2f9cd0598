#include "obs/hist.h"

#include <algorithm>
#include <cmath>
#include <cstdio>

#include "obs/obs.h"

namespace raxh::obs {

void hist_record(Hist h, std::uint64_t ns) {
  if (!enabled()) return;
  detail::hist_add(h, ns);
}

const char* hist_name(Hist h) {
  switch (h) {
    case Hist::kCrewJobNs:
      return "crew_job";
    case Hist::kBarrierWaitNs:
      return "barrier_wait";
    case Hist::kCollectiveNs:
      return "collective";
    case Hist::kAdmissionNs:
      return "admission";
    case Hist::kQueueWaitNs:
      return "queue_wait";
    case Hist::kExecNs:
      return "exec";
    case Hist::kHistCount:
      break;
  }
  return "unknown";
}

std::uint64_t HistSnapshot::quantile_ns(double q) const {
  if (count == 0) return 0;
  if (q < 0.0) q = 0.0;
  if (q > 1.0) q = 1.0;
  // Rank of the q-th sample (1-based, ceil so q=1 hits the last sample).
  const auto target = static_cast<std::uint64_t>(
      std::ceil(q * static_cast<double>(count)));
  const std::uint64_t rank = target == 0 ? 1 : target;
  std::uint64_t seen = 0;
  for (int b = 0; b < kHistBuckets; ++b) {
    if (buckets[b] == 0) continue;
    if (seen + buckets[b] >= rank) {
      const std::uint64_t lo = hist_bucket_lower(b);
      const std::uint64_t hi = hist_bucket_upper(b);
      // Position of the target sample inside this bucket, interpolated
      // linearly across the bucket's value range.
      const double frac = static_cast<double>(rank - seen) /
                          static_cast<double>(buckets[b]);
      const std::uint64_t est =
          lo + static_cast<std::uint64_t>(static_cast<double>(hi - lo) * frac);
      // Interpolation can overshoot in the top bucket (whose upper bound is
      // a power of two, not an observation); never report past the true max.
      return std::min(est, max_ns);
    }
    seen += buckets[b];
  }
  return max_ns;
}

std::string hist_metrics_section() {
  std::string out = "\"latency\":{";
  char buf[256];
  for (int h = 0; h < kNumHists; ++h) {
    const HistSnapshot snap = hist_snapshot(static_cast<Hist>(h));
    std::snprintf(
        buf, sizeof(buf),
        "%s\"%s\":{\"count\":%llu,\"mean_ns\":%.1f,\"max_ns\":%llu,"
        "\"p50_ns\":%llu,\"p95_ns\":%llu,\"p99_ns\":%llu}",
        h > 0 ? "," : "", hist_name(static_cast<Hist>(h)),
        static_cast<unsigned long long>(snap.count), snap.mean_ns(),
        static_cast<unsigned long long>(snap.max_ns),
        static_cast<unsigned long long>(snap.quantile_ns(0.50)),
        static_cast<unsigned long long>(snap.quantile_ns(0.95)),
        static_cast<unsigned long long>(snap.quantile_ns(0.99)));
    out += buf;
  }
  out += "}";
  return out;
}

}  // namespace raxh::obs
