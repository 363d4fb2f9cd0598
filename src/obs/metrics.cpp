#include "obs/metrics.h"

#include <algorithm>
#include <cstdio>
#include <new>

namespace raxh::obs {

// ---------------------------------------------------------------------------
// Chrome trace writer
// ---------------------------------------------------------------------------

void append_json_escaped(std::string& out, std::string_view s) {
  for (const char ch : s) {
    switch (ch) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\t':
        out += "\\t";
        break;
      default:
        if (static_cast<unsigned char>(ch) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", ch);
          out += buf;
        } else {
          out += ch;
        }
    }
  }
}

ChromeTrace::ChromeTrace(int pid, std::string_view process_name) : pid_(pid) {
  name_record("process_name", -1, process_name);
}

void ChromeTrace::name_lane(int lane, std::string_view name) {
  name_record("thread_name", lane, name);
}

void ChromeTrace::name_record(const char* kind, int lane,
                              std::string_view name) {
  if (!out_.empty()) out_ += ",\n";
  char buf[128];
  if (lane < 0)
    std::snprintf(buf, sizeof(buf),
                  "{\"name\":\"%s\",\"ph\":\"M\",\"pid\":%d,"
                  "\"args\":{\"name\":\"",
                  kind, pid_);
  else
    std::snprintf(buf, sizeof(buf),
                  "{\"name\":\"%s\",\"ph\":\"M\",\"pid\":%d,\"tid\":%d,"
                  "\"args\":{\"name\":\"",
                  kind, pid_, lane);
  out_ += buf;
  append_json_escaped(out_, name);
  out_ += "\"}}";
}

void ChromeTrace::span(const SpanEvent& e) {
  if (!out_.empty()) out_ += ",\n";
  out_ += "{\"name\":\"";
  append_json_escaped(out_, e.name);
  char buf[128];
  std::snprintf(buf, sizeof(buf),
                "\",\"ph\":\"X\",\"pid\":%d,\"tid\":%d,\"ts\":%.3f,"
                "\"dur\":%.3f}",
                pid_, e.lane, static_cast<double>(e.start_ns) / 1000.0,
                static_cast<double>(e.dur_ns) / 1000.0);
  out_ += buf;
}

// ---------------------------------------------------------------------------
// SpanRing
// ---------------------------------------------------------------------------

bool SpanRing::push(SpanEvent event) {
  std::lock_guard<std::mutex> lock(mu_);
  if (events_.size() < capacity_) {
    events_.push_back(std::move(event));
    return false;
  }
  events_[next_] = std::move(event);
  next_ = (next_ + 1) % capacity_;
  return true;
}

void SpanRing::name_lane(int lane, std::string name) {
  std::lock_guard<std::mutex> lock(mu_);
  for (auto& [l, n] : lane_names_)
    if (l == lane) {
      n = std::move(name);
      return;
    }
  lane_names_.emplace_back(lane, std::move(name));
}

void SpanRing::clear() {
  std::lock_guard<std::mutex> lock(mu_);
  events_.clear();
  next_ = 0;
  lane_names_.clear();
}

bool SpanRing::append_to(ChromeTrace& trace) const {
  std::lock_guard<std::mutex> lock(mu_);
  for (const auto& [lane, name] : lane_names_) trace.name_lane(lane, name);
  // Chronological order: [next_, end) then [0, next_) once wrapped.
  const std::size_t n = events_.size();
  for (std::size_t i = 0; i < n; ++i) trace.span(events_[(next_ + i) % n]);
  return n > 0;
}

void SpanRing::reset_for_fork() { new (&mu_) std::mutex; }

// ---------------------------------------------------------------------------
// Tally
// ---------------------------------------------------------------------------

void Tally::sum_counters(CounterSnapshot& into) const {
  for (int i = 0; i < kNumCounters; ++i)
    into.values[i] += counters_[i].load(std::memory_order_relaxed);
}

void Tally::sum_hist(Hist h, HistSnapshot& into) const {
  const int hi = static_cast<int>(h);
  for (int b = 0; b < kHistBuckets; ++b)
    into.buckets[b] += buckets_[hi][b].load(std::memory_order_relaxed);
  into.count += count_[hi].load(std::memory_order_relaxed);
  into.sum_ns += sum_ns_[hi].load(std::memory_order_relaxed);
  into.max_ns =
      std::max(into.max_ns, max_ns_[hi].load(std::memory_order_relaxed));
}

void Tally::absorb(const Tally& other) {
  for (int i = 0; i < kNumCounters; ++i)
    bump(counters_[i], other.counters_[i].load(std::memory_order_relaxed));
  for (int h = 0; h < kNumHists; ++h) {
    for (int b = 0; b < kHistBuckets; ++b)
      bump(buckets_[h][b],
           other.buckets_[h][b].load(std::memory_order_relaxed));
    bump(count_[h], other.count_[h].load(std::memory_order_relaxed));
    bump(sum_ns_[h], other.sum_ns_[h].load(std::memory_order_relaxed));
    raise_max(max_ns_[h], other.max_ns_[h].load(std::memory_order_relaxed));
  }
}

void Tally::clear() {
  for (auto& c : counters_) c.store(0, std::memory_order_relaxed);
  for (int h = 0; h < kNumHists; ++h) {
    for (auto& b : buckets_[h]) b.store(0, std::memory_order_relaxed);
    count_[h].store(0, std::memory_order_relaxed);
    sum_ns_[h].store(0, std::memory_order_relaxed);
    max_ns_[h].store(0, std::memory_order_relaxed);
  }
  spans.clear();
}

// ---------------------------------------------------------------------------
// JobObs
// ---------------------------------------------------------------------------

std::string JobObs::export_trace_fragment(
    int pid, const std::string& process_name,
    const std::vector<SpanEvent>& extra) const {
  ChromeTrace trace(pid, process_name);
  for (const SpanEvent& e : extra) trace.span(e);
  tally_.spans.append_to(trace);
  return trace.take();
}

// ---------------------------------------------------------------------------
// Thread binding
// ---------------------------------------------------------------------------

namespace detail {
thread_local JobObs* t_job_sink = nullptr;
thread_local int t_job_lane = -1;
}  // namespace detail

namespace {
// The owning reference behind detail::t_job_sink; a thread's binding dies
// with the thread (or at the next bind), never dangles.
thread_local std::shared_ptr<JobObs> t_job_ref;
}  // namespace

void bind_job(std::shared_ptr<JobObs> job) {
  detail::t_job_sink = job.get();
  t_job_ref = std::move(job);
}

std::shared_ptr<JobObs> current_job() { return t_job_ref; }

int current_job_lane() { return detail::t_job_lane; }

JobScope::JobScope(std::shared_ptr<JobObs> job, int lane)
    : saved_(t_job_ref), saved_lane_(detail::t_job_lane) {
  detail::t_job_sink = job.get();
  detail::t_job_lane = lane;
  t_job_ref = std::move(job);
}

JobScope::~JobScope() {
  detail::t_job_sink = saved_.get();
  detail::t_job_lane = saved_lane_;
  t_job_ref = std::move(saved_);
}

// ---------------------------------------------------------------------------
// Prometheus text exposition
// ---------------------------------------------------------------------------

std::string prom_escape_label(const std::string& value) {
  std::string out;
  out.reserve(value.size());
  for (const char ch : value) {
    switch (ch) {
      case '\\':
        out += "\\\\";
        break;
      case '"':
        out += "\\\"";
        break;
      case '\n':
        out += "\\n";
        break;
      default:
        out += ch;
    }
  }
  return out;
}

void PromWriter::preamble(const std::string& name, const std::string& help,
                          const char* type) {
  out_ += "# HELP " + name + " " + help + "\n";
  out_ += "# TYPE " + name + " ";
  out_ += type;
  out_ += "\n";
}

namespace {

std::string format_double(double value) {
  char buf[64];
  // %.17g round-trips doubles; trim the noise for the common clean cases.
  std::snprintf(buf, sizeof(buf), "%.10g", value);
  return buf;
}

}  // namespace

void PromWriter::gauge(const std::string& name, const std::string& help,
                       double value) {
  preamble(name, help, "gauge");
  out_ += name + " " + format_double(value) + "\n";
}

void PromWriter::counter(const std::string& name, const std::string& help,
                         std::uint64_t value) {
  preamble(name, help, "counter");
  out_ += name + " " + std::to_string(value) + "\n";
}

void PromWriter::counter_labeled(
    const std::string& name, const std::string& help,
    const std::string& label_name,
    const std::vector<std::pair<std::string, std::uint64_t>>& series) {
  preamble(name, help, "counter");
  for (const auto& [label, value] : series)
    out_ += name + "{" + label_name + "=\"" + prom_escape_label(label) +
            "\"} " + std::to_string(value) + "\n";
}

void PromWriter::gauge_labeled(
    const std::string& name, const std::string& help,
    const std::string& label_name,
    const std::vector<std::pair<std::string, double>>& series) {
  preamble(name, help, "gauge");
  for (const auto& [label, value] : series)
    out_ += name + "{" + label_name + "=\"" + prom_escape_label(label) +
            "\"} " + format_double(value) + "\n";
}

void PromWriter::counter_multilabeled(
    const std::string& name, const std::string& help,
    const std::vector<std::pair<std::string, std::uint64_t>>& series) {
  preamble(name, help, "counter");
  for (const auto& [labels, value] : series)
    out_ += name + "{" + labels + "} " + std::to_string(value) + "\n";
}

void PromWriter::gauge_multilabeled(
    const std::string& name, const std::string& help,
    const std::vector<std::pair<std::string, double>>& series) {
  preamble(name, help, "gauge");
  for (const auto& [labels, value] : series)
    out_ += name + "{" + labels + "} " + format_double(value) + "\n";
}

void PromWriter::histogram_ns(const std::string& name, const std::string& help,
                              const HistSnapshot& snap) {
  preamble(name, help, "histogram");
  // Cumulative `le` buckets in seconds at the log2 upper bounds. Every
  // scrape emits the same bucket boundaries (up to the fixed top) so a
  // Prometheus server sees a stable series set; empty high buckets beyond
  // the last occupied one collapse into +Inf to keep scrapes compact.
  int top = 0;
  for (int b = 0; b < kHistBuckets; ++b)
    if (snap.buckets[b] != 0) top = b;
  std::uint64_t cumulative = 0;
  for (int b = 0; b <= top; ++b) {
    cumulative += snap.buckets[b];
    const double le =
        static_cast<double>(hist_bucket_upper(b)) / 1e9;  // ns -> s
    out_ += name + "_bucket{le=\"" + format_double(le) + "\"} " +
            std::to_string(cumulative) + "\n";
  }
  out_ += name + "_bucket{le=\"+Inf\"} " + std::to_string(snap.count) + "\n";
  out_ += name + "_sum " +
          format_double(static_cast<double>(snap.sum_ns) / 1e9) + "\n";
  out_ += name + "_count " + std::to_string(snap.count) + "\n";
}

}  // namespace raxh::obs
