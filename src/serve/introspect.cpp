#include "serve/introspect.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <map>
#include <stdexcept>
#include <utility>
#include <vector>

#include "obs/comm_obs.h"
#include "obs/hist.h"
#include "obs/metrics.h"
#include "obs/obs.h"
#include "serve/service.h"
#include "util/log.h"

namespace raxh::serve {

const char* op_name(Op op) {
  switch (op) {
    case Op::kSubmit:
      return "submit";
    case Op::kStatus:
      return "status";
    case Op::kStream:
      return "stream";
    case Op::kResult:
      return "result";
    case Op::kCancel:
      return "cancel";
    case Op::kList:
      return "list";
    case Op::kShutdown:
      return "shutdown";
    case Op::kMetrics:
      return "metrics";
    default:
      return "unknown";
  }
}

std::string render_metrics(ServiceCore& service, const FrameCounters* frames) {
  obs::PromWriter w;
  const ServiceStats stats = service.stats();
  const CacheStats cache = service.cache_stats();

  w.gauge("raxhd_up", "1 while the daemon is serving.", 1.0);

  // Queue and slot state.
  w.counter("raxhd_jobs_submitted_total", "Jobs ever accepted by SUBMIT.",
            stats.submitted_total);
  w.gauge("raxhd_jobs_queued", "Jobs submitted, not yet admitted.",
          stats.queued);
  w.gauge("raxhd_jobs_ready", "Jobs admitted, awaiting an executor slot.",
          stats.ready);
  w.gauge("raxhd_jobs_running", "Jobs currently executing.", stats.running);
  w.gauge("raxhd_queue_depth", "Jobs waiting (queued + ready).",
          stats.queued + stats.ready);
  w.counter_labeled(
      "raxhd_jobs_finished_total", "Jobs in a terminal state, by outcome.",
      "state",
      {{"done", static_cast<std::uint64_t>(stats.done)},
       {"failed", static_cast<std::uint64_t>(stats.failed)},
       {"cancelled", static_cast<std::uint64_t>(stats.cancelled)}});
  w.gauge("raxhd_slots", "Configured executor slots (--jobs).", stats.slots);
  w.gauge("raxhd_slot_utilization", "Running jobs / executor slots.",
          stats.slots > 0 ? static_cast<double>(stats.running) /
                                static_cast<double>(stats.slots)
                          : 0.0);

  // Alignment cache.
  w.counter("raxhd_cache_hits_total", "Admissions served from the cache.",
            cache.hits);
  w.counter("raxhd_cache_misses_total", "Admissions that had to parse.",
            cache.misses);
  w.counter("raxhd_cache_evictions_total", "Entries evicted to make room.",
            cache.evictions);
  w.gauge("raxhd_cache_bytes", "Resident compressed-alignment bytes.",
          static_cast<double>(cache.bytes));
  w.gauge("raxhd_cache_capacity_bytes", "Configured cache budget.",
          static_cast<double>(cache.capacity));
  w.gauge("raxhd_cache_entries", "Resident cache entries.",
          static_cast<double>(cache.entries));

  // Protocol traffic, one series per request opcode (stable set: every op
  // is emitted on every scrape so counters never disappear between scrapes).
  if (frames != nullptr) {
    static constexpr Op kRequestOps[] = {
        Op::kSubmit, Op::kStatus, Op::kStream,    Op::kResult,
        Op::kCancel, Op::kList,   Op::kShutdown,  Op::kMetrics};
    std::vector<std::pair<std::string, std::uint64_t>> series;
    series.reserve(std::size(kRequestOps));
    for (const Op op : kRequestOps)
      series.emplace_back(op_name(op),
                          frames->frames[static_cast<unsigned>(op)].load(
                              std::memory_order_relaxed));
    w.counter_labeled("raxhd_frames_total",
                      "Request frames decoded, by opcode.", "op", series);
  }

  // Process-global obs counters: the kernel/runtime event families the
  // one-shot CLI exports to METRICS_*.json, now scrapeable live.
  {
    const obs::CounterSnapshot snap = obs::counters_snapshot();
    std::vector<std::pair<std::string, std::uint64_t>> series;
    series.reserve(obs::kNumCounters);
    for (int i = 0; i < obs::kNumCounters; ++i)
      series.emplace_back(obs::counter_name(static_cast<obs::Counter>(i)),
                          snap.values[i]);
    w.counter_labeled("raxhd_events_total",
                      "Process-global observability events, by counter.",
                      "counter", series);
    w.counter("raxhd_trace_spans_dropped_total",
              "Trace spans lost to ring overflow (thread and job rings).",
              snap[obs::Counter::kSpansDropped]);
  }

  // Per-tenant attribution: sums over the JobObs blocks of each tenant's
  // jobs. Tenant "" (unset) aggregates under the empty label value.
  {
    std::map<std::string, std::uint64_t> tenant_jobs;
    std::map<std::string, std::uint64_t> tenant_events;
    for (const JobStatus& s : service.list()) {
      tenant_jobs[s.tenant] += 1;
      if (const auto job = service.job_obs(s.id)) {
        const obs::CounterSnapshot snap = job->counters();
        for (const std::uint64_t v : snap.values) tenant_events[s.tenant] += v;
      }
    }
    std::vector<std::pair<std::string, std::uint64_t>> jobs_series(
        tenant_jobs.begin(), tenant_jobs.end());
    std::vector<std::pair<std::string, std::uint64_t>> events_series(
        tenant_events.begin(), tenant_events.end());
    w.counter_labeled("raxhd_tenant_jobs_total", "Jobs submitted, by tenant.",
                      "tenant", jobs_series);
    w.counter_labeled("raxhd_tenant_events_total",
                      "Attributed observability events, by tenant.", "tenant",
                      events_series);
  }

  // Comm plane: per-edge traffic matrices, shm-ring backpressure, and
  // nonblocking-request overlap. Families are announced on every scrape
  // (even with no series yet) so scrapers and the daemon-smoke validation
  // see a stable family set.
  {
    const obs::comm::Snapshot comm = obs::comm::snapshot();
    const auto edge_labels = [](int rank, int peer, int op, const char* dir) {
      return "rank=\"" + std::to_string(rank) + "\",peer=\"" +
             std::to_string(peer) + "\",op=\"" + obs::comm::op_name(op) +
             "\",dir=\"" + dir + "\"";
    };
    std::vector<std::pair<std::string, std::uint64_t>> msgs;
    std::vector<std::pair<std::string, std::uint64_t>> bytes;
    std::vector<std::pair<std::string, double>> times;
    for (const obs::comm::EdgeSample& e : comm.edges) {
      if (e.t.msgs_sent > 0 || e.t.bytes_sent > 0) {
        const std::string l = edge_labels(e.rank, e.peer, e.op, "send");
        msgs.emplace_back(l, e.t.msgs_sent);
        bytes.emplace_back(l, e.t.bytes_sent);
        times.emplace_back(l, static_cast<double>(e.t.send_ns) / 1e9);
      }
      if (e.t.msgs_recv > 0 || e.t.bytes_recv > 0) {
        const std::string l = edge_labels(e.rank, e.peer, e.op, "recv");
        msgs.emplace_back(l, e.t.msgs_recv);
        bytes.emplace_back(l, e.t.bytes_recv);
        times.emplace_back(l, static_cast<double>(e.t.recv_ns) / 1e9);
      }
    }
    w.counter_multilabeled("raxh_comm_edge_messages_total",
                           "Messages per (rank, peer, op, dir) edge.", msgs);
    w.counter_multilabeled("raxh_comm_edge_bytes_total",
                           "Bytes per (rank, peer, op, dir) edge.", bytes);
    w.gauge_multilabeled(
        "raxh_comm_edge_time_seconds_total",
        "Seconds inside send/recv per edge (recv includes peer wait).", times);

    std::vector<std::pair<std::string, std::uint64_t>> stalls;
    std::vector<std::pair<std::string, double>> stalled_s;
    std::vector<std::pair<std::string, double>> hwm;
    for (const obs::comm::RingSample& r : comm.rings) {
      const std::string l = "rank=\"" + std::to_string(r.rank) + "\",peer=\"" +
                            std::to_string(r.peer) + "\"";
      stalls.emplace_back(l, r.t.stalls);
      stalled_s.emplace_back(l, static_cast<double>(r.t.stalled_ns) / 1e9);
      hwm.emplace_back(l, static_cast<double>(r.t.hwm_bytes));
    }
    w.counter_multilabeled("raxh_comm_ring_stalls_total",
                           "Full-ring stall episodes per shm ring.", stalls);
    w.gauge_multilabeled("raxh_comm_ring_stalled_seconds_total",
                         "Seconds senders spent stalled per shm ring.",
                         stalled_s);
    w.gauge_multilabeled("raxh_comm_ring_hwm_bytes",
                         "Occupancy high-water mark per shm ring.", hwm);
    w.gauge("raxh_comm_stalled",
            "Senders currently stalled on a full shm ring.",
            static_cast<double>(comm.stalled_now));

    std::vector<std::pair<std::string, std::uint64_t>> reqs;
    std::vector<std::pair<std::string, double>> ratios;
    for (const obs::comm::OverlapSample& o : comm.overlap) {
      const std::string rank_l = "rank=\"" + std::to_string(o.rank) + "\"";
      reqs.emplace_back(rank_l + ",completion=\"test\"",
                        o.t.test_completions);
      reqs.emplace_back(rank_l + ",completion=\"wait\"",
                        o.t.wait_completions);
      ratios.emplace_back(rank_l, o.t.overlap_ratio());
    }
    w.counter_multilabeled("raxh_comm_overlap_requests_total",
                           "Completed nonblocking requests, by completion.",
                           reqs);
    w.gauge_multilabeled("raxh_comm_overlap_ratio",
                         "Fraction of in-flight time not blocked in wait.",
                         ratios);
  }

  // Per-job comm attribution: bytes moved on behalf of each job (the job
  // tally's counters) and whether any of its senders is stalled right now —
  // raxh_top's COMM column reads these.
  {
    std::vector<std::pair<std::string, std::uint64_t>> job_bytes;
    std::vector<std::pair<std::string, double>> job_stalled;
    for (const JobStatus& s : service.list()) {
      if (const auto job = service.job_obs(s.id)) {
        const obs::CounterSnapshot snap = job->counters();
        const std::uint64_t moved =
            snap.values[static_cast<int>(obs::Counter::kCommBytesSent)] +
            snap.values[static_cast<int>(obs::Counter::kCommBytesRecv)];
        const std::string l = "job=\"" + obs::prom_escape_label(s.id) + "\"";
        job_bytes.emplace_back(l, moved);
        job_stalled.emplace_back(
            l, job->comm_stalled() > 0 ? 1.0 : 0.0);
      }
    }
    w.counter_multilabeled("raxhd_job_comm_bytes_total",
                           "Bytes sent + received on behalf of each job.",
                           job_bytes);
    w.gauge_multilabeled("raxhd_job_comm_stalled",
                         "1 while any of the job's senders is ring-stalled.",
                         job_stalled);
  }

  // Serving-stack latencies (process-global: the sum over threads, live
  // jobs and retired jobs). Seconds, log2-bucketed.
  w.histogram_ns("raxhd_admission_seconds",
                 "SUBMIT accepted to alignment admitted.",
                 obs::hist_snapshot(obs::Hist::kAdmissionNs));
  w.histogram_ns("raxhd_queue_wait_seconds",
                 "Admitted to executor slot granted.",
                 obs::hist_snapshot(obs::Hist::kQueueWaitNs));
  w.histogram_ns("raxhd_exec_seconds",
                 "Executor slot granted to terminal state.",
                 obs::hist_snapshot(obs::Hist::kExecNs));
  return w.take();
}

// ---------------------------------------------------------------------------
// MetricsHttpListener
// ---------------------------------------------------------------------------

MetricsHttpListener::MetricsHttpListener(ServiceCore* service,
                                         const FrameCounters* frames,
                                         int port)
    : service_(service), frames_(frames) {
  listen_fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  if (listen_fd_ < 0)
    throw std::runtime_error(std::string("metrics socket: ") +
                             std::strerror(errno));
  const int one = 1;
  ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);  // never routable
  addr.sin_port = htons(static_cast<std::uint16_t>(port));
  if (::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) <
          0 ||
      ::listen(listen_fd_, 16) < 0) {
    const std::string err = std::strerror(errno);
    ::close(listen_fd_);
    listen_fd_ = -1;
    throw std::runtime_error("metrics bind(127.0.0.1:" + std::to_string(port) +
                             "): " + err);
  }
  sockaddr_in bound{};
  socklen_t len = sizeof(bound);
  ::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&bound), &len);
  port_ = ntohs(bound.sin_port);
  thread_ = std::thread([this] { loop(); });
}

MetricsHttpListener::~MetricsHttpListener() { stop(); }

void MetricsHttpListener::stop() {
  if (stopping_.exchange(true)) return;
  // shutdown() wakes loop()'s accept(); the fd is closed only once the
  // thread is joined, so its number never changes (or is reused) under it.
  if (listen_fd_ >= 0) ::shutdown(listen_fd_, SHUT_RDWR);
  if (thread_.joinable()) thread_.join();
  if (listen_fd_ >= 0) ::close(listen_fd_);
  listen_fd_ = -1;
}

void MetricsHttpListener::loop() {
  for (;;) {
    const int fd = ::accept(listen_fd_, nullptr, nullptr);
    if (fd < 0) {
      if (errno == EINTR && !stopping_.load()) continue;
      return;  // listener closed: shutdown
    }
    serve_one(fd);
    ::close(fd);
  }
}

void MetricsHttpListener::serve_one(int fd) {
  // Read the request head (just the first line matters). A scraper sends a
  // small GET; 4 KiB is plenty and bounds a misbehaving peer.
  char buf[4096];
  std::size_t got = 0;
  while (got < sizeof(buf) - 1) {
    const ssize_t r = ::read(fd, buf + got, sizeof(buf) - 1 - got);
    if (r < 0) {
      if (errno == EINTR) continue;
      return;
    }
    if (r == 0) break;
    got += static_cast<std::size_t>(r);
    buf[got] = '\0';
    if (std::strstr(buf, "\r\n\r\n") != nullptr ||
        std::strstr(buf, "\n\n") != nullptr)
      break;  // end of headers
  }
  buf[got] = '\0';

  const auto respond = [fd](const char* status, const std::string& body,
                            const char* content_type) {
    std::string head = std::string("HTTP/1.0 ") + status +
                       "\r\nContent-Type: " + content_type +
                       "\r\nContent-Length: " + std::to_string(body.size()) +
                       "\r\nConnection: close\r\n\r\n";
    head += body;
    std::size_t put = 0;
    while (put < head.size()) {
      const ssize_t w = ::write(fd, head.data() + put, head.size() - put);
      if (w < 0) {
        if (errno == EINTR) continue;
        return;
      }
      put += static_cast<std::size_t>(w);
    }
  };

  // "GET <path> ..." — anything else is a 404/405 with a pointer.
  if (std::strncmp(buf, "GET ", 4) != 0) {
    respond("405 Method Not Allowed", "only GET is supported\n", "text/plain");
    return;
  }
  const char* path = buf + 4;
  const char* path_end = std::strchr(path, ' ');
  const std::string target(path, path_end != nullptr
                                     ? static_cast<std::size_t>(path_end - path)
                                     : std::strlen(path));
  if (target != "/metrics" && target != "/metrics/") {
    respond("404 Not Found", "see /metrics\n", "text/plain");
    return;
  }
  respond("200 OK", render_metrics(*service_, frames_),
          "text/plain; version=0.0.4; charset=utf-8");
}

}  // namespace raxh::serve
