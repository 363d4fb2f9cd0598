// The two Comm backends: in-process threads (testing) and forked processes
// over a socketpair mesh (deployment). Each backend speaks one of two
// per-pair transports (CommOptions::transport):
//  * its native one — mutex/CV channels for threads, socketpairs for
//    processes — or
//  * a shared-memory SPSC ring per ordered pair (minimpi/shm_ring.h): heap
//    memory for threads, one MAP_SHARED mapping created before fork for
//    processes. The process backend keeps the socketpair mesh alongside the
//    rings as a liveness channel: nothing is ever written on it, so POLLIN
//    means EOF means the peer is gone — the one signal a crashed process
//    cannot fake and a ring cannot deliver.
//
// Both backends and both transports share one failure model: a rank that
// stops participating — normal completion, injected death (RankDeath), or a
// real crash — becomes observable to its peers as RankFailed on the next op
// touching it, after any messages it sent before dying have been drained
// (TCP-like semantics). The process backend gets this from EOF/EPIPE on the
// socket mesh (or the liveness fds + ring close flags), the thread backend
// from a per-rank dead flag in the hub (mirrored into ring close flags).
#include <csignal>
#include <poll.h>
#include <sys/mman.h>
#include <sys/socket.h>
#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

#include <atomic>
#include <cerrno>
#include <condition_variable>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <deque>
#include <exception>
#include <memory>
#include <mutex>
#include <thread>

#include "minimpi/comm.h"
#include "minimpi/shm_ring.h"
#include "obs/flight.h"
#include "util/check.h"

namespace raxh::mpi {

namespace {

// Rings are placed in slots of this granularity so adjacent rings never
// share a cache line (head/tail atomics of different pairs must not
// false-share) and every ring lands on a properly aligned address.
std::size_t ring_slot_bytes(std::size_t capacity) {
  return (ShmRing::bytes_for(capacity) + 63) & ~std::size_t{63};
}

// ---------- thread backend ----------

struct Message {
  int tag;
  Bytes payload;
  bool torn = false;  // fault injection: sender crashed mid-write
};

// One FIFO channel per ordered (src, dst) pair.
struct Channel {
  std::mutex mutex;
  std::condition_variable cv;
  std::deque<Message> queue;
};

struct ThreadHub {
  ThreadHub(int n, const CommOptions& opts)
      : nranks(n),
        options(opts),
        channels(static_cast<std::size_t>(n) * n),
        dead(std::make_unique<std::atomic<bool>[]>(static_cast<std::size_t>(n))) {
    for (int r = 0; r < n; ++r) dead[static_cast<std::size_t>(r)] = false;
    for (auto& slot : channels) slot = std::make_unique<Channel>();
    if (options.transport == Transport::kShm) {
      // Same ring code the process backend maps MAP_SHARED; here the "shared
      // memory" is plain heap visible to all rank threads.
      const std::size_t slot = ring_slot_bytes(options.shm_ring_bytes);
      ring_mem = std::make_unique<std::uint8_t[]>(
          slot * static_cast<std::size_t>(n) * n + 64);
      auto base = reinterpret_cast<std::uintptr_t>(ring_mem.get());
      base = (base + 63) & ~std::uintptr_t{63};
      rings.resize(static_cast<std::size_t>(n) * n, nullptr);
      for (int s = 0; s < n; ++s)
        for (int d = 0; d < n; ++d) {
          if (s == d) continue;
          const std::size_t idx = static_cast<std::size_t>(s) * n + d;
          rings[idx] = ShmRing::create(
              reinterpret_cast<void*>(base + slot * idx),
              options.shm_ring_bytes);
        }
    }
  }
  int nranks;
  CommOptions options;
  std::vector<std::unique_ptr<Channel>> channels;  // [src * n + dst]
  std::unique_ptr<std::atomic<bool>[]> dead;       // rank exited (any reason)
  std::unique_ptr<std::uint8_t[]> ring_mem;        // kShm only
  std::vector<ShmRing*> rings;                     // [src * n + dst], kShm

  Channel& channel(int src, int dst) {
    auto& slot = channels[static_cast<std::size_t>(src) * nranks + dst];
    return *slot;
  }

  ShmRing* ring(int src, int dst) {
    return rings[static_cast<std::size_t>(src) * nranks + dst];
  }

  [[nodiscard]] bool is_dead(int r) const {
    return dead[static_cast<std::size_t>(r)].load(std::memory_order_acquire);
  }

  // The thread-backend analogue of a process closing its sockets: flag the
  // rank, close its side of every ring it touches, and wake every receiver
  // blocked on one of its channels.
  void mark_dead(int r) {
    dead[static_cast<std::size_t>(r)].store(true, std::memory_order_release);
    for (int peer = 0; peer < nranks; ++peer) {
      if (peer == r) continue;
      if (!rings.empty()) {
        ring(r, peer)->close_writer();
        ring(peer, r)->close_reader();
      }
      Channel& ch = channel(r, peer);
      {
        // Pairs with the receiver's predicate check under the same mutex so
        // the wakeup cannot be missed.
        std::lock_guard<std::mutex> lock(ch.mutex);
      }
      ch.cv.notify_all();
    }
  }
};

class ThreadComm final : public Comm {
 public:
  ThreadComm(ThreadHub* hub, int my_rank) : hub_(hub), rank_(my_rank) {
    set_collectives(hub->options.collectives);
  }

  [[nodiscard]] int rank() const override { return rank_; }
  [[nodiscard]] int size() const override { return hub_->nranks; }

  void do_send(int dest, int tag, const Bytes& payload) override {
    RAXH_EXPECTS(dest >= 0 && dest < size() && dest != rank_);
    if (use_rings()) {
      RingChannel ch(hub_->ring(rank_, dest), dest, this);
      ch.send_frame(static_cast<std::uint64_t>(tag), payload,
                    [&] { return hub_->is_dead(dest); });
      return;
    }
    channel_send(dest, tag, payload, false, payload.size());
  }

  void raw_send_torn(int dest, int tag, const Bytes& payload,
                     std::size_t keep_bytes) override {
    RAXH_EXPECTS(dest >= 0 && dest < size() && dest != rank_);
    if (use_rings()) {
      // Physically torn: the header advertises the full length but only
      // keep_bytes follow. The receiver drains them, then this rank's death
      // closes the ring and the wait surfaces as RankFailed.
      RingChannel ch(hub_->ring(rank_, dest), dest, this);
      ch.send_torn(static_cast<std::uint64_t>(tag), payload, keep_bytes,
                   [&] { return hub_->is_dead(dest); });
      return;
    }
    channel_send(dest, tag, payload, true, keep_bytes);
  }

  Bytes do_recv(int src, int tag) override {
    RAXH_EXPECTS(src >= 0 && src < size() && src != rank_);
    if (use_rings()) {
      RingChannel ch(hub_->ring(src, rank_), src, this);
      return ch.recv_frame(static_cast<std::uint64_t>(tag),
                           [&] { return hub_->is_dead(src); });
    }
    Channel& ch = hub_->channel(src, rank_);
    std::unique_lock<std::mutex> lock(ch.mutex);
    ch.cv.wait(lock,
               [&] { return !ch.queue.empty() || hub_->is_dead(src); });
    // Messages queued before the peer died stay deliverable (the process
    // backend likewise reads buffered data before hitting EOF).
    if (ch.queue.empty())
      throw RankFailed(src, "minimpi: rank " + std::to_string(src) +
                                " died (channel closed)");
    Message m = std::move(ch.queue.front());
    ch.queue.pop_front();
    if (m.torn)
      throw RankFailed(src, "minimpi: rank " + std::to_string(src) +
                                " died mid-send (torn payload)");
    // Deterministic protocols receive in send order; a tag mismatch is a
    // protocol bug, not a runtime condition.
    RAXH_ASSERT(m.tag == tag);
    return std::move(m.payload);
  }

  bool do_probe(int src) override {
    RAXH_EXPECTS(src >= 0 && src < size() && src != rank_);
    if (use_rings()) {
      RingChannel ch(hub_->ring(src, rank_), src, this);
      return ch.probe() || hub_->is_dead(src);
    }
    Channel& ch = hub_->channel(src, rank_);
    std::lock_guard<std::mutex> lock(ch.mutex);
    return !ch.queue.empty() || hub_->is_dead(src);
  }

 private:
  [[nodiscard]] bool use_rings() const { return !hub_->rings.empty(); }

  void channel_send(int dest, int tag, const Bytes& payload, bool torn,
                    std::size_t keep_bytes) {
    if (hub_->is_dead(dest))
      throw RankFailed(dest, "minimpi: send to dead rank " +
                                 std::to_string(dest));
    Channel& ch = hub_->channel(rank_, dest);
    {
      std::lock_guard<std::mutex> lock(ch.mutex);
      Message m{tag, payload, torn};
      if (torn) m.payload.resize(std::min(keep_bytes, m.payload.size()));
      ch.queue.push_back(std::move(m));
    }
    ch.cv.notify_one();
  }

  ThreadHub* hub_;
  int rank_;
};

// ---------- process backend ----------

// write/read results that mean "the peer is gone" rather than "I/O is
// broken": EPIPE/ECONNRESET on write, EOF or ECONNRESET on read.
void write_all(int fd, int peer, const void* data, std::size_t n) {
  const auto* p = static_cast<const std::uint8_t*>(data);
  while (n > 0) {
    const ssize_t w = ::write(fd, p, n);
    if (w < 0) {
      if (errno == EINTR) continue;
      if (errno == EPIPE || errno == ECONNRESET)
        throw RankFailed(peer, "minimpi: rank " + std::to_string(peer) +
                                   " died (EPIPE on send)");
      std::perror("minimpi write");
      std::abort();
    }
    p += w;
    n -= static_cast<std::size_t>(w);
  }
}

void read_all(int fd, int peer, void* data, std::size_t n) {
  auto* p = static_cast<std::uint8_t*>(data);
  while (n > 0) {
    const ssize_t r = ::read(fd, p, n);
    if (r == 0)
      throw RankFailed(peer, "minimpi: rank " + std::to_string(peer) +
                                 " died (EOF on mesh socket)");
    if (r < 0) {
      if (errno == EINTR) continue;
      if (errno == ECONNRESET)
        throw RankFailed(peer, "minimpi: rank " + std::to_string(peer) +
                                   " died (connection reset)");
      std::perror("minimpi read");
      std::abort();
    }
    p += r;
    n -= static_cast<std::size_t>(r);
  }
}

class ProcessComm final : public Comm {
 public:
  // fds[r] = this rank's socket to rank r (-1 for self). With rings, the
  // sockets carry no data and serve purely as liveness channels:
  // send_rings[r]/recv_rings[r] are this rank's per-pair rings in the
  // pre-fork MAP_SHARED mapping (nullptr for self).
  ProcessComm(int my_rank, std::vector<int> fds,
              std::vector<ShmRing*> send_rings = {},
              std::vector<ShmRing*> recv_rings = {})
      : rank_(my_rank),
        fds_(std::move(fds)),
        send_rings_(std::move(send_rings)),
        recv_rings_(std::move(recv_rings)) {}

  ~ProcessComm() override {
    // Clean completion: close our side of every ring first (the shm
    // analogue of closing sockets), then drop the liveness fds. A crash
    // never runs this — peers learn from the socket EOF instead.
    for (ShmRing* r : send_rings_)
      if (r != nullptr) r->close_writer();
    for (ShmRing* r : recv_rings_)
      if (r != nullptr) r->close_reader();
    for (int fd : fds_)
      if (fd >= 0) ::close(fd);
  }

  [[nodiscard]] int rank() const override { return rank_; }
  [[nodiscard]] int size() const override {
    return static_cast<int>(fds_.size());
  }

  void do_send(int dest, int tag, const Bytes& payload) override {
    RAXH_EXPECTS(dest >= 0 && dest < size() && dest != rank_);
    if (use_rings()) {
      RingChannel ch(send_rings_[static_cast<std::size_t>(dest)], dest, this);
      ch.send_frame(static_cast<std::uint64_t>(tag), payload,
                    [&] { return peer_gone(dest); });
      return;
    }
    const int fd = fds_[static_cast<std::size_t>(dest)];
    std::uint64_t header[2] = {static_cast<std::uint64_t>(tag),
                               payload.size()};
    write_all(fd, dest, header, sizeof(header));
    if (!payload.empty())
      write_all(fd, dest, payload.data(), payload.size());
  }

  // Advertise the full length but stop writing partway: once this rank
  // exits, the receiver's read hits EOF (socket) or a closed ring
  // mid-payload — exactly what a crash between two writes looks like.
  void raw_send_torn(int dest, int tag, const Bytes& payload,
                     std::size_t keep_bytes) override {
    RAXH_EXPECTS(dest >= 0 && dest < size() && dest != rank_);
    if (use_rings()) {
      RingChannel ch(send_rings_[static_cast<std::size_t>(dest)], dest, this);
      ch.send_torn(static_cast<std::uint64_t>(tag), payload, keep_bytes,
                   [&] { return peer_gone(dest); });
      return;
    }
    const int fd = fds_[static_cast<std::size_t>(dest)];
    std::uint64_t header[2] = {static_cast<std::uint64_t>(tag),
                               payload.size()};
    write_all(fd, dest, header, sizeof(header));
    const std::size_t keep = std::min(keep_bytes, payload.size());
    if (keep > 0) write_all(fd, dest, payload.data(), keep);
  }

  Bytes do_recv(int src, int tag) override {
    RAXH_EXPECTS(src >= 0 && src < size() && src != rank_);
    if (use_rings()) {
      RingChannel ch(recv_rings_[static_cast<std::size_t>(src)], src, this);
      return ch.recv_frame(static_cast<std::uint64_t>(tag),
                           [&] { return peer_gone(src); });
    }
    const int fd = fds_[static_cast<std::size_t>(src)];
    std::uint64_t header[2];
    read_all(fd, src, header, sizeof(header));
    RAXH_ASSERT(static_cast<int>(header[0]) == tag);
    Bytes payload(static_cast<std::size_t>(header[1]));
    if (!payload.empty())
      read_all(fd, src, payload.data(), payload.size());
    return payload;
  }

  bool do_probe(int src) override {
    RAXH_EXPECTS(src >= 0 && src < size() && src != rank_);
    if (use_rings()) {
      RingChannel ch(recv_rings_[static_cast<std::size_t>(src)], src, this);
      return ch.probe() || recv_rings_[static_cast<std::size_t>(src)]
                                   ->writer_closed() ||
             peer_gone(src);
    }
    // Readable means a message has started arriving or the peer closed the
    // socket — either way recv() completes without an unbounded wait.
    ::pollfd pfd{fds_[static_cast<std::size_t>(src)], POLLIN, 0};
    const int rc = ::poll(&pfd, 1, 0);
    if (rc < 0) return false;
    return rc > 0 && (pfd.revents & (POLLIN | POLLHUP | POLLERR)) != 0;
  }

 private:
  [[nodiscard]] bool use_rings() const { return !send_rings_.empty(); }

  // Ring-mode liveness: the companion socket never carries data, so any
  // readability (EOF) or error/hangup means the peer process is gone.
  [[nodiscard]] bool peer_gone(int peer) const {
    ::pollfd pfd{fds_[static_cast<std::size_t>(peer)], POLLIN, 0};
    const int rc = ::poll(&pfd, 1, 0);
    if (rc <= 0) return false;
    return (pfd.revents & (POLLIN | POLLHUP | POLLERR)) != 0;
  }

  int rank_;
  std::vector<int> fds_;
  std::vector<ShmRing*> send_rings_;  // [dest], kShm only
  std::vector<ShmRing*> recv_rings_;  // [src], kShm only
};

}  // namespace

void run_thread_ranks(int nranks, const std::function<void(Comm&)>& fn,
                      const CommOptions& options) {
  RAXH_EXPECTS(nranks >= 1);
  ThreadHub hub(nranks, options);

  // An unrecovered peer failure on rank 0 is the caller's to handle (the
  // fault-tolerant driver catches RankFailed internally; anything reaching
  // the harness means the run cannot produce a result).
  std::exception_ptr rank0_failure;

  std::vector<std::thread> threads;
  threads.reserve(static_cast<std::size_t>(nranks));
  for (int r = 0; r < nranks; ++r) {
    threads.emplace_back([&hub, &fn, &rank0_failure, r] {
      ThreadComm comm(&hub, r);
      obs::flight::set_thread_rank(r);
      try {
        fn(comm);
      } catch (const RankDeath&) {
        // Injected death: unwound cleanly; peers see RankFailed. Dump the
        // black box before mark_dead so it is complete by the time any peer
        // can observe the failure and sweep it.
        obs::flight::dump_now(r, "injected rank death", /*fatal=*/true);
      } catch (const RankFailed& f) {
        if (r == 0) {
          rank0_failure = std::current_exception();
        } else {
          std::fprintf(stderr,
                       "[minimpi] rank %d: unrecovered peer failure: %s\n", r,
                       f.what());
          std::abort();
        }
      }
      hub.mark_dead(r);
    });
  }
  for (auto& t : threads) t.join();
  if (rank0_failure) std::rethrow_exception(rank0_failure);
}

void run_thread_ranks(int nranks, const std::function<void(Comm&)>& fn) {
  run_thread_ranks(nranks, fn, CommOptions{});
}

void run_process_ranks(int nranks, const std::function<void(Comm&)>& fn,
                       const CommOptions& options) {
  RAXH_EXPECTS(nranks >= 1);
  // A write to a dead peer must surface as EPIPE (mapped to RankFailed),
  // not kill the process with SIGPIPE.
  ::signal(SIGPIPE, SIG_IGN);
  if (nranks == 1) {
    ProcessComm comm(0, {-1});
    comm.set_collectives(options.collectives);
    obs::flight::set_thread_rank(0);
    fn(comm);
    return;
  }

  // mesh[i][j]: fd owned by rank i talking to rank j. With the shm
  // transport these become pure liveness channels (never written), but the
  // full mesh is wired either way.
  std::vector<std::vector<int>> mesh(
      static_cast<std::size_t>(nranks),
      std::vector<int>(static_cast<std::size_t>(nranks), -1));
  for (int i = 0; i < nranks; ++i) {
    for (int j = i + 1; j < nranks; ++j) {
      int sv[2];
      if (::socketpair(AF_UNIX, SOCK_STREAM, 0, sv) != 0) {
        std::perror("minimpi socketpair");
        std::abort();
      }
      mesh[static_cast<std::size_t>(i)][static_cast<std::size_t>(j)] = sv[0];
      mesh[static_cast<std::size_t>(j)][static_cast<std::size_t>(i)] = sv[1];
    }
  }

  // Shm transport: one anonymous MAP_SHARED region created before any fork
  // holds every ordered pair's ring; children inherit the mapping.
  const bool use_rings = options.transport == Transport::kShm;
  void* ring_region = nullptr;
  std::size_t ring_region_bytes = 0;
  std::vector<ShmRing*> rings;
  if (use_rings) {
    const std::size_t slot = ring_slot_bytes(options.shm_ring_bytes);
    ring_region_bytes =
        slot * static_cast<std::size_t>(nranks) * nranks;
    ring_region = ::mmap(nullptr, ring_region_bytes, PROT_READ | PROT_WRITE,
                         MAP_SHARED | MAP_ANONYMOUS, -1, 0);
    if (ring_region == MAP_FAILED) {
      std::perror("minimpi mmap");
      std::abort();
    }
    rings.resize(static_cast<std::size_t>(nranks) * nranks, nullptr);
    for (int s = 0; s < nranks; ++s)
      for (int d = 0; d < nranks; ++d) {
        if (s == d) continue;
        const std::size_t idx = static_cast<std::size_t>(s) * nranks + d;
        rings[idx] = ShmRing::create(
            static_cast<std::uint8_t*>(ring_region) + slot * idx,
            options.shm_ring_bytes);
      }
  }
  auto rings_for = [&](int r) {
    std::pair<std::vector<ShmRing*>, std::vector<ShmRing*>> out;
    if (!use_rings) return out;
    out.first.resize(static_cast<std::size_t>(nranks), nullptr);
    out.second.resize(static_cast<std::size_t>(nranks), nullptr);
    for (int peer = 0; peer < nranks; ++peer) {
      if (peer == r) continue;
      out.first[static_cast<std::size_t>(peer)] =
          rings[static_cast<std::size_t>(r) * nranks + peer];
      out.second[static_cast<std::size_t>(peer)] =
          rings[static_cast<std::size_t>(peer) * nranks + r];
    }
    return out;
  };

  auto close_all_except = [&](int keep_rank) {
    for (int i = 0; i < nranks; ++i)
      for (int j = 0; j < nranks; ++j)
        if (i != keep_rank && mesh[static_cast<std::size_t>(i)]
                                  [static_cast<std::size_t>(j)] >= 0)
          ::close(mesh[static_cast<std::size_t>(i)][static_cast<std::size_t>(j)]);
  };

  std::vector<pid_t> children;
  for (int r = 1; r < nranks; ++r) {
    const pid_t pid = ::fork();
    if (pid < 0) {
      std::perror("minimpi fork");
      std::abort();
    }
    if (pid == 0) {
      close_all_except(r);
      int exit_code = 0;
      {
        auto [send_rings, recv_rings] = rings_for(r);
        ProcessComm comm(r, std::move(mesh[static_cast<std::size_t>(r)]),
                         std::move(send_rings), std::move(recv_rings));
        comm.set_collectives(options.collectives);
        obs::flight::set_thread_rank(r);
        try {
          fn(comm);
        } catch (const RankDeath&) {
          // Injected death: exit abruptly; the closing sockets deliver EOF.
          // The black box is written first, while the mesh is still open, so
          // peers cannot observe the death before the box is complete.
          obs::flight::dump_now(r, "injected rank death", /*fatal=*/true);
          exit_code = kRankDeathExit;
        } catch (const RankFailed& f) {
          std::fprintf(stderr,
                       "[minimpi] rank %d: unrecovered peer failure: %s\n", r,
                       f.what());
          exit_code = 1;
        } catch (const std::exception& e) {
          // Anything else must not unwind into the caller's program, which
          // would run on in this child and exit 0 as if the rank succeeded.
          std::fprintf(stderr, "[minimpi] rank %d: uncaught exception: %s\n",
                       r, e.what());
          exit_code = 1;
        } catch (...) {
          std::fprintf(stderr, "[minimpi] rank %d: uncaught exception\n", r);
          exit_code = 1;
        }
      }
      std::_Exit(exit_code);
    }
    children.push_back(pid);
  }

  close_all_except(0);
  std::exception_ptr rank0_failure;
  {
    auto [send_rings, recv_rings] = rings_for(0);
    ProcessComm comm(0, std::move(mesh[0]), std::move(send_rings),
                     std::move(recv_rings));
    comm.set_collectives(options.collectives);
    obs::flight::set_thread_rank(0);
    try {
      fn(comm);
    } catch (const RankFailed&) {
      rank0_failure = std::current_exception();
    }
  }
  if (rank0_failure) {
    // The job cannot finish; don't leave children blocked on a silent mesh.
    for (const pid_t pid : children) ::kill(pid, SIGKILL);
  }
  for (const pid_t pid : children) {
    int status = 0;
    ::waitpid(pid, &status, 0);
    if (rank0_failure) continue;
    if (WIFEXITED(status) && WEXITSTATUS(status) == kRankDeathExit) {
      // Injected rank death; survivors (or the caller) own recovery.
      continue;
    }
    if (!WIFEXITED(status) || WEXITSTATUS(status) != 0) {
      std::fprintf(stderr, "[minimpi] child rank exited abnormally\n");
      std::abort();
    }
  }
  if (ring_region != nullptr) ::munmap(ring_region, ring_region_bytes);
  if (rank0_failure) std::rethrow_exception(rank0_failure);
}

void run_process_ranks(int nranks, const std::function<void(Comm&)>& fn) {
  run_process_ranks(nranks, fn, CommOptions{});
}

}  // namespace raxh::mpi
