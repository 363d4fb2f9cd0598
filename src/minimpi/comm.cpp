#include "minimpi/comm.h"

#include <algorithm>
#include <cstdio>
#include <cstring>

#include "obs/comm_obs.h"
#include "obs/flight.h"
#include "obs/hist.h"
#include "obs/obs.h"
#include "util/check.h"

namespace raxh::mpi {

namespace {

namespace flight = obs::flight;

// Feeds the collective-latency histogram: one sample per collective call,
// measured from entry to completion (so it includes peer wait time — the
// coarse-grained analogue of the crew barrier wait). Sleeps injected by a
// fault plan on this thread are subtracted: they are chaos-test artifacts,
// not comm latency.
struct ScopedCollectiveLatency {
  bool armed = obs::enabled();
  std::uint64_t start = armed ? obs::now_ns() : 0;
  std::uint64_t synth0 = armed ? obs::synthetic_delay_ns_this_thread() : 0;
  ~ScopedCollectiveLatency() {
    if (!armed) return;
    std::uint64_t dur = obs::now_ns() - start;
    const std::uint64_t synth =
        obs::synthetic_delay_ns_this_thread() - synth0;
    dur -= std::min(dur, synth);
    obs::detail::hist_add(obs::Hist::kCollectiveNs, dur);
  }
};

// Flight-recorder bracket for one collective. Separate from the span/latency
// scopes above because the recorder is always on, even with obs:: disabled.
struct FlightCollective {
  std::uint32_t id;
  bool armed = flight::enabled();
  std::uint64_t start = 0;
  explicit FlightCollective(std::uint32_t name_id) : id(name_id) {
    if (armed) {
      start = obs::now_ns();
      flight::record(flight::Kind::kCollBegin, id);
    }
  }
  ~FlightCollective() {
    if (armed)
      flight::record(flight::Kind::kCollEnd, id, obs::now_ns() - start);
  }
};

}  // namespace

Comm::~Comm() { obs::comm::retire(comm_block_); }

obs::comm::Block* Comm::obs_block() {
  if (!obs::enabled()) return nullptr;
  if (comm_block_ == nullptr) comm_block_ = obs::comm::acquire(rank());
  return comm_block_;
}

void Comm::note_ring_stall(int peer, std::uint64_t ns) {
  obs::comm::record_ring_stall(obs_block(), peer, ns);
}

void Comm::note_ring_depth(int peer, std::uint64_t bytes) {
  obs::comm::record_ring_depth(obs_block(), peer, bytes);
}

void Comm::send(int dest, int tag, const Bytes& payload) {
  current_op_->msgs_sent += 1;
  current_op_->bytes_sent += payload.size();
  const bool fl = flight::enabled();
  // Hop events are only meaningful inside a collective: one kCollEdge per
  // send/recv lets the postmortem attribute a slow collective instance to a
  // specific parent→child tree edge.
  const bool edge = fl && current_op_index_ != obs::comm::kOpP2p;
  obs::comm::Block* ob = obs_block();
  const std::uint64_t t0 = (ob != nullptr || edge) ? obs::now_ns() : 0;
  if (fl)
    flight::record(flight::Kind::kSendBegin, flight::peer_tag(dest, tag),
                   payload.size());
  do_send(dest, tag, payload);
  if (fl)
    flight::record(flight::Kind::kSendEnd, flight::peer_tag(dest, tag),
                   payload.size());
  if (ob != nullptr || edge) {
    const std::uint64_t dur = obs::now_ns() - t0;
    if (ob != nullptr)
      obs::comm::record_send(ob, dest, current_op_index_, payload.size(), dur);
    if (edge)
      flight::record(flight::Kind::kCollEdge,
                     flight::coll_edge_a(coll_seq_, current_coll_name_),
                     flight::coll_edge_b(dest, /*recv_side=*/false, dur));
  }
}

Bytes Comm::recv(int src, int tag) {
  const bool fl = flight::enabled();
  const bool edge = fl && current_op_index_ != obs::comm::kOpP2p;
  obs::comm::Block* ob = obs_block();
  // recv duration includes the wait for the sender, so a slow upstream edge
  // (e.g. a fault-plan delay) shows up as receiver-side latency — exactly
  // what raxh_comm's slow-edge table keys on.
  const std::uint64_t t0 = (ob != nullptr || edge) ? obs::now_ns() : 0;
  if (fl)
    flight::record(flight::Kind::kRecvBegin, flight::peer_tag(src, tag));
  Bytes payload = do_recv(src, tag);
  if (fl)
    flight::record(flight::Kind::kRecvEnd, flight::peer_tag(src, tag),
                   payload.size());
  current_op_->msgs_recv += 1;
  current_op_->bytes_recv += payload.size();
  if (ob != nullptr || edge) {
    const std::uint64_t dur = obs::now_ns() - t0;
    if (ob != nullptr)
      obs::comm::record_recv(ob, src, current_op_index_, payload.size(), dur);
    if (edge)
      flight::record(flight::Kind::kCollEdge,
                     flight::coll_edge_a(coll_seq_, current_coll_name_),
                     flight::coll_edge_b(src, /*recv_side=*/true, dur));
  }
  return payload;
}

Comm::OpStats Comm::Stats::total() const {
  OpStats sum;
  for (const OpStats* op : {&p2p, &barrier, &bcast, &reduce, &gather}) {
    sum.msgs_sent += op->msgs_sent;
    sum.bytes_sent += op->bytes_sent;
    sum.msgs_recv += op->msgs_recv;
    sum.bytes_recv += op->bytes_recv;
  }
  return sum;
}

std::string Comm::Stats::to_json() const {
  const std::pair<const char*, const OpStats*> ops[] = {
      {"p2p", &p2p},       {"barrier", &barrier}, {"bcast", &bcast},
      {"reduce", &reduce}, {"gather", &gather}};
  std::string out = "\"comm\":{";
  char buf[160];
  for (const auto& [name, op] : ops) {
    std::snprintf(buf, sizeof(buf),
                  "\"%s\":{\"msgs_sent\":%llu,\"bytes_sent\":%llu,"
                  "\"msgs_recv\":%llu,\"bytes_recv\":%llu},",
                  name, static_cast<unsigned long long>(op->msgs_sent),
                  static_cast<unsigned long long>(op->bytes_sent),
                  static_cast<unsigned long long>(op->msgs_recv),
                  static_cast<unsigned long long>(op->bytes_recv));
    out += buf;
  }
  std::snprintf(buf, sizeof(buf),
                "\"barrier_wait_ns\":%llu,\"synthetic_delay_ns\":%llu}",
                static_cast<unsigned long long>(barrier_wait_ns),
                static_cast<unsigned long long>(synthetic_delay_ns));
  out += buf;
  return out;
}

void Comm::barrier() {
  obs::Span span("mpi.barrier");
  static const std::uint32_t kFlightName = flight::name_id("mpi.barrier");
  FlightCollective fl(kFlightName);
  ScopedCollectiveLatency latency;
  ScopedOp op(*this, stats_.barrier, obs::comm::kOpBarrier, kFlightName);
  const std::uint64_t wait_start = obs::now_ns();
  const std::uint64_t synth0 = obs::synthetic_delay_ns_this_thread();
  if (collectives_ == CollectiveAlgo::kTree)
    barrier_dissemination();
  else
    barrier_star();
  std::uint64_t waited = obs::now_ns() - wait_start;
  const std::uint64_t synth = obs::synthetic_delay_ns_this_thread() - synth0;
  waited -= std::min(waited, synth);  // injected sleeps are not barrier wait
  stats_.barrier_wait_ns += waited;
}

// Central coordinator: everyone checks in with rank 0, rank 0 releases.
// O(p) serial work on rank 0 — the pre-scale baseline.
void Comm::barrier_star() {
  const Bytes empty;
  if (rank() == 0) {
    for (int r = 1; r < size(); ++r) recv(r, kTagBarrier);
    for (int r = 1; r < size(); ++r) send(r, kTagBarrier, empty);
  } else {
    send(0, kTagBarrier, empty);
    recv(0, kTagBarrier);
  }
}

// Dissemination barrier: ceil(log2 p) rounds; in round k every rank sends to
// (r + 2^k) mod p and receives from (r - 2^k) mod p. No rank leaves before
// every rank has entered, and no rank is a serial bottleneck. The round
// distances are distinct powers of two below p, so each ordered pair carries
// at most one message per barrier and per-pair FIFO keeps consecutive
// barriers from interleaving.
void Comm::barrier_dissemination() {
  const int n = size();
  const Bytes empty;
  for (int dist = 1; dist < n; dist <<= 1) {
    const int to = (rank() + dist) % n;
    const int from = (rank() - dist + n) % n;
    send(to, kTagBarrier, empty);
    recv(from, kTagBarrier);
  }
}

void Comm::bcast(Bytes& data, int root) {
  obs::Span span("mpi.bcast");
  static const std::uint32_t kFlightName = flight::name_id("mpi.bcast");
  FlightCollective fl(kFlightName);
  ScopedCollectiveLatency latency;
  ScopedOp op(*this, stats_.bcast, obs::comm::kOpBcast, kFlightName);
  RAXH_EXPECTS(root >= 0 && root < size());
  if (collectives_ == CollectiveAlgo::kTree) {
    bcast_binomial(data, root, kTagBcast);
    return;
  }
  if (rank() == root) {
    for (int r = 0; r < size(); ++r)
      if (r != root) send(r, kTagBcast, data);
  } else {
    data = recv(root, kTagBcast);
  }
}

// Binomial broadcast on ranks relative to root: a rank receives from the
// parent that owns its lowest set relative-rank bit, then relays down every
// lower bit. Root's serial sends drop from p-1 to ceil(log2 p) and the
// critical path is ceil(log2 p) hops. Payload bytes are forwarded verbatim,
// so the delivered data is bit-identical to the star path's.
void Comm::bcast_binomial(Bytes& data, int root, int tag) {
  const int n = size();
  const int rr = (rank() - root + n) % n;
  int mask = 1;
  while (mask < n) {
    if ((rr & mask) != 0) {
      const int src = ((rr & ~mask) + root) % n;
      data = recv(src, tag);
      break;
    }
    mask <<= 1;
  }
  mask >>= 1;
  while (mask > 0) {
    if (rr + mask < n) {
      const int dst = ((rr + mask) % n + root) % n;
      send(dst, tag, data);
    }
    mask >>= 1;
  }
}

// Star gather: every non-root rank sends its blob straight to root; root
// receives in ascending rank order. Returns blobs indexed by rank on root,
// {} elsewhere.
std::vector<Bytes> Comm::star_gather(const Bytes& mine, int root, int tag) {
  std::vector<Bytes> out;
  if (rank() == root) {
    out.resize(static_cast<std::size_t>(size()));
    out[static_cast<std::size_t>(root)] = mine;
    for (int r = 0; r < size(); ++r) {
      if (r == root) continue;
      out[static_cast<std::size_t>(r)] = recv(r, tag);
    }
  } else {
    send(root, tag, mine);
  }
  return out;
}

// Binomial gather: the mirror of bcast_binomial. Each rank accumulates
// (rank, blob) entries from the subtree hanging off its set relative-rank
// bits, then forwards the batch to its parent. Root ends up holding every
// rank's original blob and indexes them by absolute rank — the rank-ordered
// view reduce_fold_bcast folds over, which is what keeps tree reductions
// bit-identical to star ones (same operands, same fold order; the tree only
// changes the routing).
std::vector<Bytes> Comm::tree_gather(const Bytes& mine, int root, int tag) {
  const int n = size();
  const int rr = (rank() - root + n) % n;
  std::vector<std::pair<int, Bytes>> entries;
  entries.emplace_back(rank(), mine);
  for (int mask = 1; mask < n; mask <<= 1) {
    if ((rr & mask) == 0) {
      const int src_rr = rr | mask;
      if (src_rr >= n) continue;
      const int src = (src_rr + root) % n;
      const Bytes packed = recv(src, tag);
      Unpacker u(packed);
      const auto count = u.get<std::uint32_t>();
      for (std::uint32_t i = 0; i < count; ++i) {
        const int r = u.get<std::int32_t>();
        entries.emplace_back(r, u.get_bytes());
      }
    } else {
      const int dst = ((rr & ~mask) + root) % n;
      Packer p;
      p.put(static_cast<std::uint32_t>(entries.size()));
      for (const auto& [r, blob] : entries) {
        p.put(static_cast<std::int32_t>(r));
        p.put_bytes(blob);
      }
      send(dst, tag, p.bytes());
      entries.clear();
      break;
    }
  }
  std::vector<Bytes> out;
  if (rank() == root) {
    out.resize(static_cast<std::size_t>(n));
    for (auto& [r, blob] : entries)
      out[static_cast<std::size_t>(r)] = std::move(blob);
  }
  return out;
}

// The reduce skeleton shared by every allreduce flavour: move per-rank
// operand blobs to rank 0 (star or tree routing), fold them there in
// ascending rank order, broadcast the folded result. Folding at a single
// rank over rank-ordered operands is the reproducibility contract — FP
// association order is identical across algorithms, backends, transports,
// and MAXLOC ties resolve to the lowest rank.
Bytes Comm::reduce_fold_bcast(
    const Bytes& mine,
    const std::function<Bytes(const std::vector<Bytes>&)>& fold) {
  std::vector<Bytes> blobs = collectives_ == CollectiveAlgo::kTree
                                 ? tree_gather(mine, 0, kTagReduce)
                                 : star_gather(mine, 0, kTagReduce);
  Bytes result;
  if (rank() == 0) result = fold(blobs);
  bcast(result, 0);  // outermost ScopedOp keeps this attributed to reduce
  return result;
}

void Comm::bcast_string(std::string& data, int root) {
  Bytes bytes(data.begin(), data.end());
  bcast(bytes, root);
  data.assign(bytes.begin(), bytes.end());
}

Comm::MaxLoc Comm::allreduce_maxloc(double value) {
  obs::Span span("mpi.allreduce");
  static const std::uint32_t kFlightName = flight::name_id("mpi.allreduce");
  FlightCollective fl(kFlightName);
  ScopedCollectiveLatency latency;
  ScopedOp op(*this, stats_.reduce, obs::comm::kOpReduce, kFlightName);
  Packer p;
  p.put(value);
  const Bytes result =
      reduce_fold_bcast(p.take(), [](const std::vector<Bytes>& blobs) {
        Unpacker u0(blobs[0]);
        MaxLoc best{u0.get<double>(), 0};
        // Strict > with ascending rank order: ties go to the lowest rank.
        for (std::size_t r = 1; r < blobs.size(); ++r) {
          Unpacker u(blobs[r]);
          const double v = u.get<double>();
          if (v > best.value) best = MaxLoc{v, static_cast<int>(r)};
        }
        Packer out;
        out.put(best.value);
        out.put(best.rank);
        return out.take();
      });
  Unpacker u(result);
  MaxLoc best{};
  best.value = u.get<double>();
  best.rank = u.get<int>();
  return best;
}

double Comm::allreduce_sum(double value) {
  obs::Span span("mpi.allreduce");
  static const std::uint32_t kFlightName = flight::name_id("mpi.allreduce");
  FlightCollective fl(kFlightName);
  ScopedCollectiveLatency latency;
  ScopedOp op(*this, stats_.reduce, obs::comm::kOpReduce, kFlightName);
  Packer p;
  p.put(value);
  const Bytes result =
      reduce_fold_bcast(p.take(), [](const std::vector<Bytes>& blobs) {
        Unpacker u0(blobs[0]);
        double total = u0.get<double>();  // seed with rank 0's operand (not
                                          // 0.0: preserves -0.0 semantics)
        for (std::size_t r = 1; r < blobs.size(); ++r) {
          Unpacker u(blobs[r]);
          total += u.get<double>();
        }
        Packer out;
        out.put(total);
        return out.take();
      });
  Unpacker u(result);
  return u.get<double>();
}

double Comm::allreduce_max(double value) {
  obs::Span span("mpi.allreduce");
  static const std::uint32_t kFlightName = flight::name_id("mpi.allreduce");
  FlightCollective fl(kFlightName);
  ScopedCollectiveLatency latency;
  ScopedOp op(*this, stats_.reduce, obs::comm::kOpReduce, kFlightName);
  Packer p;
  p.put(value);
  const Bytes result =
      reduce_fold_bcast(p.take(), [](const std::vector<Bytes>& blobs) {
        Unpacker u0(blobs[0]);
        double best = u0.get<double>();
        for (std::size_t r = 1; r < blobs.size(); ++r) {
          Unpacker u(blobs[r]);
          best = std::max(best, u.get<double>());
        }
        Packer out;
        out.put(best);
        return out.take();
      });
  Unpacker u(result);
  return u.get<double>();
}

long Comm::allreduce_sum_long(long value) {
  obs::Span span("mpi.allreduce");
  static const std::uint32_t kFlightName = flight::name_id("mpi.allreduce");
  FlightCollective fl(kFlightName);
  ScopedCollectiveLatency latency;
  ScopedOp op(*this, stats_.reduce, obs::comm::kOpReduce, kFlightName);
  Packer p;
  p.put(value);
  const Bytes result =
      reduce_fold_bcast(p.take(), [](const std::vector<Bytes>& blobs) {
        Unpacker u0(blobs[0]);
        long total = u0.get<long>();
        for (std::size_t r = 1; r < blobs.size(); ++r) {
          Unpacker u(blobs[r]);
          total += u.get<long>();
        }
        Packer out;
        out.put(total);
        return out.take();
      });
  Unpacker u(result);
  return u.get<long>();
}

std::vector<std::vector<double>> Comm::gather_doubles(
    const std::vector<double>& mine, int root) {
  obs::Span span("mpi.gather");
  static const std::uint32_t kFlightName = flight::name_id("mpi.gather");
  FlightCollective fl(kFlightName);
  ScopedCollectiveLatency latency;
  ScopedOp op(*this, stats_.gather, obs::comm::kOpGather, kFlightName);
  Packer p;
  p.put_doubles(mine);
  const std::vector<Bytes> blobs =
      collectives_ == CollectiveAlgo::kTree
          ? tree_gather(p.take(), root, kTagGather)
          : star_gather(p.take(), root, kTagGather);
  std::vector<std::vector<double>> out;
  if (rank() == root) {
    out.resize(static_cast<std::size_t>(size()));
    for (int r = 0; r < size(); ++r) {
      Unpacker u(blobs[static_cast<std::size_t>(r)]);
      out[static_cast<std::size_t>(r)] = u.get_doubles();
    }
  }
  return out;
}

std::vector<std::string> Comm::gather_strings(const std::string& mine,
                                              int root) {
  obs::Span span("mpi.gather");
  static const std::uint32_t kFlightName = flight::name_id("mpi.gather");
  FlightCollective fl(kFlightName);
  ScopedCollectiveLatency latency;
  ScopedOp op(*this, stats_.gather, obs::comm::kOpGather, kFlightName);
  Packer p;
  p.put_string(mine);
  const std::vector<Bytes> blobs =
      collectives_ == CollectiveAlgo::kTree
          ? tree_gather(p.take(), root, kTagGather)
          : star_gather(p.take(), root, kTagGather);
  std::vector<std::string> out;
  if (rank() == root) {
    out.resize(static_cast<std::size_t>(size()));
    for (int r = 0; r < size(); ++r) {
      Unpacker u(blobs[static_cast<std::size_t>(r)]);
      out[static_cast<std::size_t>(r)] = u.get_string();
    }
  }
  return out;
}

// --- nonblocking point-to-point ---

Comm::Request Comm::isend(int dest, int tag, const Bytes& payload) {
  // Eager completion into the transport's buffering (see comm.h): by the
  // time send() returns the message is queued, so the request is done.
  Request req;
  req.is_recv_ = false;
  req.peer_ = dest;
  req.tag_ = tag;
  const bool fl = flight::enabled();
  obs::comm::Block* ob = obs_block();
  const std::uint64_t t0 = (ob != nullptr || fl) ? obs::now_ns() : 0;
  if (fl)
    flight::record(flight::Kind::kReqPost, flight::peer_tag(dest, tag),
                   /*is_recv=*/0);
  send(dest, tag, payload);
  // Eager sends are in flight exactly as long as the caller is blocked in
  // them, so they honestly contribute zero overlap.
  if (ob != nullptr) {
    const std::uint64_t dur = obs::now_ns() - t0;
    obs::comm::record_request(ob, /*completed_by_test=*/false, dur, dur);
  }
  return req;
}

Comm::Request Comm::irecv(int src, int tag) {
  Request req;
  req.is_recv_ = true;
  req.done_ = false;
  req.peer_ = src;
  req.tag_ = tag;
  const bool fl = flight::enabled();
  if (fl || obs::enabled()) req.posted_ns_ = obs::now_ns();
  if (fl)
    flight::record(flight::Kind::kReqPost, flight::peer_tag(src, tag),
                   /*is_recv=*/1);
  return req;
}

bool Comm::test(Request& req) {
  if (req.done_) return true;
  // do_probe is per-source: it reports a message (or the peer's death)
  // observable on src's channel. The recv below is the normal counted path,
  // so Stats and flight events are identical whether a message arrives via
  // recv, wait, or a test that completed it.
  if (!do_probe(req.peer_)) return false;
  const bool fl = flight::enabled();
  obs::comm::Block* ob = obs_block();
  const std::uint64_t t0 =
      ((ob != nullptr || fl) && req.posted_ns_ != 0) ? obs::now_ns() : 0;
  req.payload_ = recv(req.peer_, req.tag_);
  req.done_ = true;
  if (t0 != 0) {
    const std::uint64_t now = obs::now_ns();
    if (ob != nullptr)
      obs::comm::record_request(ob, /*completed_by_test=*/true,
                                now - req.posted_ns_, now - t0);
    if (fl)
      flight::record(flight::Kind::kReqTestOk,
                     flight::peer_tag(req.peer_, req.tag_),
                     now - req.posted_ns_);
    req.posted_ns_ = 0;
  }
  return true;
}

Bytes Comm::wait(Request& req) {
  if (!req.done_) {
    const bool fl = flight::enabled();
    obs::comm::Block* ob = obs_block();
    const std::uint64_t t0 =
        ((ob != nullptr || fl) && req.posted_ns_ != 0) ? obs::now_ns() : 0;
    req.payload_ = recv(req.peer_, req.tag_);
    req.done_ = true;
    if (t0 != 0) {
      const std::uint64_t now = obs::now_ns();
      if (ob != nullptr)
        obs::comm::record_request(ob, /*completed_by_test=*/false,
                                  now - req.posted_ns_, now - t0);
      if (fl)
        flight::record(flight::Kind::kReqWaitDone,
                       flight::peer_tag(req.peer_, req.tag_), now - t0);
      req.posted_ns_ = 0;
    }
  }
  return std::move(req.payload_);
}

void Packer::put_string(const std::string& s) {
  put(static_cast<std::uint64_t>(s.size()));
  const auto* p = reinterpret_cast<const std::uint8_t*>(s.data());
  data_.insert(data_.end(), p, p + s.size());
}

void Packer::put_doubles(const std::vector<double>& v) {
  put(static_cast<std::uint64_t>(v.size()));
  const auto* p = reinterpret_cast<const std::uint8_t*>(v.data());
  data_.insert(data_.end(), p, p + v.size() * sizeof(double));
}

void Packer::put_bytes(const Bytes& b) {
  put(static_cast<std::uint64_t>(b.size()));
  data_.insert(data_.end(), b.begin(), b.end());
}

void Unpacker::read(std::uint8_t* out, std::size_t n) {
  // An empty container's data() may be null, and memcpy must not see it.
  if (n == 0) return;
  RAXH_EXPECTS(offset_ + n <= data_->size());
  std::memcpy(out, data_->data() + offset_, n);
  offset_ += n;
}

std::string Unpacker::get_string() {
  const auto n = static_cast<std::size_t>(get<std::uint64_t>());
  std::string s(n, '\0');
  read(reinterpret_cast<std::uint8_t*>(s.data()), n);
  return s;
}

std::vector<double> Unpacker::get_doubles() {
  const auto n = static_cast<std::size_t>(get<std::uint64_t>());
  std::vector<double> v(n);
  read(reinterpret_cast<std::uint8_t*>(v.data()), n * sizeof(double));
  return v;
}

Bytes Unpacker::get_bytes() {
  const auto n = static_cast<std::size_t>(get<std::uint64_t>());
  Bytes b(n);
  read(b.data(), n);
  return b;
}

}  // namespace raxh::mpi
