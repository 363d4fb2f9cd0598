#include "minimpi/comm.h"

#include <algorithm>
#include <array>
#include <cstdio>
#include <cstring>
#include <numeric>
#include <type_traits>
#include <utility>

#include "obs/comm_obs.h"
#include "obs/flight.h"
#include "obs/hist.h"
#include "obs/obs.h"
#include "util/check.h"

namespace raxh::mpi {

namespace {

namespace flight = obs::flight;
using obs::comm::kOpBarrier;
using obs::comm::kOpBcast;
using obs::comm::kOpGather;
using obs::comm::kOpP2p;
using obs::comm::kOpReduce;

// Comm::Stats' op fields in obs::comm's op-index order: the one place the
// two meet.
constexpr Comm::OpStats Comm::Stats::*kOpFields[obs::comm::kNumOps] = {
    &Comm::Stats::p2p, &Comm::Stats::barrier, &Comm::Stats::bcast,
    &Comm::Stats::reduce, &Comm::Stats::gather};

// Span and flight-recorder name of each collective op (p2p has none).
constexpr const char* kCollNames[obs::comm::kNumOps] = {
    nullptr, "mpi.barrier", "mpi.bcast", "mpi.allreduce", "mpi.gather"};

std::uint32_t coll_flight_id(int op) {
  static const auto ids = [] {
    std::array<std::uint32_t, obs::comm::kNumOps> out{};
    for (int i = kOpBarrier; i < obs::comm::kNumOps; ++i)
      out[static_cast<std::size_t>(i)] = flight::name_id(kCollNames[i]);
    return out;
  }();
  return ids[static_cast<std::size_t>(op)];
}

// Decodes each gathered blob with one Unpacker getter; {} off root.
template <typename T>
std::vector<T> unpack_each(const std::vector<Bytes>& blobs,
                           T (Unpacker::*get)()) {
  std::vector<T> out;
  out.reserve(blobs.size());
  for (const Bytes& blob : blobs) {
    Unpacker u(blob);
    out.push_back((u.*get)());
  }
  return out;
}

// --- routing building blocks, star or tree per comm.collectives() ---

constexpr int kTagBarrier = 1000000;
constexpr int kTagBcast = 1000001;
constexpr int kTagReduce = 1000002;
constexpr int kTagGather = 1000003;

// Central coordinator: everyone checks in with rank 0, rank 0 releases.
// O(p) serial work on rank 0 — the pre-scale baseline.
void barrier_star(Comm& comm) {
  const Bytes empty;
  if (comm.rank() == 0) {
    for (int r = 1; r < comm.size(); ++r) comm.recv(r, kTagBarrier);
    for (int r = 1; r < comm.size(); ++r) comm.send(r, kTagBarrier, empty);
  } else {
    comm.send(0, kTagBarrier, empty);
    comm.recv(0, kTagBarrier);
  }
}

// Dissemination barrier: ceil(log2 p) rounds; in round k every rank sends to
// (r + 2^k) mod p and receives from (r - 2^k) mod p. No rank leaves before
// every rank has entered, and no rank is a serial bottleneck. The round
// distances are distinct powers of two below p, so each ordered pair carries
// at most one message per barrier and per-pair FIFO keeps consecutive
// barriers from interleaving.
void barrier_dissemination(Comm& comm) {
  const int n = comm.size();
  const Bytes empty;
  for (int dist = 1; dist < n; dist <<= 1) {
    comm.send((comm.rank() + dist) % n, kTagBarrier, empty);
    comm.recv((comm.rank() - dist + n) % n, kTagBarrier);
  }
}

// Binomial broadcast on ranks relative to root: a rank receives from the
// parent that owns its lowest set relative-rank bit, then relays down every
// lower bit. Root's serial sends drop from p-1 to ceil(log2 p) and the
// critical path is ceil(log2 p) hops. Payload bytes are forwarded verbatim,
// so the delivered data is bit-identical to the star path's.
void bcast_binomial(Comm& comm, Bytes& data, int root, int tag) {
  const int n = comm.size();
  const int rr = (comm.rank() - root + n) % n;
  int mask = 1;
  while (mask < n) {
    if ((rr & mask) != 0) {
      data = comm.recv(((rr & ~mask) + root) % n, tag);
      break;
    }
    mask <<= 1;
  }
  for (mask >>= 1; mask > 0; mask >>= 1)
    if (rr + mask < n) comm.send(((rr + mask) % n + root) % n, tag, data);
}

void route_bcast(Comm& comm, Bytes& data, int root, int tag) {
  RAXH_EXPECTS(root >= 0 && root < comm.size());
  if (comm.collectives() == CollectiveAlgo::kTree) {
    bcast_binomial(comm, data, root, tag);
  } else if (comm.rank() == root) {
    for (int r = 0; r < comm.size(); ++r)
      if (r != root) comm.send(r, tag, data);
  } else {
    data = comm.recv(root, tag);
  }
}

// Star gather: every non-root rank sends its blob straight to root; root
// receives in ascending rank order.
std::vector<Bytes> star_gather(Comm& comm, const Bytes& mine, int root,
                               int tag) {
  std::vector<Bytes> out;
  if (comm.rank() != root) {
    comm.send(root, tag, mine);
    return out;
  }
  out.resize(static_cast<std::size_t>(comm.size()));
  for (int r = 0; r < comm.size(); ++r)
    out[static_cast<std::size_t>(r)] = r == root ? mine : comm.recv(r, tag);
  return out;
}

// Binomial gather: the mirror of bcast_binomial. Each rank accumulates
// (rank, blob) entries from the subtree hanging off its set relative-rank
// bits, then forwards the batch to its parent. Root ends up holding every
// rank's original blob and indexes them by absolute rank — the rank-ordered
// view reduce_fold_bcast folds over, which is what keeps tree reductions
// bit-identical to star ones (same operands, same fold order; the tree only
// changes the routing).
std::vector<Bytes> tree_gather(Comm& comm, const Bytes& mine, int root,
                               int tag) {
  const int n = comm.size();
  const int rr = (comm.rank() - root + n) % n;
  std::vector<std::pair<int, Bytes>> entries;
  entries.emplace_back(comm.rank(), mine);
  for (int mask = 1; mask < n; mask <<= 1) {
    if ((rr & mask) == 0) {
      const int src_rr = rr | mask;
      if (src_rr >= n) continue;
      const Bytes packed = comm.recv((src_rr + root) % n, tag);
      Unpacker u(packed);
      const auto count = u.get<std::uint32_t>();
      for (std::uint32_t i = 0; i < count; ++i) {
        const int r = u.get<std::int32_t>();
        entries.emplace_back(r, u.get_bytes());
      }
    } else {
      Packer p;
      p.put(static_cast<std::uint32_t>(entries.size()));
      for (const auto& [r, blob] : entries) {
        p.put(static_cast<std::int32_t>(r));
        p.put_bytes(blob);
      }
      comm.send(((rr & ~mask) + root) % n, tag, p.bytes());
      entries.clear();
      break;
    }
  }
  std::vector<Bytes> out;
  if (comm.rank() == root) {
    out.resize(static_cast<std::size_t>(n));
    for (auto& [r, blob] : entries)
      out[static_cast<std::size_t>(r)] = std::move(blob);
  }
  return out;
}

// Every rank's blob in rank order on root, {} elsewhere.
std::vector<Bytes> gather_blobs(Comm& comm, const Bytes& mine, int root,
                                int tag) {
  return comm.collectives() == CollectiveAlgo::kTree
             ? tree_gather(comm, mine, root, tag)
             : star_gather(comm, mine, root, tag);
}

// The allreduce body shared by every flavour: move per-rank operands to
// rank 0 (star or tree routing), apply `fold` there to the rank-ordered
// operands, broadcast the result. Folding at a single rank over rank-ordered
// operands is the reproducibility contract — FP association order is
// identical across algorithms, backends, transports, and MAXLOC ties
// resolve to the lowest rank. A MaxLoc result travels as (value, rank),
// field by field, never with a struct's padding bytes.
template <typename T, typename Fold>
auto allreduce_with(Comm& comm, T mine, Fold fold) {
  using R = decltype(fold(std::vector<T>{}));
  constexpr bool kMaxLoc = std::is_same_v<R, Comm::MaxLoc>;
  Packer p;
  p.put(mine);
  const std::vector<Bytes> blobs = gather_blobs(comm, p.take(), 0, kTagReduce);
  Bytes result;
  if (comm.rank() == 0) {
    std::vector<T> operands;
    operands.reserve(blobs.size());
    for (const Bytes& blob : blobs) operands.push_back(Unpacker(blob).get<T>());
    const R folded = fold(operands);
    Packer out;
    if constexpr (kMaxLoc) {
      out.put(folded.value);
      out.put(folded.rank);
    } else {
      out.put(folded);
    }
    result = out.take();
  }
  route_bcast(comm, result, 0, kTagBcast);
  Unpacker u(result);
  if constexpr (kMaxLoc)
    return Comm::MaxLoc{u.get<double>(), u.get<int>()};
  else
    return u.get<R>();
}

}  // namespace

// One clock pair per outermost collective feeds every consumer. Sleeps a
// fault plan injected on this thread are subtracted from the latency sample
// and the barrier wait: they are chaos-test artifacts, not comm time.
class Comm::CollectiveScope {
 public:
  CollectiveScope(Comm& comm, int op)
      : comm_(comm), outermost_(comm.coll_op_ == kOpP2p) {
    if (!outermost_) return;
    comm_.coll_op_ = op;
    ++comm_.coll_seq_;
    obs_ = obs::enabled();
    flight_ = flight::enabled();
    start_ = obs::now_ns();
    synth0_ = obs::synthetic_delay_ns_this_thread();
    if (flight_) flight::record(flight::Kind::kCollBegin, coll_flight_id(op));
  }
  ~CollectiveScope() {
    if (!outermost_) return;
    const int op = std::exchange(comm_.coll_op_, kOpP2p);
    const std::uint64_t dur = obs::now_ns() - start_;
    const std::uint64_t synth =
        obs::synthetic_delay_ns_this_thread() - synth0_;
    const std::uint64_t net = dur - std::min(dur, synth);
    if (flight_)
      flight::record(flight::Kind::kCollEnd, coll_flight_id(op), dur);
    if (obs_) {
      obs::record_span(kCollNames[op], start_, dur);
      obs::detail::hist_add(obs::Hist::kCollectiveNs, net);
    }
    if (op == kOpBarrier) comm_.barrier_wait_ns_ += net;
  }
  CollectiveScope(const CollectiveScope&) = delete;
  CollectiveScope& operator=(const CollectiveScope&) = delete;

 private:
  Comm& comm_;
  bool outermost_;
  bool obs_ = false;
  bool flight_ = false;
  std::uint64_t start_ = 0;
  std::uint64_t synth0_ = 0;
};

Comm::~Comm() { obs::comm::retire(comm_block_); }

obs::comm::Block* Comm::block() {
  if (comm_block_ == nullptr) comm_block_ = obs::comm::acquire(rank());
  return comm_block_;
}

void Comm::note_ring_stall(int peer, std::uint64_t ns) {
  obs::comm::record_ring_stall(block(), peer, ns);
}

void Comm::note_ring_depth(int peer, std::uint64_t bytes) {
  obs::comm::record_ring_depth(block(), peer, bytes);
}

void Comm::record_hop(int peer, bool recv_side, std::uint64_t bytes,
                      bool timed, std::uint64_t t0) {
  // Hop events are only meaningful inside a collective: one kCollEdge per
  // send/recv lets the postmortem attribute a slow collective instance to a
  // specific parent->child tree edge.
  const bool edge = t0 != 0 && coll_op_ != kOpP2p && flight::enabled();
  const std::uint64_t dur = t0 != 0 ? obs::now_ns() - t0 : 0;
  obs::comm::record_message(block(), peer, coll_op_, recv_side, bytes, timed,
                            dur);
  if (edge)
    flight::record(flight::Kind::kCollEdge,
                   flight::coll_edge_a(coll_seq_, coll_flight_id(coll_op_)),
                   flight::coll_edge_b(peer, recv_side, dur));
}

// The hop clock runs when obs is on (send_ns/recv_ns) or when the flight
// recorder will stamp a kCollEdge; 0 means it was not read.
std::uint64_t Comm::hop_start(bool timed, bool fl) const {
  return timed || (fl && coll_op_ != kOpP2p) ? obs::now_ns() : 0;
}

void Comm::send(int dest, int tag, const Bytes& payload) {
  const bool fl = flight::enabled();
  const bool timed = obs::enabled();
  const std::uint64_t t0 = hop_start(timed, fl);
  if (fl)
    flight::record(flight::Kind::kSendBegin, flight::peer_tag(dest, tag),
                   payload.size());
  do_send(dest, tag, payload);
  if (fl)
    flight::record(flight::Kind::kSendEnd, flight::peer_tag(dest, tag),
                   payload.size());
  record_hop(dest, /*recv_side=*/false, payload.size(), timed, t0);
}

Bytes Comm::recv(int src, int tag) {
  const bool fl = flight::enabled();
  const bool timed = obs::enabled();
  // recv duration includes the wait for the sender, so a slow upstream edge
  // (e.g. a fault-plan delay) shows up as receiver-side latency — exactly
  // what raxh_comm's slow-edge table keys on.
  const std::uint64_t t0 = hop_start(timed, fl);
  if (fl)
    flight::record(flight::Kind::kRecvBegin, flight::peer_tag(src, tag));
  Bytes payload = do_recv(src, tag);
  if (fl)
    flight::record(flight::Kind::kRecvEnd, flight::peer_tag(src, tag),
                   payload.size());
  record_hop(src, /*recv_side=*/true, payload.size(), timed, t0);
  return payload;
}

Comm::Stats Comm::stats() const {
  const obs::comm::BlockTotals t = obs::comm::totals(comm_block_);
  Stats s;
  for (int op = 0; op < obs::comm::kNumOps; ++op) {
    const obs::comm::EdgeTotals& e = t.per_op[static_cast<std::size_t>(op)];
    s.*kOpFields[op] =
        OpStats{e.msgs_sent, e.bytes_sent, e.msgs_recv, e.bytes_recv};
  }
  s.barrier_wait_ns = barrier_wait_ns_;
  s.synthetic_delay_ns = synthetic_delay_ns_;
  return s;
}

Comm::OpStats Comm::Stats::total() const {
  OpStats sum;
  for (const auto field : kOpFields) {
    const OpStats& op = this->*field;
    sum.msgs_sent += op.msgs_sent;
    sum.bytes_sent += op.bytes_sent;
    sum.msgs_recv += op.msgs_recv;
    sum.bytes_recv += op.bytes_recv;
  }
  return sum;
}

std::string Comm::Stats::to_json() const {
  std::string out = "\"comm\":{";
  char buf[160];
  for (int i = 0; i < obs::comm::kNumOps; ++i) {
    const OpStats& op = this->*kOpFields[i];
    std::snprintf(buf, sizeof(buf),
                  "\"%s\":{\"msgs_sent\":%llu,\"bytes_sent\":%llu,"
                  "\"msgs_recv\":%llu,\"bytes_recv\":%llu},",
                  obs::comm::op_name(i),
                  static_cast<unsigned long long>(op.msgs_sent),
                  static_cast<unsigned long long>(op.bytes_sent),
                  static_cast<unsigned long long>(op.msgs_recv),
                  static_cast<unsigned long long>(op.bytes_recv));
    out += buf;
  }
  std::snprintf(buf, sizeof(buf),
                "\"barrier_wait_ns\":%llu,\"synthetic_delay_ns\":%llu}",
                static_cast<unsigned long long>(barrier_wait_ns),
                static_cast<unsigned long long>(synthetic_delay_ns));
  out += buf;
  return out;
}

// --- collectives: each opens one CollectiveScope, then routes ---

void Comm::barrier() {
  CollectiveScope scope(*this, kOpBarrier);
  if (collectives_ == CollectiveAlgo::kTree)
    barrier_dissemination(*this);
  else
    barrier_star(*this);
}

void Comm::bcast(Bytes& data, int root) {
  CollectiveScope scope(*this, kOpBcast);
  route_bcast(*this, data, root, kTagBcast);
}

void Comm::bcast_string(std::string& data, int root) {
  Bytes bytes(data.begin(), data.end());
  bcast(bytes, root);
  data.assign(bytes.begin(), bytes.end());
}

// The folds scan operands in ascending rank order, seeded with rank 0's.

Comm::MaxLoc Comm::allreduce_maxloc(double value) {
  CollectiveScope scope(*this, kOpReduce);
  return allreduce_with(*this, value, [](const std::vector<double>& v) {
    // max_element keeps the first maximum: ties go to the lowest rank.
    const auto best = std::max_element(v.begin(), v.end());
    return MaxLoc{*best, static_cast<int>(best - v.begin())};
  });
}

double Comm::allreduce_sum(double value) {
  CollectiveScope scope(*this, kOpReduce);
  // Seeded with rank 0's operand, not 0.0: preserves -0.0 semantics.
  return allreduce_with(*this, value, [](const std::vector<double>& v) {
    return std::accumulate(v.begin() + 1, v.end(), v.front());
  });
}

double Comm::allreduce_max(double value) {
  CollectiveScope scope(*this, kOpReduce);
  return allreduce_with(*this, value, [](const std::vector<double>& v) {
    return *std::max_element(v.begin(), v.end());
  });
}

long Comm::allreduce_sum_long(long value) {
  CollectiveScope scope(*this, kOpReduce);
  return allreduce_with(*this, value, [](const std::vector<long>& v) {
    return std::accumulate(v.begin() + 1, v.end(), v.front());
  });
}

std::vector<std::vector<double>> Comm::gather_doubles(
    const std::vector<double>& mine, int root) {
  CollectiveScope scope(*this, kOpGather);
  Packer p;
  p.put_doubles(mine);
  return unpack_each(gather_blobs(*this, p.take(), root, kTagGather),
                     &Unpacker::get_doubles);
}

std::vector<std::string> Comm::gather_strings(const std::string& mine,
                                              int root) {
  CollectiveScope scope(*this, kOpGather);
  Packer p;
  p.put_string(mine);
  return unpack_each(gather_blobs(*this, p.take(), root, kTagGather),
                     &Unpacker::get_string);
}

// --- nonblocking point-to-point ---

Comm::Request Comm::isend(int dest, int tag, const Bytes& payload) {
  // Eager completion into the transport's buffering (see comm.h): by the
  // time send() returns the message is queued, so the request is done.
  Request req;
  req.peer_ = dest;
  req.tag_ = tag;
  const bool timed = obs::enabled();
  const std::uint64_t t0 = timed ? obs::now_ns() : 0;
  if (flight::enabled())
    flight::record(flight::Kind::kReqPost, flight::peer_tag(dest, tag),
                   /*is_recv=*/0);
  send(dest, tag, payload);
  // Eager sends are in flight exactly as long as the caller is blocked in
  // them, so they honestly contribute zero overlap.
  if (timed) {
    const std::uint64_t dur = obs::now_ns() - t0;
    obs::comm::record_request(block(), /*completed_by_test=*/false, dur, dur);
  }
  return req;
}

Comm::Request Comm::irecv(int src, int tag) {
  Request req;
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

void Comm::complete_recv(Request& req, bool by_test) {
  // The recv below is the normal counted path, so Stats and flight events
  // are identical whether a message arrives via recv, wait, or a test that
  // completed it.
  const bool fl = flight::enabled();
  const bool timed = obs::enabled();
  const bool booked = (timed || fl) && req.posted_ns_ != 0;
  const std::uint64_t t0 = booked ? obs::now_ns() : 0;
  req.payload_ = recv(req.peer_, req.tag_);
  req.done_ = true;
  if (!booked) return;
  const std::uint64_t now = obs::now_ns();
  if (timed)
    obs::comm::record_request(block(), by_test, now - req.posted_ns_,
                              now - t0);
  if (fl)
    flight::record(
        by_test ? flight::Kind::kReqTestOk : flight::Kind::kReqWaitDone,
        flight::peer_tag(req.peer_, req.tag_),
        by_test ? now - req.posted_ns_ : now - t0);
  req.posted_ns_ = 0;
}

bool Comm::test(Request& req) {
  if (req.done_) return true;
  // do_probe is per-source: it reports a message (or the peer's death)
  // observable on src's channel.
  if (!do_probe(req.peer_)) return false;
  complete_recv(req, /*by_test=*/true);
  return true;
}

Bytes Comm::wait(Request& req) {
  if (!req.done_) complete_recv(req, /*by_test=*/false);
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

void Unpacker::need(std::uint64_t count, std::size_t item_bytes) const {
  const std::size_t left = data_->size() - offset_;
  const bool fits = count <= left / item_bytes;  // no count * size overflow
  if (source_ == Source::kMesh) RAXH_EXPECTS(fits);
  if (!fits)
    throw std::runtime_error(
        "truncated payload: " + std::to_string(count) + " item(s) of " +
        std::to_string(item_bytes) + " byte(s) claimed, " +
        std::to_string(left) + " left");
}

void Unpacker::read(std::uint8_t* out, std::size_t n) {
  need(n, 1);
  // An empty container's data() may be null, and memcpy must not see it.
  if (n == 0) return;
  std::memcpy(out, data_->data() + offset_, n);
  offset_ += n;
}

std::string Unpacker::get_string() {
  const auto n = get<std::uint64_t>();
  need(n, 1);
  std::string s(n, '\0');
  read(reinterpret_cast<std::uint8_t*>(s.data()), n);
  return s;
}

std::vector<double> Unpacker::get_doubles() {
  const auto n = get<std::uint64_t>();
  need(n, sizeof(double));
  std::vector<double> v(n);
  read(reinterpret_cast<std::uint8_t*>(v.data()), n * sizeof(double));
  return v;
}

Bytes Unpacker::get_bytes() {
  const auto n = get<std::uint64_t>();
  need(n, 1);
  Bytes b(n);
  read(b.data(), n);
  return b;
}

}  // namespace raxh::mpi
