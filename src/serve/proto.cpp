#include "serve/proto.h"

#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <stdexcept>

namespace raxh::serve {

namespace {

// Full-buffer read/write with EINTR retry; a stream socket may deliver any
// prefix per syscall.
std::size_t read_all(int fd, void* buf, std::size_t n) {
  auto* p = static_cast<std::uint8_t*>(buf);
  std::size_t got = 0;
  while (got < n) {
    const ssize_t r = ::read(fd, p + got, n - got);
    if (r < 0) {
      if (errno == EINTR) continue;
      throw std::runtime_error(std::string("frame read: ") +
                               std::strerror(errno));
    }
    if (r == 0) break;  // EOF
    got += static_cast<std::size_t>(r);
  }
  return got;
}

void write_all(int fd, const void* buf, std::size_t n) {
  const auto* p = static_cast<const std::uint8_t*>(buf);
  std::size_t put = 0;
  while (put < n) {
    const ssize_t w = ::write(fd, p + put, n - put);
    if (w < 0) {
      if (errno == EINTR) continue;
      throw std::runtime_error(std::string("frame write: ") +
                               std::strerror(errno));
    }
    put += static_cast<std::size_t>(w);
  }
}

}  // namespace

bool read_frame(int fd, Frame& out) {
  std::uint8_t len_le[4];
  const std::size_t got = read_all(fd, len_le, sizeof(len_le));
  if (got == 0) return false;  // clean EOF between frames
  if (got < sizeof(len_le))
    throw std::runtime_error("frame read: EOF inside length prefix");
  const std::uint32_t len = static_cast<std::uint32_t>(len_le[0]) |
                            static_cast<std::uint32_t>(len_le[1]) << 8 |
                            static_cast<std::uint32_t>(len_le[2]) << 16 |
                            static_cast<std::uint32_t>(len_le[3]) << 24;
  if (len == 0) throw std::runtime_error("frame read: empty frame");
  if (len > kMaxFrameBytes)
    throw std::runtime_error("frame read: oversized frame (" +
                             std::to_string(len) + " bytes)");
  std::uint8_t op = 0;
  if (read_all(fd, &op, 1) != 1)
    throw std::runtime_error("frame read: EOF before opcode");
  out.op = static_cast<Op>(op);
  // Grow the body as its bytes arrive, so a length prefix alone cannot make
  // the reader allocate more than about twice what the peer actually sent.
  const std::size_t body_len = len - 1;
  out.body.clear();
  while (out.body.size() < body_len) {
    const std::size_t have = out.body.size();
    const std::size_t chunk =
        std::min(body_len - have, std::max<std::size_t>(have, 64 << 10));
    out.body.resize(have + chunk);
    if (read_all(fd, out.body.data() + have, chunk) != chunk)
      throw std::runtime_error("frame read: EOF inside body");
  }
  return true;
}

void write_frame(int fd, Op op, const mpi::Bytes& body) {
  if (body.size() + 1 > kMaxFrameBytes)
    throw std::runtime_error("frame write: oversized frame");
  const auto len = static_cast<std::uint32_t>(body.size() + 1);
  std::uint8_t header[5] = {
      static_cast<std::uint8_t>(len & 0xff),
      static_cast<std::uint8_t>((len >> 8) & 0xff),
      static_cast<std::uint8_t>((len >> 16) & 0xff),
      static_cast<std::uint8_t>((len >> 24) & 0xff),
      static_cast<std::uint8_t>(op),
  };
  write_all(fd, header, sizeof(header));
  if (!body.empty()) write_all(fd, body.data(), body.size());
}

void pack_request(mpi::Packer& p, const JobRequest& r) {
  p.put_string(r.name);
  p.put_string(r.tenant);
  p.put_string(r.model);
  p.put<std::int32_t>(r.priority);
  p.put<std::int32_t>(r.nranks);
  p.put<std::int32_t>(r.num_threads);
  p.put<std::int32_t>(r.bootstraps);
  p.put<std::int64_t>(r.parsimony_seed);
  p.put<std::int64_t>(r.bootstrap_seed);
  p.put<std::uint8_t>(r.checkpoint ? 1 : 0);
  p.put<std::int32_t>(r.fast_rounds);
  p.put<std::int32_t>(r.slow_rounds);
  p.put<std::int32_t>(r.thorough_rounds);
  p.put_string(r.alignment);
}

JobRequest unpack_request(mpi::Unpacker& u) {
  JobRequest r;
  r.name = u.get_string();
  r.tenant = u.get_string();
  r.model = u.get_string();
  r.priority = u.get<std::int32_t>();
  r.nranks = u.get<std::int32_t>();
  r.num_threads = u.get<std::int32_t>();
  r.bootstraps = u.get<std::int32_t>();
  r.parsimony_seed = u.get<std::int64_t>();
  r.bootstrap_seed = u.get<std::int64_t>();
  r.checkpoint = u.get<std::uint8_t>() != 0;
  r.fast_rounds = u.get<std::int32_t>();
  r.slow_rounds = u.get<std::int32_t>();
  r.thorough_rounds = u.get<std::int32_t>();
  r.alignment = u.get_string();
  return r;
}

const char* job_state_name(JobState s) {
  switch (s) {
    case JobState::kQueued:
      return "queued";
    case JobState::kReady:
      return "ready";
    case JobState::kRunning:
      return "running";
    case JobState::kDone:
      return "done";
    case JobState::kFailed:
      return "failed";
    case JobState::kCancelled:
      return "cancelled";
  }
  return "unknown";
}

void pack_status(mpi::Packer& p, const JobStatus& s) {
  p.put_string(s.id);
  p.put_string(s.name);
  p.put_string(s.tenant);
  p.put<std::uint8_t>(static_cast<std::uint8_t>(s.state));
  p.put_string(s.error);
  p.put<std::uint8_t>(s.cache_hit ? 1 : 0);
  p.put(s.fraction);
  p.put_string(s.phase);
  p.put(s.best_lnl);
  p.put<std::uint8_t>(s.has_lnl ? 1 : 0);
  p.put(s.queue_s);
  p.put(s.run_s);
}

JobStatus unpack_status(mpi::Unpacker& u) {
  JobStatus s;
  s.id = u.get_string();
  s.name = u.get_string();
  s.tenant = u.get_string();
  s.state = static_cast<JobState>(u.get<std::uint8_t>());
  s.error = u.get_string();
  s.cache_hit = u.get<std::uint8_t>() != 0;
  s.fraction = u.get<double>();
  s.phase = u.get_string();
  s.best_lnl = u.get<double>();
  s.has_lnl = u.get<std::uint8_t>() != 0;
  s.queue_s = u.get<double>();
  s.run_s = u.get<double>();
  return s;
}

void pack_result(mpi::Packer& p, const JobResult& r) {
  p.put_string(r.best_tree_newick);
  p.put(r.best_lnl);
  p.put<std::int32_t>(r.winner_rank);
  p.put_string(r.support_tree_newick);
  p.put<std::int32_t>(r.total_bootstrap_trees);
}

JobResult unpack_result(mpi::Unpacker& u) {
  JobResult r;
  r.best_tree_newick = u.get_string();
  r.best_lnl = u.get<double>();
  r.winner_rank = u.get<std::int32_t>();
  r.support_tree_newick = u.get_string();
  r.total_bootstrap_trees = u.get<std::int32_t>();
  return r;
}

}  // namespace raxh::serve
