#include "serve/client.h"

#include <arpa/inet.h>
#include <netdb.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>

namespace raxh::serve {

namespace {

[[noreturn]] void sys_error(const std::string& what) {
  throw ServeError(what + ": " + std::strerror(errno));
}

}  // namespace

Client Client::connect_unix(const std::string& socket_path) {
  const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (fd < 0) sys_error("socket(AF_UNIX)");
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  if (socket_path.size() >= sizeof(addr.sun_path)) {
    ::close(fd);
    throw ServeError("socket path too long: " + socket_path);
  }
  std::strncpy(addr.sun_path, socket_path.c_str(), sizeof(addr.sun_path) - 1);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) < 0) {
    const int err = errno;
    ::close(fd);
    errno = err;
    sys_error("connect(" + socket_path + ")");
  }
  return Client(fd);
}

Client Client::connect_tcp(const std::string& host, int port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) sys_error("socket(AF_INET)");
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<std::uint16_t>(port));
  if (::inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1) {
    // Resolve a hostname (e.g. "localhost").
    hostent* he = ::gethostbyname(host.c_str());
    if (!he || he->h_addrtype != AF_INET) {
      ::close(fd);
      throw ServeError("cannot resolve host: " + host);
    }
    std::memcpy(&addr.sin_addr, he->h_addr_list[0], sizeof(addr.sin_addr));
  }
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) < 0) {
    const int err = errno;
    ::close(fd);
    errno = err;
    sys_error("connect(" + host + ":" + std::to_string(port) + ")");
  }
  return Client(fd);
}

Client Client::connect(const std::string& target) {
  // "host:port" (with a numeric port) means TCP; otherwise a socket path.
  const std::size_t colon = target.rfind(':');
  if (colon != std::string::npos && colon + 1 < target.size() &&
      target.find('/') == std::string::npos) {
    const std::string port_str = target.substr(colon + 1);
    if (port_str.find_first_not_of("0123456789") == std::string::npos)
      return connect_tcp(target.substr(0, colon), std::stoi(port_str));
  }
  return connect_unix(target);
}

Client::Client(Client&& other) noexcept : fd_(other.fd_) { other.fd_ = -1; }

Client::~Client() {
  if (fd_ >= 0) ::close(fd_);
}

Frame Client::roundtrip(Op op, const mpi::Bytes& body) {
  write_frame(fd_, op, body);
  Frame reply;
  if (!read_frame(fd_, reply))
    throw ServeError("connection closed by server");
  if (reply.op == Op::kErr) {
    mpi::Unpacker u(reply.body, mpi::Unpacker::Source::kWire);
    throw ServeError(u.get_string());
  }
  return reply;
}

std::string Client::submit(const JobRequest& request) {
  mpi::Packer p;
  pack_request(p, request);
  const Frame reply = roundtrip(Op::kSubmit, p.take());
  mpi::Unpacker u(reply.body, mpi::Unpacker::Source::kWire);
  return u.get_string();
}

JobStatus Client::status(const std::string& id) {
  mpi::Packer p;
  p.put_string(id);
  const Frame reply = roundtrip(Op::kStatus, p.take());
  mpi::Unpacker u(reply.body, mpi::Unpacker::Source::kWire);
  return unpack_status(u);
}

JobResult Client::result(const std::string& id) {
  mpi::Packer p;
  p.put_string(id);
  const Frame reply = roundtrip(Op::kResult, p.take());
  mpi::Unpacker u(reply.body, mpi::Unpacker::Source::kWire);
  return unpack_result(u);
}

void Client::cancel(const std::string& id) {
  mpi::Packer p;
  p.put_string(id);
  roundtrip(Op::kCancel, p.take());
}

std::vector<JobStatus> Client::list() {
  const Frame reply = roundtrip(Op::kList, {});
  mpi::Unpacker u(reply.body, mpi::Unpacker::Source::kWire);
  const auto n = u.get<std::uint32_t>();
  std::vector<JobStatus> out;  // no reserve(n): n is off the wire
  for (std::uint32_t i = 0; i < n; ++i) out.push_back(unpack_status(u));
  return out;
}

void Client::shutdown_server() { roundtrip(Op::kShutdown, {}); }

std::string Client::metrics() {
  const Frame reply = roundtrip(Op::kMetrics, {});
  mpi::Unpacker u(reply.body, mpi::Unpacker::Source::kWire);
  return u.get_string();
}

JobStatus Client::stream(
    const std::string& id,
    const std::function<void(const JobStatus&)>& on_event) {
  mpi::Packer p;
  p.put_string(id);
  write_frame(fd_, Op::kStream, p.take());
  for (;;) {
    Frame frame;
    if (!read_frame(fd_, frame))
      throw ServeError("connection closed mid-stream");
    mpi::Unpacker u(frame.body, mpi::Unpacker::Source::kWire);
    if (frame.op == Op::kErr) throw ServeError(u.get_string());
    const JobStatus s = unpack_status(u);
    if (frame.op == Op::kOk) return s;
    if (on_event) on_event(s);
  }
}

}  // namespace raxh::serve
