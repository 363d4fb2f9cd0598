#include "serve/server.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <filesystem>
#include <stdexcept>

#include "util/check.h"
#include "util/log.h"

namespace raxh::serve {

namespace {

[[noreturn]] void sys_error(const std::string& what) {
  throw std::runtime_error(what + ": " + std::strerror(errno));
}

void send_err(int fd, const std::string& message) {
  mpi::Packer p;
  p.put_string(message);
  write_frame(fd, Op::kErr, p.take());
}

}  // namespace

Server::Server(ServerOptions options) : options_(std::move(options)) {
  RAXH_EXPECTS(!options_.socket_path.empty());
  service_ = std::make_unique<ServiceCore>(options_.service);
}

Server::~Server() {
  request_shutdown();
  run_until_shutdown();
}

void Server::start() {
  RAXH_EXPECTS(!started_);
  started_ = true;

  // Unix-domain listener. A stale socket file from a dead daemon would make
  // bind fail; unlink first (a live daemon on the path loses its listener
  // only if the operator points two daemons at one path — their mistake).
  {
    std::error_code ec;
    if (std::filesystem::symlink_status(options_.socket_path, ec).type() !=
            std::filesystem::file_type::not_found &&
        !ec)
      log_warn("removing stale socket %s", options_.socket_path.c_str());
    ::unlink(options_.socket_path.c_str());
    const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
    if (fd < 0) sys_error("socket(AF_UNIX)");
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    if (options_.socket_path.size() >= sizeof(addr.sun_path))
      throw std::runtime_error("socket path too long: " + options_.socket_path);
    std::strncpy(addr.sun_path, options_.socket_path.c_str(),
                 sizeof(addr.sun_path) - 1);
    if (::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) < 0)
      sys_error("bind(" + options_.socket_path + ")");
    if (::listen(fd, 64) < 0) sys_error("listen");
    listen_fds_.push_back(fd);
  }

  if (options_.tcp_port != 0) {
    const int port = options_.tcp_port < 0 ? 0 : options_.tcp_port;
    const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd < 0) sys_error("socket(AF_INET)");
    const int one = 1;
    ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);  // loopback only
    addr.sin_port = htons(static_cast<std::uint16_t>(port));
    if (::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) < 0)
      sys_error("bind(tcp " + std::to_string(options_.tcp_port) + ")");
    if (::listen(fd, 64) < 0) sys_error("listen(tcp)");
    sockaddr_in bound{};
    socklen_t len = sizeof(bound);
    ::getsockname(fd, reinterpret_cast<sockaddr*>(&bound), &len);
    bound_tcp_port_ = ntohs(bound.sin_port);
    listen_fds_.push_back(fd);
  }

  if (options_.metrics_http_port != 0) {
    const int port =
        options_.metrics_http_port < 0 ? 0 : options_.metrics_http_port;
    metrics_http_ =
        std::make_unique<MetricsHttpListener>(service_.get(), &frames_, port);
    log_info("metrics on http://127.0.0.1:%d/metrics", metrics_http_->port());
  }

  for (const int fd : listen_fds_)
    accept_threads_.emplace_back([this, fd] { accept_loop(fd); });
  log_info("raxhd listening on %s%s", options_.socket_path.c_str(),
           bound_tcp_port_ != 0
               ? (" and tcp:" + std::to_string(bound_tcp_port_)).c_str()
               : "");
}

void Server::run_until_shutdown() {
  if (!started_) return;
  // The SHUTDOWN op and signal handlers both land on this atomic; 100 ms
  // polling is plenty for an operator-facing daemon.
  while (!shutdown_requested_.load())
    std::this_thread::sleep_for(std::chrono::milliseconds(100));

  if (stopping_.exchange(true)) return;  // a second caller: already drained
  log_info("raxhd shutting down");
  if (metrics_http_) metrics_http_->stop();
  // Wake the accept loops and connection handlers by closing their fds,
  // then join everything. shutdown(2) before close so blocked reads return.
  for (const int fd : listen_fds_) {
    ::shutdown(fd, SHUT_RDWR);
    ::close(fd);
  }
  {
    std::lock_guard<std::mutex> lock(conn_mu_);
    for (const int fd : conn_fds_) ::shutdown(fd, SHUT_RDWR);
  }
  for (auto& t : accept_threads_) t.join();
  std::vector<std::thread> conns;
  {
    std::lock_guard<std::mutex> lock(conn_mu_);
    conns.swap(conn_threads_);
  }
  for (auto& t : conns) t.join();
  service_->shutdown();
  ::unlink(options_.socket_path.c_str());
  started_ = false;
}

void Server::accept_loop(int listen_fd) {
  for (;;) {
    const int fd = ::accept(listen_fd, nullptr, nullptr);
    if (fd < 0) {
      if (errno == EINTR) continue;
      return;  // listener closed: shutdown
    }
    std::lock_guard<std::mutex> lock(conn_mu_);
    if (stopping_.load()) {
      ::close(fd);
      return;
    }
    conn_fds_.push_back(fd);
    conn_threads_.emplace_back([this, fd] { handle_connection(fd); });
  }
}

void Server::handle_connection(int fd) {
  try {
    Frame frame;
    while (read_frame(fd, frame)) handle_frame(fd, frame);
  } catch (const std::exception& e) {
    // Protocol corruption or a vanished peer: answer if the pipe still
    // works, then drop the connection either way.
    try {
      send_err(fd, e.what());
    } catch (...) {
    }
  }
  ::close(fd);
}

// GCC 12 misfires -Wstringop-overflow on std::vector's range insert when
// Packer::put<std::uint32_t> is inlined into the kList branch (upstream
// PR 105329-family false positive: the 4-byte stack source is live and the
// destination grows first). Scoped off for this function only.
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wstringop-overflow"
#endif
void Server::handle_frame(int fd, const Frame& frame) {
  frames_.bump(frame.op);
  try {
    mpi::Unpacker u(frame.body, mpi::Unpacker::Source::kWire);
    switch (frame.op) {
      case Op::kSubmit: {
        const JobRequest request = unpack_request(u);
        const std::string id = service_->submit(request);
        mpi::Packer p;
        p.put_string(id);
        write_frame(fd, Op::kOk, p.take());
        return;
      }
      case Op::kStatus: {
        const JobStatus s = service_->status(u.get_string());
        mpi::Packer p;
        pack_status(p, s);
        write_frame(fd, Op::kOk, p.take());
        return;
      }
      case Op::kStream:
        stream_job(fd, u.get_string());
        return;
      case Op::kResult: {
        const std::string id = u.get_string();
        const JobStatus s = service_->status(id);
        const auto r = service_->result(id);
        if (!r) {
          send_err(fd, "job " + id + " has no result (state: " +
                           job_state_name(s.state) + ")");
          return;
        }
        mpi::Packer p;
        pack_result(p, *r);
        write_frame(fd, Op::kOk, p.take());
        return;
      }
      case Op::kCancel: {
        service_->cancel(u.get_string());
        write_frame(fd, Op::kOk, {});
        return;
      }
      case Op::kList: {
        const auto statuses = service_->list();
        mpi::Packer p;
        p.put<std::uint32_t>(static_cast<std::uint32_t>(statuses.size()));
        for (const auto& s : statuses) pack_status(p, s);
        write_frame(fd, Op::kOk, p.take());
        return;
      }
      case Op::kShutdown:
        write_frame(fd, Op::kOk, {});
        request_shutdown();
        return;
      case Op::kMetrics: {
        mpi::Packer p;
        p.put_string(render_metrics(*service_, &frames_));
        write_frame(fd, Op::kOk, p.take());
        return;
      }
      default:
        send_err(fd, "unknown opcode " +
                         std::to_string(static_cast<int>(frame.op)));
        return;
    }
  } catch (const std::exception& e) {
    send_err(fd, e.what());
  }
}
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic pop
#endif

void Server::stream_job(int fd, const std::string& id) {
  // EVENT frames at the configured cadence until the job is terminal, then
  // one final OK with the terminal status. The poll interval doubles as the
  // terminal-wait timeout so a finished job streams its final frame at once.
  for (;;) {
    const JobStatus s = service_->status(id);  // throws on unknown id
    if (is_terminal(s.state)) {
      mpi::Packer p;
      pack_status(p, s);
      write_frame(fd, Op::kOk, p.take());
      return;
    }
    mpi::Packer p;
    pack_status(p, s);
    write_frame(fd, Op::kEvent, p.take());
    if (stopping_.load() || shutdown_requested_.load()) {
      send_err(fd, "server shutting down");
      return;
    }
    service_->wait(id, options_.stream_interval_ms);
  }
}

}  // namespace raxh::serve
