// The socket layer of raxhd: framing over unix-domain and loopback TCP,
// SUBMIT/STATUS/STREAM/RESULT/LIST/CANCEL/SHUTDOWN round-trips through a
// live Server, protocol-corruption handling (a garbage frame gets an ERR
// and a closed connection, not a wedged daemon), and shutdown draining.
#include <gtest/gtest.h>

#include <netinet/in.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "bio/io.h"
#include "bio/seqsim.h"
#include "obs/obs.h"
#include "serve/client.h"
#include "serve/proto.h"
#include "serve/server.h"

namespace raxh {
namespace {

std::string phylip_text(std::uint64_t seed) {
  SimConfig cfg;
  cfg.taxa = 8;
  cfg.distinct_sites = 90;
  cfg.total_sites = 120;
  cfg.seed = seed;
  std::ostringstream out;
  write_phylip(out, simulate_alignment(cfg).alignment);
  return out.str();
}

serve::JobRequest small_request(std::string alignment, std::string name) {
  serve::JobRequest r;
  r.alignment = std::move(alignment);
  r.name = std::move(name);
  r.bootstraps = 6;
  r.fast_rounds = 1;
  r.slow_rounds = 1;
  r.thorough_rounds = 2;
  return r;
}

// A Server on a fresh socket path in the temp dir; the drainer thread
// unblocks run_until_shutdown so the test body can use the client API
// synchronously and just join at the end.
struct DaemonFixture {
  explicit DaemonFixture(int tcp_port = 0, int metrics_port = 0) {
    socket_path = (std::filesystem::temp_directory_path() /
                   ("raxhd_test_" + std::to_string(::getpid()) + "_" +
                    std::to_string(counter++) + ".sock"))
                      .string();
    serve::ServerOptions options;
    options.socket_path = socket_path;
    options.tcp_port = tcp_port;
    options.metrics_http_port = metrics_port;
    options.stream_interval_ms = 20;
    options.service.max_concurrent_jobs = 2;
    server = std::make_unique<serve::Server>(options);
    server->start();
    drainer = std::thread([this] { server->run_until_shutdown(); });
  }

  ~DaemonFixture() {
    server->request_shutdown();
    drainer.join();
    server.reset();
  }

  static int counter;
  std::string socket_path;
  std::unique_ptr<serve::Server> server;
  std::thread drainer;
};

int DaemonFixture::counter = 0;

TEST(ServeDaemon, EndToEndOverUnixSocket) {
  DaemonFixture daemon;
  serve::Client client = serve::Client::connect_unix(daemon.socket_path);

  const std::string id = client.submit(small_request(phylip_text(1), "e2e"));
  EXPECT_FALSE(id.empty());

  // STREAM delivers progress events, then the terminal status as the
  // closing OK frame.
  int events = 0;
  const serve::JobStatus final_status =
      client.stream(id, [&](const serve::JobStatus& s) {
        EXPECT_EQ(s.id, id);
        EXPECT_FALSE(serve::is_terminal(s.state));
        ++events;
      });
  EXPECT_GE(events, 1);
  EXPECT_EQ(final_status.state, serve::JobState::kDone);
  EXPECT_EQ(final_status.fraction, 1.0);

  const serve::JobResult result = client.result(id);
  EXPECT_FALSE(result.best_tree_newick.empty());
  EXPECT_FALSE(result.support_tree_newick.empty());
  EXPECT_EQ(result.total_bootstrap_trees, 6);
  EXPECT_LT(result.best_lnl, 0.0);

  const auto all = client.list();
  ASSERT_EQ(all.size(), 1u);
  EXPECT_EQ(all[0].id, id);

  // Errors travel back as ServeError, connection intact afterwards.
  EXPECT_THROW(client.status("nope"), serve::ServeError);
  EXPECT_EQ(client.status(id).state, serve::JobState::kDone);
}

TEST(ServeDaemon, EphemeralTcpListener) {
  DaemonFixture daemon(/*tcp_port=*/-1);
  ASSERT_GT(daemon.server->bound_tcp_port(), 0);
  serve::Client client = serve::Client::connect(
      "127.0.0.1:" + std::to_string(daemon.server->bound_tcp_port()));
  const std::string id = client.submit(small_request(phylip_text(2), "tcp"));
  const serve::JobStatus final_status = client.stream(id, {});
  EXPECT_EQ(final_status.state, serve::JobState::kDone);
}

TEST(ServeDaemon, CancelOverSocket) {
  DaemonFixture daemon;
  serve::Client client = serve::Client::connect_unix(daemon.socket_path);
  serve::JobRequest r = small_request(phylip_text(3), "doomed");
  r.bootstraps = 60;
  const std::string id = client.submit(r);
  client.cancel(id);
  const serve::JobStatus final_status = client.stream(id, {});
  EXPECT_EQ(final_status.state, serve::JobState::kCancelled);
  EXPECT_THROW(client.result(id), serve::ServeError);
}

TEST(ServeDaemon, GarbageFrameGetsErrAndClose) {
  DaemonFixture daemon;
  // Hand-rolled connection so we can violate the protocol.
  const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  ASSERT_GE(fd, 0);
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  std::strncpy(addr.sun_path, daemon.socket_path.c_str(),
               sizeof(addr.sun_path) - 1);
  ASSERT_EQ(::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)),
            0);

  // A length prefix far beyond kMaxFrameBytes: the server must answer with
  // an ERR frame and drop the connection instead of trying to allocate it.
  const std::uint8_t poison[4] = {0xff, 0xff, 0xff, 0xff};
  ASSERT_EQ(::write(fd, poison, sizeof(poison)), 4);
  serve::Frame reply;
  ASSERT_TRUE(serve::read_frame(fd, reply));
  EXPECT_EQ(reply.op, serve::Op::kErr);
  EXPECT_FALSE(serve::read_frame(fd, reply));  // server closed its end
  ::close(fd);

  // The daemon survived the bad client: a well-formed connection still works.
  serve::Client client = serve::Client::connect_unix(daemon.socket_path);
  EXPECT_TRUE(client.list().empty());
}

TEST(ServeDaemon, TruncatedBodiesGetErrAndTheDaemonKeepsServing) {
  DaemonFixture daemon;
  const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  ASSERT_GE(fd, 0);
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  std::strncpy(addr.sun_path, daemon.socket_path.c_str(),
               sizeof(addr.sun_path) - 1);
  ASSERT_EQ(::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)),
            0);

  // Well-framed requests whose bodies end early: a 3-byte STATUS body (not
  // even a whole length prefix), a STATUS id claiming 2^33 bytes, and a
  // SUBMIT cut off mid-alignment. Each gets ERR on the same connection.
  mpi::Packer huge;
  huge.put(std::uint64_t{1} << 33);
  huge.put(std::uint8_t{'x'});
  serve::JobRequest request;
  request.alignment = "4 8\nt1 ACGTACGT\n";
  mpi::Packer submit;
  serve::pack_request(submit, request);
  mpi::Bytes cut = submit.take();
  cut.resize(cut.size() - 5);
  const std::pair<serve::Op, mpi::Bytes> hostile[] = {
      {serve::Op::kStatus, mpi::Bytes{1, 2, 3}},
      {serve::Op::kStatus, huge.take()},
      {serve::Op::kSubmit, cut},
  };
  for (const auto& [op, body] : hostile) {
    serve::write_frame(fd, op, body);
    serve::Frame reply;
    ASSERT_TRUE(serve::read_frame(fd, reply));
    EXPECT_EQ(reply.op, serve::Op::kErr);
  }
  ::close(fd);

  serve::Client client = serve::Client::connect_unix(daemon.socket_path);
  EXPECT_TRUE(client.list().empty());
}

TEST(ServeDaemon, UnknownOpcodeIsAnError) {
  DaemonFixture daemon;
  serve::Client client = serve::Client::connect_unix(daemon.socket_path);
  // LIST with a stray opcode value through the raw framing layer.
  const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  ASSERT_GE(fd, 0);
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  std::strncpy(addr.sun_path, daemon.socket_path.c_str(),
               sizeof(addr.sun_path) - 1);
  ASSERT_EQ(::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)),
            0);
  serve::write_frame(fd, static_cast<serve::Op>(42), {});
  serve::Frame reply;
  ASSERT_TRUE(serve::read_frame(fd, reply));
  EXPECT_EQ(reply.op, serve::Op::kErr);
  ::close(fd);
}

// First sample value of `family` in a Prometheus exposition (exact-name or
// labeled-series prefix match); -1.0 when absent.
double metric_value(const std::string& text, const std::string& prefix) {
  std::istringstream in(text);
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') continue;
    if (line.compare(0, prefix.size(), prefix) != 0) continue;
    const char next = line.size() > prefix.size() ? line[prefix.size()] : ' ';
    if (next != ' ' && next != '{') continue;
    const auto space = line.rfind(' ');
    return std::strtod(line.c_str() + space + 1, nullptr);
  }
  return -1.0;
}

TEST(ServeDaemon, MetricsOpRoundTripAndMonotonicity) {
  obs::reset();
  obs::set_enabled(true);
  DaemonFixture daemon;
  serve::Client client = serve::Client::connect_unix(daemon.socket_path);

  const std::string first = client.metrics();
  // Exposition-format skeleton: HELP then TYPE for every family we rely on.
  for (const char* family :
       {"raxhd_up", "raxhd_jobs_submitted_total", "raxhd_queue_depth",
        "raxhd_slot_utilization", "raxhd_cache_hits_total",
        "raxhd_frames_total", "raxhd_events_total",
        "raxhd_admission_seconds", "raxhd_queue_wait_seconds",
        "raxhd_exec_seconds"}) {
    EXPECT_NE(first.find(std::string("# HELP ") + family), std::string::npos)
        << family;
    EXPECT_NE(first.find(std::string("# TYPE ") + family), std::string::npos)
        << family;
  }
  EXPECT_EQ(metric_value(first, "raxhd_up"), 1.0);
  EXPECT_EQ(metric_value(first, "raxhd_jobs_submitted_total"), 0.0);

  const std::string id =
      client.submit(small_request(phylip_text(5), "scraped"));
  const serve::JobStatus final_status = client.stream(id, {});
  ASSERT_EQ(final_status.state, serve::JobState::kDone);

  const std::string second = client.metrics();
  const std::string third = client.metrics();
  EXPECT_EQ(metric_value(second, "raxhd_jobs_submitted_total"), 1.0);
  EXPECT_EQ(metric_value(second, "raxhd_jobs_finished_total{state=\"done\"}"),
            1.0);
  EXPECT_GT(metric_value(second, "raxhd_exec_seconds_count"), 0.0);
  // Counters are monotone between scrapes, and the scrape itself counts.
  const std::string scrape_frames = "raxhd_frames_total{op=\"metrics\"}";
  EXPECT_GE(metric_value(third, scrape_frames),
            metric_value(second, scrape_frames) + 1.0);
  for (const char* counter_family :
       {"raxhd_jobs_submitted_total", "raxhd_cache_misses_total",
        "raxhd_frames_total{op=\"submit\"}"}) {
    EXPECT_GE(metric_value(third, counter_family),
              metric_value(second, counter_family))
        << counter_family;
    EXPECT_GE(metric_value(second, counter_family),
              metric_value(first, counter_family))
        << counter_family;
  }
  obs::set_enabled(false);
  obs::reset();
}

TEST(ServeDaemon, TenantTravelsTheWireAndReachesMetrics) {
  obs::reset();
  obs::set_enabled(true);
  DaemonFixture daemon;
  serve::Client client = serve::Client::connect_unix(daemon.socket_path);
  serve::JobRequest r = small_request(phylip_text(6), "tagged");
  r.tenant = "team-x";
  const std::string id = client.submit(r);
  EXPECT_EQ(client.status(id).tenant, "team-x");
  const serve::JobStatus final_status = client.stream(id, {});
  EXPECT_EQ(final_status.tenant, "team-x");
  const std::string scrape = client.metrics();
  EXPECT_EQ(metric_value(scrape, "raxhd_tenant_jobs_total{tenant=\"team-x\"}"),
            1.0);
  EXPECT_GT(
      metric_value(scrape, "raxhd_tenant_events_total{tenant=\"team-x\"}"),
      0.0);
  obs::set_enabled(false);
  obs::reset();
}

TEST(ServeDaemon, HttpListenerServesMetricsOnLoopback) {
  DaemonFixture daemon(/*tcp_port=*/0, /*metrics_port=*/-1);
  const int port = daemon.server->bound_metrics_port();
  ASSERT_GT(port, 0);

  const auto http_get = [port](const std::string& target) {
    const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    EXPECT_GE(fd, 0);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    addr.sin_port = htons(static_cast<std::uint16_t>(port));
    EXPECT_EQ(
        ::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)),
        0);
    const std::string request = "GET " + target + " HTTP/1.0\r\n\r\n";
    EXPECT_EQ(::write(fd, request.data(), request.size()),
              static_cast<ssize_t>(request.size()));
    std::string reply;
    char buf[4096];
    for (;;) {
      const ssize_t r = ::read(fd, buf, sizeof(buf));
      if (r <= 0) break;
      reply.append(buf, static_cast<std::size_t>(r));
    }
    ::close(fd);
    return reply;
  };

  const std::string ok = http_get("/metrics");
  EXPECT_NE(ok.find("200 OK"), std::string::npos);
  EXPECT_NE(ok.find("text/plain; version=0.0.4"), std::string::npos);
  EXPECT_NE(ok.find("raxhd_up 1"), std::string::npos);
  EXPECT_NE(ok.find("# TYPE raxhd_jobs_running gauge"), std::string::npos);

  const std::string missing = http_get("/nope");
  EXPECT_NE(missing.find("404"), std::string::npos);
}

TEST(ServeDaemon, ShutdownViaProtocolDrainsAndUnlinks) {
  auto daemon = std::make_unique<DaemonFixture>();
  const std::string socket_path = daemon->socket_path;
  {
    serve::Client client = serve::Client::connect_unix(socket_path);
    serve::JobRequest r = small_request(phylip_text(4), "drained");
    r.bootstraps = 60;
    client.submit(r);
    client.shutdown_server();  // OK reply, then the daemon begins draining
  }
  daemon.reset();  // joins run_until_shutdown: cancels the job, closes all
  EXPECT_FALSE(std::filesystem::exists(socket_path));
}

}  // namespace
}  // namespace raxh
