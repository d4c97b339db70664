#include "serve/server.hpp"

#include "serve/protocol.hpp"
#include "util/logging.hpp"
#include "util/metrics.hpp"

#include <arpa/inet.h>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <fcntl.h>
#include <memory>
#include <mutex>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <string>
#include <sys/socket.h>
#include <unistd.h>
#include <vector>

namespace cgps::serve {

namespace {

// One read(2) pulls up to this many bytes of pipelined frames. It is also
// the backpressure bound: the loop stops reading a connection while more than
// one read's worth of its replies is unsent, so a client that never reads
// holds about two reads of replies plus its queued requests.
constexpr std::size_t kReadBytes = std::size_t{64} * 1024;

// How long stop() keeps sending what connections are still owed before it
// closes them anyway (a peer that never reads would hold it forever).
constexpr std::chrono::milliseconds kStopFlush{1000};

// Replies waiting for the loop to send them. The response callbacks share
// it, so it outlives its connection, and the server, while the core drains
// after stop().
struct Outbox {
  std::mutex mu;
  std::vector<std::uint8_t> bytes;

  void put(const std::vector<std::uint8_t>& payload) {
    const std::lock_guard<std::mutex> lock(mu);
    append_frame(bytes, payload);
  }
};

// Loop-thread state of one client; only `outbox` is shared.
struct Connection {
  int fd = -1;
  std::shared_ptr<Outbox> outbox = std::make_shared<Outbox>();
  std::vector<std::uint8_t> in;   // received, not yet parsed
  std::vector<std::uint8_t> out;  // taken from the outbox, not yet sent
};

void close_fd(int fd) {
  if (fd >= 0) ::close(fd);
}

// One read, then every complete frame is answered or submitted. False once
// the connection must close: end of file, a read error, or a corrupt stream,
// which gets one kError frame as the last frame it is sent (the stream
// offset can no longer be trusted).
bool receive(ServeCore& core, Connection& c) {
  std::uint8_t chunk[kReadBytes];
  const ssize_t got = ::read(c.fd, chunk, sizeof(chunk));
  if (got < 0) return errno == EAGAIN || errno == EINTR;
  if (got == 0) return false;
  c.in.insert(c.in.end(), chunk, chunk + got);
  std::vector<std::uint8_t> payload;
  std::size_t pos = 0;
  bool open = true;
  while (open) {
    const FrameScan scan = scan_frame(c.in, pos, payload);
    if (scan == FrameScan::kNeedMore) break;
    const std::optional<Request> request =
        scan == FrameScan::kFrame ? decode_request(payload) : std::nullopt;
    if (!request.has_value()) {
      Response err;
      err.status = Status::kError;
      c.outbox->put(encode_response(err));
      open = false;
    } else if (request->task == TaskKind::kStats) {
      // Live introspection: answered here with the JSON stats frame, never
      // admitted to the batch queue (mirrors kInfo). Assembly reads only
      // atomics, so polling cannot perturb in-flight batches.
      metric_counter("serve.stats_requests").add(1);
      c.outbox->put(encode_stats_response(request->id, core.stats_json()));
    } else {
      // Fires here for inline answers, on the batching thread for served work.
      core.submit(*request, [outbox = c.outbox](const Response& response) {
        outbox->put(encode_response(response));
      });
    }
  }
  c.in.erase(c.in.begin(), c.in.begin() + static_cast<std::ptrdiff_t>(pos));
  return open;
}

// Queue the finished replies behind the bytes not yet sent.
void take_outbox(Connection& c) {
  const std::lock_guard<std::mutex> lock(c.outbox->mu);
  c.out.insert(c.out.end(), c.outbox->bytes.begin(), c.outbox->bytes.end());
  c.outbox->bytes.clear();
}

// One non-blocking send. False when the peer went away.
bool send_some(Connection& c) {
  const ssize_t sent = ::send(c.fd, c.out.data(), c.out.size(), MSG_DONTWAIT | MSG_NOSIGNAL);
  if (sent < 0) return errno == EAGAIN || errno == EINTR;
  c.out.erase(c.out.begin(), c.out.begin() + sent);
  return true;
}

}  // namespace

ServeServer::ServeServer(ServeCore& core, int port)
    : core_(core), requested_port_(port) {}

ServeServer::~ServeServer() { stop(); }

bool ServeServer::start() {
  const auto fail = [this](const std::string& what) {
    log_error("cgps_serve: ", what, " failed: ", std::strerror(errno));
    close_fd(listen_fd_);
    listen_fd_ = -1;
    return false;
  };
  listen_fd_ = ::socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC, 0);
  if (listen_fd_ < 0) return fail("socket()");
  const int one = 1;
  ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(static_cast<std::uint16_t>(requested_port_));
  if (::bind(listen_fd_, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) < 0)
    return fail("bind(127.0.0.1:" + std::to_string(requested_port_) + ")");
  if (::listen(listen_fd_, 64) < 0) return fail("listen()");
  if (::pipe2(wake_, O_NONBLOCK | O_CLOEXEC) < 0) return fail("pipe2()");
  sockaddr_in bound{};
  socklen_t len = sizeof(bound);
  if (::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&bound), &len) == 0)
    port_ = static_cast<int>(ntohs(bound.sin_port));
  // Touch the gauge so stats snapshots report 0 before the first accept.
  metric_gauge("serve.active_connections").set(0.0);
  // One wake per batching cycle: the loop then sends each connection that
  // cycle's replies with one send(2). A full pipe already holds a wake, so a
  // failed write loses nothing.
  core_.set_cycle_hook([fd = wake_[1]] {
    const std::uint8_t byte = 1;
    [[maybe_unused]] const ssize_t n = ::write(fd, &byte, 1);
  });
  thread_ = std::thread([this] { loop(); });
  return true;
}

void ServeServer::stop() {
  // set_cycle_hook returns only once no hook is running, so no wake can
  // reach wake_[1] after it is closed.
  core_.set_cycle_hook({});
  close_fd(wake_[1]);
  wake_[1] = -1;
  if (thread_.joinable()) thread_.join();
  close_fd(wake_[0]);
  close_fd(listen_fd_);
  wake_[0] = listen_fd_ = -1;
}

void ServeServer::loop() {
  Gauge& active = metric_gauge("serve.active_connections");
  std::vector<Connection> conns;
  std::vector<pollfd> fds;
  for (;;) {
    fds.assign({{wake_[0], POLLIN, 0}, {listen_fd_, POLLIN, 0}});
    for (const Connection& c : conns) {
      const int events = (c.out.size() <= kReadBytes ? POLLIN : 0) | (c.out.empty() ? 0 : POLLOUT);
      fds.push_back({c.fd, static_cast<short>(events), 0});
    }
    if (::poll(fds.data(), fds.size(), -1) < 0) {
      if (errno == EINTR) continue;
      log_error("cgps_serve: poll() failed: ", std::strerror(errno));
      break;
    }
    if (fds[0].revents != 0) {
      std::uint8_t wakes[64];
      if (::read(wake_[0], wakes, sizeof(wakes)) == 0) break;  // stop()
    }
    for (std::size_t i = 0; i < conns.size(); ++i) {
      Connection& c = conns[i];
      const pollfd& p = fds[i + 2];
      bool open = (p.revents & (POLLIN | POLLHUP | POLLERR)) == 0 || receive(core_, c);
      take_outbox(c);
      // On end of file this is the one try at the pending replies. A socket
      // that polled unwritable is skipped until it drains.
      const bool full = (p.events & POLLOUT) != 0 && (p.revents & POLLOUT) == 0;
      if (!c.out.empty() && !full) open = send_some(c) && open;
      if (!open) {
        close_fd(c.fd);
        c.fd = -1;
      }
    }
    std::erase_if(conns, [](const Connection& c) { return c.fd < 0; });
    if ((fds[1].revents & POLLIN) != 0) {
      const int fd = ::accept4(listen_fd_, nullptr, nullptr, SOCK_NONBLOCK | SOCK_CLOEXEC);
      if (fd >= 0) {
        const int one = 1;
        ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
        conns.emplace_back().fd = fd;
        metric_counter("serve.connections").add(1);
      }
    }
    active.set(static_cast<double>(conns.size()));
  }

  // stop(): read nothing more, send each connection what it is still owed,
  // and close it once that is sent, its peer is gone, or kStopFlush passes.
  const auto until = std::chrono::steady_clock::now() + kStopFlush;
  for (Connection& c : conns) take_outbox(c);
  for (;;) {
    std::erase_if(conns, [](const Connection& c) {
      if (!c.out.empty()) return false;
      close_fd(c.fd);
      return true;
    });
    const auto left = std::chrono::duration_cast<std::chrono::milliseconds>(
        until - std::chrono::steady_clock::now());
    if (conns.empty() || left.count() <= 0) break;
    fds.clear();
    for (const Connection& c : conns) fds.push_back({c.fd, POLLOUT, 0});
    if (::poll(fds.data(), fds.size(), static_cast<int>(left.count())) < 0) {
      if (errno == EINTR) continue;
      break;
    }
    for (std::size_t i = 0; i < conns.size(); ++i) {
      if (fds[i].revents == 0) continue;
      if ((fds[i].revents & POLLOUT) == 0 || !send_some(conns[i])) conns[i].out.clear();
    }
  }
  for (const Connection& c : conns) close_fd(c.fd);
  active.set(0.0);
}

}  // namespace cgps::serve
