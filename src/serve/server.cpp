#include "serve/server.hpp"

#include "serve/protocol.hpp"
#include "util/logging.hpp"
#include "util/metrics.hpp"

#include <arpa/inet.h>
#include <csignal>
#include <cstring>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

namespace cgps::serve {

namespace {

void close_fd(int fd) {
  if (fd >= 0) ::close(fd);
}

// A peer that disappears mid-write must not SIGPIPE the daemon; EPIPE from
// write() is handled per connection instead. Installed once.
void ignore_sigpipe() {
  static const int installed = [] {
    std::signal(SIGPIPE, SIG_IGN);
    return 0;
  }();
  (void)installed;
}

}  // namespace

ServeServer::ServeServer(ServeCore& core, int port)
    : core_(core), requested_port_(port) {}

ServeServer::~ServeServer() { stop(); }

bool ServeServer::start() {
  ignore_sigpipe();
  listen_fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  if (listen_fd_ < 0) {
    log_error("cgps_serve: socket() failed: ", std::strerror(errno));
    return false;
  }
  const int one = 1;
  ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(static_cast<std::uint16_t>(requested_port_));
  if (::bind(listen_fd_, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) < 0) {
    log_error("cgps_serve: bind(127.0.0.1:", requested_port_,
              ") failed: ", std::strerror(errno));
    close_fd(listen_fd_);
    listen_fd_ = -1;
    return false;
  }
  if (::listen(listen_fd_, 64) < 0) {
    log_error("cgps_serve: listen() failed: ", std::strerror(errno));
    close_fd(listen_fd_);
    listen_fd_ = -1;
    return false;
  }
  sockaddr_in bound{};
  socklen_t len = sizeof(bound);
  if (::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&bound), &len) == 0)
    port_ = static_cast<int>(ntohs(bound.sin_port));
  // Touch the gauge so stats snapshots report 0 before the first accept.
  metric_gauge("serve.active_connections").set(static_cast<double>(active_conns_.load()));
  // One write(2) per connection per batching cycle instead of one per
  // response: responses buffer in Connection::out_buf until this fires.
  core_.set_cycle_hook([this] { flush_all(); });
  accept_thread_ = std::thread([this] { accept_loop(); });
  return true;
}

void ServeServer::flush_connection(Connection& conn) {
  std::lock_guard<std::mutex> lock(conn.write_mu);
  if (conn.out_buf.empty() || !conn.open.load()) return;
  if (!write_all_bytes(conn.fd, conn.out_buf.data(), conn.out_buf.size()))
    conn.open.store(false);
  conn.out_buf.clear();
}

void ServeServer::flush_all() {
  std::lock_guard<std::mutex> lock(conns_mu_);
  for (const auto& conn : conns_) flush_connection(*conn);
}

void ServeServer::stop() {
  if (stopping_.exchange(true)) {
    if (accept_thread_.joinable()) accept_thread_.join();
    return;
  }
  // The hook captures `this`; the core may outlive this server.
  core_.set_cycle_hook({});
  // Shutting the listener down unblocks accept(); shutting connection fds
  // unblocks their blocked read_frame calls. The listener is closed only
  // after the accept thread, which reads listen_fd_, has been joined.
  if (listen_fd_ >= 0) ::shutdown(listen_fd_, SHUT_RDWR);
  {
    std::lock_guard<std::mutex> lock(conns_mu_);
    for (const auto& conn : conns_) {
      if (conn->open.exchange(false)) ::shutdown(conn->fd, SHUT_RDWR);
    }
  }
  if (accept_thread_.joinable()) accept_thread_.join();
  close_fd(listen_fd_);
  listen_fd_ = -1;
  std::vector<std::thread> readers;
  {
    std::lock_guard<std::mutex> lock(conns_mu_);
    readers.swap(readers_);
  }
  for (std::thread& t : readers)
    if (t.joinable()) t.join();
  {
    std::lock_guard<std::mutex> lock(conns_mu_);
    for (const auto& conn : conns_) close_fd(conn->fd);
    conns_.clear();
  }
}

void ServeServer::accept_loop() {
  for (;;) {
    const int fd = ::accept(listen_fd_, nullptr, nullptr);
    if (fd < 0) {
      if (errno == EINTR) continue;
      return;  // listener shut down (stop) or fatal error
    }
    if (stopping_.load()) {
      close_fd(fd);
      return;
    }
    const int one = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    auto conn = std::make_shared<Connection>();
    conn->fd = fd;
    metric_counter("serve.connections").add(1);
    metric_gauge("serve.active_connections")
        .set(static_cast<double>(active_conns_.fetch_add(1, std::memory_order_relaxed) + 1));
    std::lock_guard<std::mutex> lock(conns_mu_);
    conns_.push_back(conn);
    readers_.emplace_back([this, conn] { reader_loop(conn); });
  }
}

void ServeServer::reader_loop(const std::shared_ptr<Connection>& conn) {
  // Buffered frame parsing: one read(2) pulls however many pipelined frames
  // the kernel has queued; scan_frame slices them out without further
  // syscalls. The compacting erase is amortized-cheap (whole prefix at once).
  std::vector<std::uint8_t> stream;
  std::vector<std::uint8_t> payload;
  std::size_t pos = 0;
  std::uint8_t chunk[64 * 1024];
  bool protocol_error = false;
  while (!protocol_error) {
    const ssize_t got = ::read(conn->fd, chunk, sizeof(chunk));
    if (got < 0) {
      if (errno == EINTR) continue;
      break;
    }
    if (got == 0) break;  // peer closed
    stream.insert(stream.end(), chunk, chunk + got);
    bool submitted = false;
    for (;;) {
      const FrameScan scan = scan_frame(stream, pos, payload);
      if (scan == FrameScan::kNeedMore) break;
      std::optional<Request> request;
      if (scan == FrameScan::kFrame) request = decode_request(payload);
      if (!request.has_value()) {
        // Corrupt length prefix or unparseable payload: answer kError and
        // drop the connection — the stream offset can no longer be trusted.
        Response err;
        err.status = Status::kError;
        {
          std::lock_guard<std::mutex> lock(conn->write_mu);
          append_frame(conn->out_buf, encode_response(err));
        }
        protocol_error = true;
        break;
      }
      if (request->task == TaskKind::kStats) {
        // Live introspection: answered inline with the JSON stats frame,
        // never admitted to the batch queue (mirrors kInfo). Assembly reads
        // only atomics, so polling cannot perturb in-flight batches.
        metric_counter("serve.stats_requests").add(1);
        const std::string stats = core_.stats_json();
        {
          std::lock_guard<std::mutex> lock(conn->write_mu);
          append_frame(conn->out_buf, encode_stats_response(request->id, stats));
        }
        submitted = true;  // inline flush below, like other admission replies
        continue;
      }
      // The callback may fire on this thread (inline rejections/kInfo) or on
      // the batching thread (served requests); the connection outlives both
      // via shared_ptr and the out_buf is serialized by write_mu. Served
      // responses are flushed at the next batch boundary (cycle hook).
      core_.submit(*request, [conn](const Response& response) {
        if (!conn->open.load()) return;
        std::lock_guard<std::mutex> lock(conn->write_mu);
        append_frame(conn->out_buf, encode_response(response));
      });
      submitted = true;
    }
    stream.erase(stream.begin(), stream.begin() + static_cast<std::ptrdiff_t>(pos));
    pos = 0;
    // Anything answered inline (kInfo, validation failures, backpressure)
    // must not wait for a batching cycle that may never come.
    if (submitted || protocol_error) flush_connection(*conn);
  }
  flush_connection(*conn);
  if (conn->open.exchange(false)) ::shutdown(conn->fd, SHUT_RDWR);
  metric_gauge("serve.active_connections")
      .set(static_cast<double>(active_conns_.fetch_sub(1, std::memory_order_relaxed) - 1));
}

}  // namespace cgps::serve
