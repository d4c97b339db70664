#include "serve/client.hpp"

#include "serve/protocol.hpp"
#include "util/logging.hpp"

#include <arpa/inet.h>
#include <csignal>
#include <cstring>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

namespace cgps::serve {

ServeClient::~ServeClient() { close(); }

bool ServeClient::connect(const std::string& host, int port) {
  close();
  // A server that dies mid-call must surface as a failed write, not SIGPIPE.
  std::signal(SIGPIPE, SIG_IGN);
  fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd_ < 0) {
    log_error("serve client: socket() failed: ", std::strerror(errno));
    return false;
  }
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<std::uint16_t>(port));
  if (::inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1) {
    log_error("serve client: bad address '", host, "'");
    close();
    return false;
  }
  if (::connect(fd_, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) < 0) {
    log_error("serve client: connect(", host, ":", port,
              ") failed: ", std::strerror(errno));
    close();
    return false;
  }
  const int one = 1;
  ::setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  return true;
}

void ServeClient::close() {
  if (fd_ >= 0) ::close(fd_);
  fd_ = -1;
  out_buf_.clear();
  in_buf_.clear();
  in_pos_ = 0;
}

bool ServeClient::send(const Request& request) {
  enqueue(request);
  return flush();
}

void ServeClient::enqueue(const Request& request) {
  append_frame(out_buf_, encode_request(request));
}

bool ServeClient::flush() {
  if (fd_ < 0) return false;
  if (out_buf_.empty()) return true;
  const bool ok = write_all_bytes(fd_, out_buf_.data(), out_buf_.size());
  out_buf_.clear();
  if (!ok) close();
  return ok;
}

std::optional<std::vector<std::uint8_t>> ServeClient::next_payload() {
  std::vector<std::uint8_t> payload;
  while (fd_ >= 0) {
    // The client side is liberal about frame size (stats frames carry the
    // whole registry as JSON); the server keeps the tight request-sized cap.
    const FrameScan scan = scan_frame(in_buf_, in_pos_, payload, kMaxStatsFrameBytes);
    if (scan == FrameScan::kFrame) {
      // Compact lazily: only once the parsed prefix dominates the buffer.
      if (in_pos_ > 4096 && in_pos_ * 2 > in_buf_.size()) {
        in_buf_.erase(in_buf_.begin(), in_buf_.begin() + static_cast<std::ptrdiff_t>(in_pos_));
        in_pos_ = 0;
      }
      return payload;
    }
    if (scan == FrameScan::kCorrupt) break;
    std::uint8_t chunk[64 * 1024];
    const ssize_t got = ::read(fd_, chunk, sizeof(chunk));
    if (got < 0 && errno == EINTR) continue;
    if (got <= 0) break;
    in_buf_.insert(in_buf_.end(), chunk, chunk + got);
  }
  close();
  return std::nullopt;
}

std::optional<Response> ServeClient::recv() {
  const std::optional<std::vector<std::uint8_t>> payload = next_payload();
  if (!payload.has_value()) return std::nullopt;
  return decode_response(*payload);
}

std::optional<Response> ServeClient::call(const Request& request) {
  if (!send(request)) return std::nullopt;
  return recv();
}

std::optional<std::string> ServeClient::fetch_stats() {
  Request probe;
  probe.task = TaskKind::kStats;
  if (!send(probe)) return std::nullopt;
  for (;;) {
    const std::optional<std::vector<std::uint8_t>> payload = next_payload();
    if (!payload.has_value()) return std::nullopt;
    const std::optional<StatsResponse> stats = decode_stats_response(*payload);
    if (stats.has_value()) return stats->json;
    // A stray regular response (pipelining misuse) is skipped; anything
    // else is an untrustworthy stream.
    if (!decode_response(*payload).has_value()) {
      close();
      return std::nullopt;
    }
  }
}

}  // namespace cgps::serve
