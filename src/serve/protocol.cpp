#include "serve/protocol.hpp"

#include <cerrno>
#include <cstring>
#include <unistd.h>

namespace cgps::serve {

namespace {

// Little-endian byte-vector writers/readers. memcpy through a fixed-size
// buffer keeps this strict-aliasing-clean; the host is little-endian on
// every platform we build for, and the explicit byte order makes the wire
// format portable anyway.
template <typename T>
void put(std::vector<std::uint8_t>& out, T v) {
  const std::size_t at = out.size();
  out.resize(at + sizeof(T));
  std::memcpy(out.data() + at, &v, sizeof(T));
}

template <typename T>
bool get(const std::vector<std::uint8_t>& in, std::size_t& at, T& v) {
  if (at + sizeof(T) > in.size()) return false;
  std::memcpy(&v, in.data() + at, sizeof(T));
  at += sizeof(T);
  return true;
}

// Shared version check: any version this build can decode. Old (v1) peers
// stay accepted; unknown future versions are rejected rather than
// misinterpreted.
bool version_ok(std::uint8_t version) {
  return version >= kMinProtocolVersion && version <= kProtocolVersion;
}

}  // namespace

std::vector<std::uint8_t> encode_request(const Request& request) {
  std::vector<std::uint8_t> out;
  out.reserve(32);
  put(out, kRequestMagic);
  // Layout unchanged since v1; the v1 stamp keeps old servers answering.
  put(out, kMinProtocolVersion);
  put(out, request.id);
  put(out, request.design);
  put(out, static_cast<std::uint8_t>(request.task));
  put(out, request.node_a);
  put(out, request.node_b);
  put(out, request.deadline_us);
  return out;
}

std::vector<std::uint8_t> encode_response(const Response& response) {
  std::vector<std::uint8_t> out;
  out.reserve(34);
  put(out, kResponseMagic);
  // Layout unchanged since v1; the v1 stamp keeps old clients reading.
  put(out, kMinProtocolVersion);
  put(out, response.id);
  put(out, static_cast<std::uint8_t>(response.status));
  put(out, response.value);
  put(out, response.cap_farads);
  put(out, response.server_us);
  return out;
}

std::optional<Request> decode_request(const std::vector<std::uint8_t>& payload) {
  std::size_t at = 0;
  std::uint32_t magic = 0;
  std::uint8_t version = 0;
  Request r;
  std::uint8_t task = 0;
  if (!get(payload, at, magic) || magic != kRequestMagic) return std::nullopt;
  if (!get(payload, at, version) || !version_ok(version)) return std::nullopt;
  if (!get(payload, at, r.id) || !get(payload, at, r.design) || !get(payload, at, task) ||
      !get(payload, at, r.node_a) || !get(payload, at, r.node_b) ||
      !get(payload, at, r.deadline_us))
    return std::nullopt;
  if (task > static_cast<std::uint8_t>(TaskKind::kStats)) return std::nullopt;
  r.task = static_cast<TaskKind>(task);
  return r;
}

std::optional<Response> decode_response(const std::vector<std::uint8_t>& payload) {
  std::size_t at = 0;
  std::uint32_t magic = 0;
  std::uint8_t version = 0;
  Response r;
  std::uint8_t status = 0;
  if (!get(payload, at, magic) || magic != kResponseMagic) return std::nullopt;
  if (!get(payload, at, version) || !version_ok(version)) return std::nullopt;
  if (!get(payload, at, r.id) || !get(payload, at, status) || !get(payload, at, r.value) ||
      !get(payload, at, r.cap_farads) || !get(payload, at, r.server_us))
    return std::nullopt;
  if (status > static_cast<std::uint8_t>(Status::kError)) return std::nullopt;
  r.status = static_cast<Status>(status);
  return r;
}

std::vector<std::uint8_t> encode_stats_response(std::uint64_t id, std::string_view json) {
  std::vector<std::uint8_t> out;
  out.reserve(13 + json.size());
  put(out, kStatsMagic);
  put(out, kProtocolVersion);
  put(out, id);
  const std::size_t at = out.size();
  out.resize(at + json.size());
  std::memcpy(out.data() + at, json.data(), json.size());
  return out;
}

std::optional<StatsResponse> decode_stats_response(const std::vector<std::uint8_t>& payload) {
  std::size_t at = 0;
  std::uint32_t magic = 0;
  std::uint8_t version = 0;
  StatsResponse r;
  if (!get(payload, at, magic) || magic != kStatsMagic) return std::nullopt;
  if (!get(payload, at, version) || !version_ok(version)) return std::nullopt;
  if (!get(payload, at, r.id)) return std::nullopt;
  // Everything after the prologue is the JSON document (the frame's length
  // prefix bounds it; an empty document is not a valid snapshot).
  if (at >= payload.size()) return std::nullopt;
  r.json.assign(reinterpret_cast<const char*>(payload.data()) + at, payload.size() - at);
  return r;
}

FrameScan scan_frame(const std::vector<std::uint8_t>& buffer, std::size_t& pos,
                     std::vector<std::uint8_t>& payload, std::uint32_t max_frame_bytes) {
  if (buffer.size() - pos < 4) return FrameScan::kNeedMore;
  std::uint32_t length = 0;
  std::memcpy(&length, buffer.data() + pos, 4);
  if (length == 0 || length > max_frame_bytes) return FrameScan::kCorrupt;
  if (buffer.size() - pos < 4 + static_cast<std::size_t>(length))
    return FrameScan::kNeedMore;
  payload.assign(buffer.begin() + static_cast<std::ptrdiff_t>(pos) + 4,
                 buffer.begin() + static_cast<std::ptrdiff_t>(pos) + 4 + length);
  pos += 4 + static_cast<std::size_t>(length);
  return FrameScan::kFrame;
}

void append_frame(std::vector<std::uint8_t>& buffer,
                  const std::vector<std::uint8_t>& payload) {
  const std::size_t at = buffer.size();
  buffer.resize(at + 4 + payload.size());
  const std::uint32_t length = static_cast<std::uint32_t>(payload.size());
  std::memcpy(buffer.data() + at, &length, 4);
  std::memcpy(buffer.data() + at + 4, payload.data(), payload.size());
}

bool write_all_bytes(int fd, const std::uint8_t* data, std::size_t n) {
  std::size_t done = 0;
  while (done < n) {
    const ssize_t put_n = ::write(fd, data + done, n - done);
    if (put_n < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    done += static_cast<std::size_t>(put_n);
  }
  return true;
}

}  // namespace cgps::serve
