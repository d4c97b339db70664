// Wire framing for cgps_serve (DESIGN.md §11): every message is one
// length-prefixed frame — a little-endian u32 payload length followed by the
// payload — so a reader never needs lookahead. Payloads are fixed-layout
// little-endian records with a magic + version prologue; encode/decode are
// pure byte-vector transforms (no sockets) so the framing is unit-testable
// and fuzzable without I/O.
//
//   request payload  (31 bytes): "CGRQ" u8:ver u64:id u16:design u8:task
//                                i32:node_a i32:node_b i64:deadline_us
//   response payload (34 bytes): "CGRS" u8:ver u64:id u8:status f32:value
//                                f64:cap_farads i64:server_us
//   stats payload  (13+n bytes): "CGST" u8:ver u64:id + n bytes of UTF-8
//                                JSON (cgps-serve-stats-v1), answering a
//                                kStats request (protocol v2)
#pragma once

#include "serve/serve.hpp"

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace cgps::serve {

inline constexpr std::uint32_t kRequestMagic = 0x51524743;   // "CGRQ"
inline constexpr std::uint32_t kResponseMagic = 0x53524743;  // "CGRS"
inline constexpr std::uint32_t kStatsMagic = 0x54534743;     // "CGST"
// v2 added the kStats task and its JSON stats frame. Decoders accept any
// version in [kMinProtocolVersion, kProtocolVersion]; encoders stamp each
// payload with the version its *layout* last changed in — requests and
// responses are byte-identical to v1 and keep the v1 stamp, so mixed-version
// fleets interoperate in both directions (a v1 peer reads a v2 server's
// responses and vice versa), while the v2-only stats frame carries v2 and is
// only ever sent to a client that asked for it.
inline constexpr std::uint8_t kProtocolVersion = 2;
inline constexpr std::uint8_t kMinProtocolVersion = 1;
// Upper bound a reader accepts for the length prefix; anything larger is a
// corrupt or hostile stream (our payloads are tens of bytes).
inline constexpr std::uint32_t kMaxFrameBytes = 4096;
// Stats frames carry the whole registry as JSON, so the client-side reader
// allows a much larger (but still bounded) frame.
inline constexpr std::uint32_t kMaxStatsFrameBytes = 1 << 20;

// Payload encoders (no length prefix).
std::vector<std::uint8_t> encode_request(const Request& request);
std::vector<std::uint8_t> encode_response(const Response& response);

// Payload decoders: nullopt on short buffers, bad magic, bad version, or
// out-of-range enum codes. Trailing bytes are tolerated (forward compat).
std::optional<Request> decode_request(const std::vector<std::uint8_t>& payload);
std::optional<Response> decode_response(const std::vector<std::uint8_t>& payload);

// Stats response (kStats, protocol v2): id echoes the request, json is the
// cgps-serve-stats-v1 snapshot document.
struct StatsResponse {
  std::uint64_t id = 0;
  std::string json;
};
std::vector<std::uint8_t> encode_stats_response(std::uint64_t id, std::string_view json);
std::optional<StatsResponse> decode_stats_response(const std::vector<std::uint8_t>& payload);

// Non-blocking frame scan over an in-memory stream buffer: when `buffer`
// holds a complete frame starting at `pos`, copies its payload out, advances
// `pos` past it and returns kFrame. kNeedMore = the prefix or payload is
// still partial (read more bytes and retry); kCorrupt = the length prefix is
// 0 or exceeds `max_frame_bytes` (the stream can no longer be trusted). The
// pipelined server/client paths parse batches of frames from one big read()
// through this instead of paying two syscalls per frame. The server keeps
// the tight request-sized default; clients reading stats frames pass
// kMaxStatsFrameBytes.
enum class FrameScan { kFrame, kNeedMore, kCorrupt };
FrameScan scan_frame(const std::vector<std::uint8_t>& buffer, std::size_t& pos,
                     std::vector<std::uint8_t>& payload,
                     std::uint32_t max_frame_bytes = kMaxFrameBytes);

// Append the framed message (u32 length prefix + payload) to an in-memory
// write buffer, so a whole batch of messages goes out in one write.
void append_frame(std::vector<std::uint8_t>& buffer,
                  const std::vector<std::uint8_t>& payload);

// Blocking write(2) of the whole buffer (EINTR/partial-retry); false when
// the peer went away. The client's write path.
bool write_all_bytes(int fd, const std::uint8_t* data, std::size_t n);

}  // namespace cgps::serve
