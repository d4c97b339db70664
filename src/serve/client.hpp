// Minimal blocking client for the cgps_serve wire protocol. One TCP
// connection, synchronous call() for scripting plus split send()/recv() for
// pipelined load generation (bench_serve_load keeps many requests in flight
// and matches responses by id). Not thread-safe: callers wanting concurrency
// open one ServeClient per thread.
#pragma once

#include "serve/serve.hpp"

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

namespace cgps::serve {

class ServeClient {
 public:
  ServeClient() = default;
  ~ServeClient();

  ServeClient(const ServeClient&) = delete;
  ServeClient& operator=(const ServeClient&) = delete;

  // Connect to host:port (host is a dotted-quad, e.g. "127.0.0.1").
  // False on resolve/connect failure — error logged.
  bool connect(const std::string& host, int port);
  bool connected() const { return fd_ >= 0; }
  void close();

  // Fire-and-forget send; pair with recv() to collect responses in whatever
  // order the server finishes them. False = connection is dead.
  bool send(const Request& request);
  std::optional<Response> recv();

  // Batched send for pipelined load generation: enqueue() stages frames in a
  // local buffer, flush() pushes them in one write(2). Mixing enqueue() with
  // send() is fine — send() is simply enqueue()+flush().
  void enqueue(const Request& request);
  bool flush();

  // Synchronous request/response. nullopt on any transport failure.
  std::optional<Response> call(const Request& request);

  // Typed kStats round-trip (protocol v2): sends a stats probe and returns
  // the server's cgps-serve-stats-v1 JSON document. Issue it only when no
  // other requests are in flight on this connection — any regular response
  // frame arriving before the stats frame is consumed and dropped. nullopt
  // on transport failure or an unparseable frame.
  std::optional<std::string> fetch_stats();

 private:
  // Next frame's payload off the inbound stream, reading as needed; nullopt
  // after closing on end of file, a read error or a corrupt frame.
  std::optional<std::vector<std::uint8_t>> next_payload();

  int fd_ = -1;
  std::vector<std::uint8_t> out_buf_;
  // Inbound stream buffer: one read(2) may deliver many pipelined response
  // frames; recv() slices them out without further syscalls.
  std::vector<std::uint8_t> in_buf_;
  std::size_t in_pos_ = 0;
};

}  // namespace cgps::serve
