// TCP front end of cgps_serve (DESIGN.md §11): a loopback listener accepting
// length-prefixed request frames (serve/protocol.hpp). One poll(2) loop
// thread owns every socket: it accepts, reads and parses frames, submits them
// to the core, and sends replies without blocking. Replies collect in a
// per-connection outbox from whichever thread finishes the request (the loop
// for inline answers, the batching thread for served work); the batching
// thread never touches a client socket, it wakes the loop once per cycle.
// Requests on one connection are pipelined — the client needn't wait for a
// response before sending the next frame; responses carry the request id, so
// ordering is the client's concern.
#pragma once

#include "serve/core.hpp"

#include <thread>

namespace cgps::serve {

class ServeServer {
 public:
  // Binds 127.0.0.1:`port`; port 0 asks the kernel for an ephemeral port
  // (tests / parallel CI), readable via port() after start().
  ServeServer(ServeCore& core, int port);
  ~ServeServer();

  ServeServer(const ServeServer&) = delete;
  ServeServer& operator=(const ServeServer&) = delete;

  // Bind + listen + spawn the loop thread. False on bind/listen failure
  // (port in use, no permission) — error already logged.
  bool start();

  // Stop reading and accepting, send each connection the replies it is
  // still owed, then close every socket. Sending ends when all of it is
  // sent, when the peer is gone, or after a fixed bound of about a second
  // (a client that never reads cannot hold stop() up). The core is NOT
  // stopped, so several servers can share one core: to answer every admitted
  // request on the wire, drain the core first (tools/cgps_serve calls
  // core.stop(), then stop(); frames that arrive during the drain are
  // answered kShutdown). Replies the core finishes after stop() began are
  // dropped.
  void stop();

  int port() const { return port_; }

 private:
  void loop();

  ServeCore& core_;
  int requested_port_;
  int port_ = 0;
  int listen_fd_ = -1;
  // The cycle hook writes one byte to wake_[1] per batching cycle. stop()
  // closes wake_[1]; on wake_[0]'s end of file the loop stops reading, sends
  // what it still owes, and exits.
  int wake_[2] = {-1, -1};
  std::thread thread_;
};

}  // namespace cgps::serve
