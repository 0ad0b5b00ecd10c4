#pragma once

/// \file server.hpp
/// Minimal HTTP/1.1 front-end for the analysis service.
///
/// Endpoints:
///   POST /analyze   body: JSON AnalyzeRequest -> 200 text/plain report
///                   (byte-identical to `auditherm analyze` stdout); 404
///                   when `data` cannot be opened, 400 for a bad request
///                   or bad input data, 500 for anything else
///   POST /simulate  body: one scenario object or a fleet envelope (see
///                   scenario_codec.hpp) -> 200 application/json, the
///                   fleet manifest; with "out_dir" the traces land on
///                   the server's filesystem (it is a loopback-only
///                   local daemon, so the client and server share a disk)
///   GET  /metrics   -> 200 application/json, the server recorder's
///                   obs::to_json (schema "auditherm.metrics" v1)
///   GET  /healthz   -> 200 "ok\n"
///   POST /shutdown  -> 200, then the accept loop drains and exits
///
/// Transport model: one acceptor (the thread calling run()) and a fixed
/// worker pool; every connection carries one request and is closed after
/// the response (Connection: close) — the protocol stays stateless so a
/// load generator can hammer it with plain sockets. Concurrency of
/// *analysis* comes from the worker pool; per-request determinism comes
/// from the service (request-scoped RunOptions over a shared StageCache).
///
/// The server binds loopback only: it is an analysis daemon for local
/// tooling and CI, not an internet-facing endpoint.

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "auditherm/obs/trace_span.hpp"
#include "auditherm/serve/service.hpp"

namespace auditherm::serve {

struct ServerConfig {
  std::uint16_t port = 0;   ///< 0 = ephemeral (read back via port())
  std::size_t workers = 2;  ///< request worker threads
};

/// One parsed HTTP request (internal, exposed for tests).
struct HttpRequest {
  std::string method;
  std::string path;
  std::string body;
};

/// Parse "METHOD PATH HTTP/1.x\r\nheaders\r\n\r\nbody" from `raw`.
/// Returns false on malformed input. Exposed for unit tests; the server
/// reads from the socket incrementally and calls this on the buffer.
[[nodiscard]] bool parse_http_request(const std::string& raw,
                                      HttpRequest& out);

class Server {
 public:
  /// `service` and `recorder` must outlive the server. `recorder` backs
  /// GET /metrics and may be null (then /metrics serves an empty
  /// recorder's JSON).
  Server(ServerConfig config, AnalysisService& service,
         const obs::Recorder* recorder);
  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;
  ~Server();

  /// Bind and listen on 127.0.0.1; throws std::runtime_error on failure.
  void start();

  /// Port actually bound (resolves an ephemeral request). Valid after
  /// start().
  [[nodiscard]] std::uint16_t port() const noexcept { return port_; }

  /// Accept and serve until request_stop(); joins the workers before
  /// returning. Call start() first.
  void run();

  /// Ask the accept loop to wind down. Only stores an atomic flag, so it
  /// is safe from signal handlers and from request workers (POST
  /// /shutdown).
  void request_stop() noexcept { stop_.store(true, std::memory_order_release); }

  [[nodiscard]] bool stopping() const noexcept {
    return stop_.load(std::memory_order_acquire);
  }

 private:
  void worker_loop();
  void handle_connection(int fd);
  [[nodiscard]] std::string respond(const HttpRequest& request);

  ServerConfig config_;
  AnalysisService& service_;
  const obs::Recorder* recorder_;

  int listen_fd_ = -1;
  std::uint16_t port_ = 0;
  std::atomic<bool> stop_{false};

  std::mutex queue_mutex_;
  std::condition_variable queue_cv_;
  std::deque<int> pending_;  ///< accepted connections awaiting a worker
  std::vector<std::thread> workers_;
};

}  // namespace auditherm::serve
