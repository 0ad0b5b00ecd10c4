#include "auditherm/serve/server.hpp"

#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cctype>
#include <cerrno>
#include <cstdlib>
#include <cstring>
#include <stdexcept>

#include "auditherm/core/cli.hpp"
#include "auditherm/obs/export.hpp"
#include "auditherm/serve/scenario_codec.hpp"
#include "auditherm/timeseries/csv_io.hpp"

namespace auditherm::serve {

namespace {

/// One request per connection, so caps can be generous but finite: a
/// request is a small JSON object, never a trace upload.
constexpr std::size_t kMaxHeaderBytes = 16 * 1024;
constexpr std::size_t kMaxBodyBytes = 1024 * 1024;

std::string status_text(int status) {
  switch (status) {
    case 200: return "OK";
    case 400: return "Bad Request";
    case 404: return "Not Found";
    case 405: return "Method Not Allowed";
    case 413: return "Payload Too Large";
    case 500: return "Internal Server Error";
  }
  return "Error";
}

std::string http_response(int status, std::string_view content_type,
                          std::string_view body) {
  std::string out = "HTTP/1.1 " + std::to_string(status) + " " +
                    status_text(status) + "\r\n";
  out += "Content-Type: ";
  out += content_type;
  out += "\r\nContent-Length: " + std::to_string(body.size()) +
         "\r\nConnection: close\r\n\r\n";
  out += body;
  return out;
}

/// Write all of `data`, tolerating short writes; false on error.
bool write_fully(int fd, std::string_view data) {
  std::size_t sent = 0;
  while (sent < data.size()) {
    const ssize_t n = ::send(fd, data.data() + sent, data.size() - sent,
#ifdef MSG_NOSIGNAL
                             MSG_NOSIGNAL
#else
                             0
#endif
    );
    if (n < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    sent += static_cast<std::size_t>(n);
  }
  return true;
}

}  // namespace

bool parse_http_request(const std::string& raw, HttpRequest& out) {
  const std::size_t header_end = raw.find("\r\n\r\n");
  if (header_end == std::string::npos) return false;
  const std::size_t line_end = raw.find("\r\n");
  const std::string request_line = raw.substr(0, line_end);
  const std::size_t sp1 = request_line.find(' ');
  const std::size_t sp2 =
      sp1 == std::string::npos ? std::string::npos
                               : request_line.find(' ', sp1 + 1);
  if (sp1 == std::string::npos || sp2 == std::string::npos) return false;
  if (request_line.compare(sp2 + 1, 7, "HTTP/1.") != 0) return false;
  out.method = request_line.substr(0, sp1);
  out.path = request_line.substr(sp1 + 1, sp2 - sp1 - 1);
  out.body = raw.substr(header_end + 4);
  return !out.method.empty() && !out.path.empty();
}

Server::Server(ServerConfig config, AnalysisService& service,
               const obs::Recorder* recorder)
    : config_(config), service_(service), recorder_(recorder) {}

Server::~Server() {
  request_stop();
  if (listen_fd_ >= 0) ::close(listen_fd_);
  for (auto& w : workers_) {
    if (w.joinable()) w.join();
  }
  for (const int fd : pending_) ::close(fd);
}

void Server::start() {
  listen_fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  if (listen_fd_ < 0) {
    throw std::runtime_error("serve: socket() failed: " +
                             std::string(std::strerror(errno)));
  }
  const int one = 1;
  ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(config_.port);
  if (::bind(listen_fd_, reinterpret_cast<const sockaddr*>(&addr),
             sizeof(addr)) != 0) {
    throw std::runtime_error("serve: cannot bind 127.0.0.1:" +
                             std::to_string(config_.port) + ": " +
                             std::strerror(errno));
  }
  if (::listen(listen_fd_, 64) != 0) {
    throw std::runtime_error("serve: listen() failed: " +
                             std::string(std::strerror(errno)));
  }
  socklen_t len = sizeof(addr);
  ::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&addr), &len);
  port_ = ntohs(addr.sin_port);
}

void Server::run() {
  if (listen_fd_ < 0) throw std::logic_error("serve: run() before start()");
  workers_.reserve(config_.workers);
  for (std::size_t i = 0; i < std::max<std::size_t>(config_.workers, 1);
       ++i) {
    workers_.emplace_back([this] { worker_loop(); });
  }

  // Poll with a short tick so request_stop() (from a signal handler or
  // POST /shutdown) is honored promptly without self-pipe machinery.
  while (!stopping()) {
    pollfd pfd{listen_fd_, POLLIN, 0};
    const int ready = ::poll(&pfd, 1, 200);
    if (ready < 0) {
      if (errno == EINTR) continue;
      break;
    }
    if (ready == 0 || (pfd.revents & POLLIN) == 0) continue;
    const int fd = ::accept(listen_fd_, nullptr, nullptr);
    if (fd < 0) continue;
    {
      const std::lock_guard<std::mutex> lock(queue_mutex_);
      pending_.push_back(fd);
    }
    queue_cv_.notify_one();
  }

  // Drain: let workers finish queued connections, then release them.
  queue_cv_.notify_all();
  for (auto& w : workers_) {
    if (w.joinable()) w.join();
  }
  workers_.clear();
}

void Server::worker_loop() {
  for (;;) {
    int fd = -1;
    {
      std::unique_lock<std::mutex> lock(queue_mutex_);
      queue_cv_.wait(lock,
                     [this] { return stopping() || !pending_.empty(); });
      if (pending_.empty()) {
        if (stopping()) return;
        continue;
      }
      fd = pending_.front();
      pending_.pop_front();
    }
    handle_connection(fd);
  }
}

void Server::handle_connection(int fd) {
  // Read until the headers land, then until Content-Length is satisfied.
  std::string raw;
  std::size_t need_total = std::string::npos;
  char buf[4096];
  for (;;) {
    const ssize_t n = ::recv(fd, buf, sizeof(buf), 0);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) break;
    raw.append(buf, static_cast<std::size_t>(n));
    if (need_total == std::string::npos) {
      const std::size_t header_end = raw.find("\r\n\r\n");
      if (header_end == std::string::npos) {
        if (raw.size() > kMaxHeaderBytes) {
          write_fully(fd, http_response(413, "text/plain",
                                        "error: headers too large\n"));
          ::close(fd);
          return;
        }
        continue;
      }
      std::size_t content_length = 0;
      // Case-insensitive scan for the Content-Length header.
      for (std::size_t pos = raw.find("\r\n") + 2; pos < header_end;) {
        const std::size_t eol = raw.find("\r\n", pos);
        const std::string line = raw.substr(pos, eol - pos);
        const std::size_t colon = line.find(':');
        if (colon != std::string::npos) {
          std::string key = line.substr(0, colon);
          for (char& c : key) c = static_cast<char>(std::tolower(c));
          if (key == "content-length") {
            content_length = std::strtoull(line.c_str() + colon + 1,
                                           nullptr, 10);
          }
        }
        pos = eol + 2;
      }
      if (content_length > kMaxBodyBytes) {
        write_fully(fd, http_response(413, "text/plain",
                                      "error: body too large\n"));
        ::close(fd);
        return;
      }
      need_total = header_end + 4 + content_length;
    }
    if (raw.size() >= need_total) break;
  }
  if (need_total == std::string::npos || raw.size() < need_total) {
    ::close(fd);  // peer went away mid-request
    return;
  }
  raw.resize(need_total);

  HttpRequest request;
  std::string response;
  if (!parse_http_request(raw, request)) {
    response = http_response(400, "text/plain", "error: malformed request\n");
  } else {
    response = respond(request);
  }
  write_fully(fd, response);
  ::close(fd);
}

std::string Server::respond(const HttpRequest& request) {
  obs::TraceSpan span("serve.request");
  if (request.path == "/healthz") {
    if (request.method != "GET") {
      return http_response(405, "text/plain", "error: use GET\n");
    }
    return http_response(200, "text/plain", "ok\n");
  }
  if (request.path == "/metrics") {
    if (request.method != "GET") {
      return http_response(405, "text/plain", "error: use GET\n");
    }
    static const obs::Recorder empty;
    return http_response(200, "application/json",
                         obs::to_json(recorder_ ? *recorder_ : empty));
  }
  if (request.path == "/shutdown") {
    if (request.method != "POST") {
      return http_response(405, "text/plain", "error: use POST\n");
    }
    request_stop();
    return http_response(200, "text/plain", "shutting down\n");
  }
  if (request.path == "/simulate") {
    if (request.method != "POST") {
      return http_response(405, "text/plain", "error: use POST\n");
    }
    try {
      const auto body = json::parse(request.body);
      const SimulateRequest simulate_request =
          simulate_request_from_json(body);
      sim::FleetOptions options;
      options.out_dir = simulate_request.out_dir;
      const auto outcomes = sim::run_fleet(simulate_request.specs, options);
      return http_response(200, "application/json",
                           sim::fleet_manifest_json(outcomes));
    } catch (const json::ParseError& e) {
      return http_response(400, "text/plain",
                           std::string("error: ") + e.what() + "\n");
    } catch (const std::invalid_argument& e) {
      return http_response(400, "text/plain",
                           std::string("error: ") + e.what() + "\n");
    } catch (const std::exception& e) {
      return http_response(500, "text/plain",
                           std::string("error: ") + e.what() + "\n");
    }
  }
  if (request.path == "/analyze") {
    if (request.method != "POST") {
      return http_response(405, "text/plain", "error: use POST\n");
    }
    try {
      const auto body = json::parse(request.body);
      const AnalyzeRequest analyze_request = request_from_json(body);
      return http_response(200, "text/plain",
                           service_.analyze(analyze_request));
    } catch (const json::ParseError& e) {
      return http_response(400, "text/plain",
                           std::string("error: ") + e.what() + "\n");
    } catch (const std::invalid_argument& e) {
      return http_response(400, "text/plain",
                           std::string("error: ") + e.what() + "\n");
    } catch (const core::cli::UsageError& e) {
      return http_response(400, "text/plain",
                           std::string("error: ") + e.what() + "\n");
    } catch (const timeseries::InputError& e) {
      return http_response(e.missing() ? 404 : 400, "text/plain",
                           std::string("error: ") + e.what() + "\n");
    } catch (const std::exception& e) {
      return http_response(500, "text/plain",
                           std::string("error: ") + e.what() + "\n");
    }
  }
  return http_response(404, "text/plain", "error: no such endpoint\n");
}

}  // namespace auditherm::serve
