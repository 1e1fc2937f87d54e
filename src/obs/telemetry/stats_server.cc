#include "obs/telemetry/stats_server.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <stdexcept>
#include <utility>

namespace sfq::obs::telemetry {

namespace {

// Blocking-with-deadline write of the whole buffer; gives up on error.
void write_all(int fd, const std::string& data) {
  std::size_t off = 0;
  while (off < data.size()) {
    const ssize_t n = ::send(fd, data.data() + off, data.size() - off,
                             MSG_NOSIGNAL);
    if (n <= 0) return;
    off += static_cast<std::size_t>(n);
  }
}

}  // namespace

StatsServer::~StatsServer() { stop(); }

void StatsServer::start(uint16_t port) {
  if (running()) throw std::logic_error("StatsServer: start() while running");
  listen_fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  if (listen_fd_ < 0)
    throw std::runtime_error("StatsServer: socket() failed");
  const int one = 1;
  ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof one);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(port);
  if (::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof addr) <
          0 ||
      ::listen(listen_fd_, 8) < 0) {
    ::close(listen_fd_);
    listen_fd_ = -1;
    throw std::runtime_error(std::string("StatsServer: bind/listen failed: ") +
                             std::strerror(errno));
  }
  socklen_t len = sizeof addr;
  ::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&addr), &len);
  port_ = ntohs(addr.sin_port);
  stop_requested_.store(false, std::memory_order_release);
  running_.store(true, std::memory_order_release);
  thread_ = std::thread([this] { serve(); });
}

void StatsServer::stop() {
  if (!running()) return;
  stop_requested_.store(true, std::memory_order_release);
  if (thread_.joinable()) thread_.join();
  if (listen_fd_ >= 0) {
    ::close(listen_fd_);
    listen_fd_ = -1;
  }
  running_.store(false, std::memory_order_release);
}

void StatsServer::publish(std::string prometheus, std::string json) {
  std::lock_guard<std::mutex> lock(mu_);
  prometheus_ = std::move(prometheus);
  json_ = std::move(json);
}

void StatsServer::serve() {
  while (!stop_requested_.load(std::memory_order_acquire)) {
    pollfd pfd{listen_fd_, POLLIN, 0};
    const int r = ::poll(&pfd, 1, /*timeout_ms=*/100);
    if (r <= 0) continue;  // timeout or EINTR: re-check the stop flag
    const int fd = ::accept(listen_fd_, nullptr, nullptr);
    if (fd < 0) continue;
    // One short request per connection; 1 KiB is plenty for a request line.
    char buf[1024];
    pollfd cfd{fd, POLLIN, 0};
    std::string body, content_type;
    if (::poll(&cfd, 1, 500) > 0) {
      const ssize_t n = ::recv(fd, buf, sizeof buf - 1, 0);
      if (n > 0) {
        buf[n] = '\0';
        const bool json = std::strncmp(buf, "GET /metrics.json", 17) == 0;
        const bool prom = !json && std::strncmp(buf, "GET /metrics", 12) == 0;
        std::lock_guard<std::mutex> lock(mu_);
        if (json) {
          body = json_;
          content_type = "application/json";
        } else if (prom) {
          body = prometheus_;
          content_type = "text/plain; version=0.0.4";
        }
      }
    }
    std::string resp;
    if (!content_type.empty()) {
      resp = "HTTP/1.0 200 OK\r\nContent-Type: " + content_type +
             "\r\nContent-Length: " + std::to_string(body.size()) +
             "\r\nConnection: close\r\n\r\n" + body;
    } else {
      resp =
          "HTTP/1.0 404 Not Found\r\nContent-Length: 0\r\nConnection: "
          "close\r\n\r\n";
    }
    // Counted before the write: a client that has read its response must
    // already see it in requests_served().
    served_.fetch_add(1, std::memory_order_relaxed);
    write_all(fd, resp);
    ::close(fd);
  }
}

}  // namespace sfq::obs::telemetry
