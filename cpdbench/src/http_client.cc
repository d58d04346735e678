#include "http_client.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstdlib>
#include <cstring>
#include <strings.h>

namespace bench {

std::string EncodeRequest(std::string_view method, std::string_view target,
                          std::string_view body, std::string_view request_id) {
  std::string out;
  out.reserve(128 + body.size());
  out.append(method).append(" ").append(target).append(" HTTP/1.1\r\n");
  out.append("Host: 127.0.0.1\r\n");
  if (!request_id.empty()) out.append("X-Request-Id: ").append(request_id).append("\r\n");
  if (!body.empty() || method == "POST") {
    out.append("Content-Type: application/json\r\n");
    out.append("Content-Length: ").append(std::to_string(body.size())).append("\r\n");
  }
  out.append("\r\n").append(body);
  return out;
}

HttpConn::~HttpConn() { Close(); }

void HttpConn::Close() {
  if (fd_ >= 0) ::close(fd_);
  fd_ = -1;
  buffer_.clear();
}

bool HttpConn::Connect(int port, std::string* error) {
  Close();
  fd_ = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd_ < 0) {
    *error = std::string("socket: ") + std::strerror(errno);
    return false;
  }
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<uint16_t>(port));
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (::connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    *error = std::string("connect: ") + std::strerror(errno);
    Close();
    return false;
  }
  const int one = 1;
  ::setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  return true;
}

bool HttpConn::Fill(std::string* error) {
  char chunk[65536];
  while (true) {
    const ssize_t n = ::recv(fd_, chunk, sizeof(chunk), 0);
    if (n > 0) {
      buffer_.append(chunk, static_cast<size_t>(n));
      return true;
    }
    if (n == 0) {
      *error = "connection closed by server";
      return false;
    }
    if (errno != EINTR) {
      *error = std::string("recv: ") + std::strerror(errno);
      return false;
    }
  }
}

bool HttpConn::RoundTrip(std::string_view request, int* status,
                         std::string* body, std::string* error) {
  if (fd_ < 0) {
    *error = "not connected";
    return false;
  }
  size_t sent = 0;
  while (sent < request.size()) {
    const ssize_t n = ::send(fd_, request.data() + sent, request.size() - sent,
                             MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      *error = std::string("send: ") + std::strerror(errno);
      Close();
      return false;
    }
    sent += static_cast<size_t>(n);
  }
  size_t head_end = std::string::npos;
  while ((head_end = buffer_.find("\r\n\r\n")) == std::string::npos) {
    if (!Fill(error)) {
      Close();
      return false;
    }
  }
  // Status line: HTTP/1.1 NNN Reason
  if (buffer_.compare(0, 9, "HTTP/1.1 ") != 0 || head_end < 12) {
    *error = "bad status line";
    Close();
    return false;
  }
  *status = std::atoi(buffer_.c_str() + 9);
  size_t content_length = 0;
  bool have_length = false;
  bool close_after = false;
  size_t line = buffer_.find("\r\n") + 2;
  while (line < head_end) {
    const size_t eol = buffer_.find("\r\n", line);
    const std::string_view header(buffer_.data() + line, eol - line);
    const size_t colon = header.find(':');
    if (colon != std::string_view::npos) {
      const std::string name(header.substr(0, colon));
      std::string_view value = header.substr(colon + 1);
      while (!value.empty() && value.front() == ' ') value.remove_prefix(1);
      if (strcasecmp(name.c_str(), "Content-Length") == 0) {
        content_length = std::strtoull(std::string(value).c_str(), nullptr, 10);
        have_length = true;
      } else if (strcasecmp(name.c_str(), "Connection") == 0 &&
                 strncasecmp(value.data(), "close", 5) == 0) {
        close_after = true;
      }
    }
    line = eol + 2;
  }
  if (!have_length) {
    *error = "reply without Content-Length";
    Close();
    return false;
  }
  const size_t total = head_end + 4 + content_length;
  while (buffer_.size() < total) {
    if (!Fill(error)) {
      Close();
      return false;
    }
  }
  body->assign(buffer_, head_end + 4, content_length);
  buffer_.erase(0, total);
  if (close_after) Close();
  return true;
}

bool HttpOnce(int port, std::string_view method, std::string_view target,
              std::string_view body, int* status, std::string* reply,
              std::string* error) {
  HttpConn conn;
  if (!conn.Connect(port, error)) return false;
  return conn.RoundTrip(EncodeRequest(method, target, body), status, reply,
                        error);
}

}  // namespace bench
