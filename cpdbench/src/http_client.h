#ifndef CPDBENCH_HTTP_CLIENT_H_
#define CPDBENCH_HTTP_CLIENT_H_

// A keep-alive HTTP/1.1 client over one loopback TCP connection, written
// for the benchmark so the measured client side never changes with the
// program's own HTTP code. Requests are pre-encoded byte strings; replies
// are framed by Content-Length (the only framing cpd_serve emits).

#include <string>
#include <string_view>

namespace bench {

/// Encodes a request. `request_id` (optional) goes out as X-Request-Id.
std::string EncodeRequest(std::string_view method, std::string_view target,
                          std::string_view body,
                          std::string_view request_id = {});

class HttpConn {
 public:
  HttpConn() = default;
  ~HttpConn();
  HttpConn(const HttpConn&) = delete;
  HttpConn& operator=(const HttpConn&) = delete;

  /// Connects to 127.0.0.1:port; false with `error` set on failure.
  bool Connect(int port, std::string* error);
  void Close();

  /// Sends one encoded request and reads its reply. False on a transport
  /// or framing error (the connection is then closed).
  bool RoundTrip(std::string_view request, int* status, std::string* body,
                 std::string* error);

 private:
  bool Fill(std::string* error);
  int fd_ = -1;
  std::string buffer_;
};

/// One-shot helper: connect, send, read, close.
bool HttpOnce(int port, std::string_view method, std::string_view target,
              std::string_view body, int* status, std::string* reply,
              std::string* error);

}  // namespace bench

#endif  // CPDBENCH_HTTP_CLIENT_H_
