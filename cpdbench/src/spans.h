#ifndef CPDBENCH_SPANS_H_
#define CPDBENCH_SPANS_H_

// The traced run's span recorder. Spans are taken by the benchmark around
// its own calls into the program's modules (library calls and HTTP
// requests); the program itself is not instrumented. Each span has a
// name, start, end, parent span, and, for HTTP requests, the request id
// sent as X-Request-Id. Spans stay in memory and are written once, at the
// end of the run. A disabled recorder records nothing.

#include <chrono>
#include <cstdint>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

namespace bench {

/// Nanoseconds on the steady clock.
inline int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

struct Span {
  int64_t id = 0;
  int64_t parent = 0;  ///< 0 = root.
  std::string name;
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  std::string request_id;
};

class SpanRecorder {
 public:
  explicit SpanRecorder(bool enabled) : enabled_(enabled) {}
  SpanRecorder(const SpanRecorder&) = delete;
  SpanRecorder& operator=(const SpanRecorder&) = delete;

  bool enabled() const { return enabled_; }
  /// Records a finished span; returns its id (0 when disabled).
  int64_t Add(std::string_view name, int64_t parent, int64_t start_ns,
              int64_t end_ns, std::string_view request_id = {});
  /// Opens a span now; Close() stamps its end. Returns 0 when disabled.
  int64_t Open(std::string_view name, int64_t parent);
  void Close(int64_t id);

  /// Summed duration of every span called `name`, in seconds.
  double TotalSeconds(std::string_view name) const;

  /// Writes {"spans":[{"id","parent","name","start_ns","end_ns"[,"request_id"]}]}.
  bool WriteFile(const std::string& path) const;

 private:
  const bool enabled_;
  mutable std::mutex mutex_;  ///< Guards spans_ and next_id_.
  std::vector<Span> spans_;
  int64_t next_id_ = 1;
};

}  // namespace bench

#endif  // CPDBENCH_SPANS_H_
