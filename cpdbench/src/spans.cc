#include "spans.h"

#include <cstdio>

#include "minijson.h"

namespace bench {

int64_t SpanRecorder::Add(std::string_view name, int64_t parent,
                          int64_t start_ns, int64_t end_ns,
                          std::string_view request_id) {
  if (!enabled_) return 0;
  std::lock_guard<std::mutex> lock(mutex_);
  Span span;
  span.id = next_id_++;
  span.parent = parent;
  span.name = std::string(name);
  span.start_ns = start_ns;
  span.end_ns = end_ns;
  span.request_id = std::string(request_id);
  spans_.push_back(std::move(span));
  return spans_.back().id;
}

int64_t SpanRecorder::Open(std::string_view name, int64_t parent) {
  const int64_t now = NowNs();
  return Add(name, parent, now, now);
}

void SpanRecorder::Close(int64_t id) {
  if (!enabled_ || id == 0) return;
  const int64_t now = NowNs();
  std::lock_guard<std::mutex> lock(mutex_);
  // Ids are dense and 1-based, so the span sits at index id - 1.
  spans_[static_cast<size_t>(id - 1)].end_ns = now;
}

double SpanRecorder::TotalSeconds(std::string_view name) const {
  std::lock_guard<std::mutex> lock(mutex_);
  int64_t total_ns = 0;
  for (const Span& span : spans_) {
    if (span.name == name) total_ns += span.end_ns - span.start_ns;
  }
  return static_cast<double>(total_ns) * 1e-9;
}

bool SpanRecorder::WriteFile(const std::string& path) const {
  if (!enabled_) return true;
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::lock_guard<std::mutex> lock(mutex_);
  std::fputs("{\"spans\":[\n", f);
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::string line = "{\"id\":" + std::to_string(s.id) +
                       ",\"parent\":" + std::to_string(s.parent) + ",\"name\":";
    AppendJsonString(&line, s.name);
    line += ",\"start_ns\":" + std::to_string(s.start_ns) +
            ",\"end_ns\":" + std::to_string(s.end_ns);
    if (!s.request_id.empty()) {
      line += ",\"request_id\":";
      AppendJsonString(&line, s.request_id);
    }
    line += i + 1 < spans_.size() ? "},\n" : "}\n";
    std::fputs(line.c_str(), f);
  }
  std::fputs("]}\n", f);
  return std::fclose(f) == 0;
}

}  // namespace bench
