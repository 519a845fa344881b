#include "trace.h"

#include <algorithm>
#include <atomic>
#include <fstream>
#include <stdexcept>

namespace perfbench {

std::uint64_t Tracer::next_id() {
  std::lock_guard<std::mutex> lock(mutex_);
  return next_id_++;
}

void Tracer::record(Span span) {
  std::lock_guard<std::mutex> lock(mutex_);
  spans_.push_back(std::move(span));
}

std::vector<Span> Tracer::spans() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return spans_;
}

void Tracer::bind_transport_request(std::uint64_t transport_request, std::uint64_t request) {
  std::lock_guard<std::mutex> lock(mutex_);
  request_of_[transport_request] = request;
}

std::uint64_t Tracer::request_of(std::uint64_t transport_request) const {
  std::lock_guard<std::mutex> lock(mutex_);
  const auto it = request_of_.find(transport_request);
  return it == request_of_.end() ? 0 : it->second;
}

void Tracer::set_open_stage(std::uint64_t request, std::uint64_t span) {
  std::lock_guard<std::mutex> lock(mutex_);
  open_stage_[request] = span;
}

std::uint64_t Tracer::open_stage(std::uint64_t request) const {
  std::lock_guard<std::mutex> lock(mutex_);
  const auto it = open_stage_.find(request);
  return it == open_stage_.end() ? 0 : it->second;
}

void Tracer::write_chrome_json(const std::string& path) const {
  std::ofstream out(path, std::ios::trunc);
  if (!out) throw std::runtime_error("cannot write trace \"" + path + "\"");
  out << "{\"traceEvents\":[\n";
  bool first = true;
  for (const Span& s : spans()) {
    if (!first) out << ",\n";
    first = false;
    out << "{\"name\":\"" << s.name << "\",\"ph\":\"X\",\"pid\":1,\"tid\":" << s.thread
        << ",\"ts\":" << static_cast<double>(s.start_ns) / 1e3
        << ",\"dur\":" << static_cast<double>(s.end_ns - s.start_ns) / 1e3
        << ",\"args\":{\"id\":" << s.id << ",\"parent\":" << s.parent
        << ",\"request\":" << s.request << ",\"transport_request\":" << s.transport_request
        << ",\"arg\":" << s.arg << ",\"bytes\":" << s.bytes << "}}";
  }
  out << "\n]}\n";
}

Context& current_context() {
  thread_local Context context;
  return context;
}

std::uint32_t thread_index() {
  static std::atomic<std::uint32_t> next{1};
  thread_local const std::uint32_t index = next.fetch_add(1);
  return index;
}

ScopedSpan::ScopedSpan(Tracer& tracer, std::string name, std::uint64_t request, bool stage)
    : tracer_(tracer), saved_(current_context()), stage_(stage) {
  span_.id = tracer_.next_id();
  span_.parent = saved_.span;
  span_.request = request;
  span_.name = std::move(name);
  span_.thread = thread_index();
  current_context() = Context{request, span_.id};
  if (stage_) tracer_.set_open_stage(request, span_.id);
  span_.start_ns = tracer_.now_ns();
}

ScopedSpan::~ScopedSpan() {
  span_.end_ns = tracer_.now_ns();
  if (stage_) tracer_.set_open_stage(span_.request, 0);
  current_context() = saved_;
  tracer_.record(std::move(span_));
}

std::int64_t union_ns(std::vector<std::pair<std::int64_t, std::int64_t>> intervals) {
  std::sort(intervals.begin(), intervals.end());
  std::int64_t total = 0;
  std::int64_t cursor = INT64_MIN;
  for (const auto& [start, end] : intervals) {
    const std::int64_t from = std::max(start, cursor);
    if (end > from) total += end - from;
    cursor = std::max(cursor, end);
  }
  return total;
}

}  // namespace perfbench
