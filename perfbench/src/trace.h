// In-memory span recorder for the benchmark's traced runs.
//
// Spans are recorded from the benchmark's own code around the calls it makes
// into the system (engine steps, transport verbs); nothing inside src/ is
// instrumented. Each span carries a name, start/end, the span that caused it
// and the benchmark request it belongs to. Spans stay in memory and are written
// out as Chrome trace-event JSON when the run ends.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

struct Span {
  std::uint64_t id = 0;
  std::uint64_t parent = 0;   // 0 = root
  std::uint64_t request = 0;  // benchmark request id (0 = none known)
  std::uint64_t transport_request = 0;  // transport verbs: the transport's id
  std::string name;
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  std::int64_t arg = -1;  // layer id or tile index; -1 = none
  std::uint64_t bytes = 0;
  std::uint32_t thread = 0;
};

class Tracer {
 public:
  Tracer() : epoch_(std::chrono::steady_clock::now()) {}

  std::int64_t now_ns() const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now() - epoch_)
        .count();
  }
  std::uint64_t next_id();
  void record(Span span);
  std::vector<Span> spans() const;

  // Transport request ids are allocated inside the transport; the decorator
  // binds each to the benchmark request that opened it, so verbs issued from
  // other threads (tile lanes on the engine's pool) still find their request
  // and its open stage span.
  void bind_transport_request(std::uint64_t transport_request, std::uint64_t request);
  std::uint64_t request_of(std::uint64_t transport_request) const;
  void set_open_stage(std::uint64_t request, std::uint64_t span);
  std::uint64_t open_stage(std::uint64_t request) const;

  void write_chrome_json(const std::string& path) const;

 private:
  std::chrono::steady_clock::time_point epoch_;
  mutable std::mutex mutex_;
  std::uint64_t next_id_ = 1;
  std::vector<Span> spans_;
  std::map<std::uint64_t, std::uint64_t> request_of_;
  std::map<std::uint64_t, std::uint64_t> open_stage_;
};

// The benchmark request and innermost open span on the calling thread.
struct Context {
  std::uint64_t request = 0;
  std::uint64_t span = 0;
};
Context& current_context();
std::uint32_t thread_index();

// Records one span for its lifetime and makes it the calling thread's current
// context. `stage` also publishes it as the request's open stage span for
// verbs issued from other threads.
class ScopedSpan {
 public:
  ScopedSpan(Tracer& tracer, std::string name, std::uint64_t request, bool stage = false);
  ~ScopedSpan();
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  Tracer& tracer_;
  Span span_;
  Context saved_;
  bool stage_;
};

// Length of the union of [start, end) intervals.
std::int64_t union_ns(std::vector<std::pair<std::int64_t, std::int64_t>> intervals);

}  // namespace perfbench
