// The serving front end: one reactor thread multiplexing thousands of
// in-flight requests over the engine's continuation API.
//
// The reactor holds every admitted request as an OnlineEngine::Continuation
// and pumps them from a single event loop: admit waiting requests up to
// Options::max_inflight, run exactly one stage of the highest-priority
// runnable request, repeat. The loop sleeps on an rpc::Poller (epoll — the
// same multiplexer that drives the d3_node worker serve loop) with an
// rpc::EventFd registered as the wake-up channel, so submissions from any
// thread interrupt an idle reactor without polling. With
// Options::readiness_dispatch the loop pumps stages through
// OnlineEngine::step_async instead of step(): a stage whose wire ops are
// still in flight parks, its channel fds join the same epoll set, and the
// reactor serves other requests until readability resumes it — wire wait
// overlaps compute and every worker channel stays busy from one thread.
//
// Admission control stacks three policies:
//   * drop-oldest — Options::admission_capacity bounds the waiting queue; a
//     new arrival at a full queue evicts the stalest waiting request
//     (RequestDropped) — the runtime analogue of
//     sim::StreamOptions::drop_when_busy, where a camera pipeline overwrites
//     stale frames rather than queueing unboundedly.
//   * latency-aware shedding — with Options::pipeline set, a request whose
//     deadline is already beaten by sim::predicted_completion_seconds at its
//     queue position is refused at submit() (RequestShed): a request doomed
//     by queue depth never consumes capacity.
//   * deadline expiry — a request whose deadline passes while waiting or
//     between stages is abandoned (RequestShed, Stats::expired).
//
// Determinism: each request's stages still run strictly in order, all on the
// reactor thread, so per-request outputs are bitwise-identical and
// transcripts byte-identical to OnlineEngine::infer() — regardless of how
// stages of different requests interleave.
// See docs/ARCHITECTURE.md "Serving front end".
#pragma once

#include <chrono>
#include <condition_variable>
#include <cstddef>
#include <deque>
#include <exception>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "rpc/socket.h"
#include "runtime/engine.h"
#include "sim/pipeline.h"

namespace d3::runtime {

// Thrown by wait() for a request that was dropped by admission control.
class RequestDropped : public std::runtime_error {
 public:
  explicit RequestDropped(std::size_t id)
      : std::runtime_error("ServingReactor: request " + std::to_string(id) +
                           " dropped by admission control") {}

 protected:
  // For subclasses with their own story (RequestShed).
  explicit RequestDropped(const std::string& what) : std::runtime_error(what) {}
};

// Thrown by wait() for requests refused or abandoned by the latency-aware
// shedding policy (predicted or actual deadline miss). Derives from
// RequestDropped so drain() and callers that already tolerate admission drops
// absorb sheds the same way.
class RequestShed : public RequestDropped {
 public:
  RequestShed(std::size_t id, const std::string& why)
      : RequestDropped("ServingReactor: request " + std::to_string(id) + " shed (" + why +
                       ")") {}
};

class ServingReactor {
 public:
  struct Options {
    // Concurrently begun (admitted, not yet finished) requests the reactor
    // holds open at once; arrivals beyond it wait in the admission queue.
    std::size_t max_inflight = 1024;
    // Waiting-queue bound with drop-oldest eviction (0 = unbounded).
    std::size_t admission_capacity = 0;
    // Full-replay fallback: when admission or a stage fails with
    // rpc::ChannelDied — the engine's own tier-granular recovery was
    // disabled, exhausted, or impossible (no reconnect hook) — restart the
    // request from its retained input up to this many times instead of
    // failing it. Transcript purity makes the replayed result byte-identical.
    // 0 = fail the request (the caller re-submits).
    std::size_t max_replays = 0;
    // Deadline applied to submissions that do not carry their own
    // (SubmitOptions::deadline_seconds < 0). 0 = no deadline.
    double default_deadline_seconds = 0.0;
    // Enables predictive shedding: a deadline-carrying request whose
    // sim::predicted_completion_seconds at its queue position already exceeds
    // the deadline is refused at submit().
    std::optional<sim::PipelinePlan> pipeline;
    // true: queue submissions but admit nothing until resume() — lets tests
    // and benches pile up a burst, then watch the reactor absorb it.
    bool start_paused = false;
    // true: pump stages through OnlineEngine::step_async and PARK a
    // continuation whose wire ops are still in flight instead of blocking on
    // the reply — its channel fds join the epoll set and the stage resumes on
    // readability. N requests over M worker channels then keep all M channels
    // busy from this one thread: wire wait overlaps other requests' compute.
    // false (default): blocking step(), one wire round-trip at a time.
    bool readiness_dispatch = false;
  };

  struct SubmitOptions {
    // Seconds from submission until the result is worthless. < 0 = use
    // Options::default_deadline_seconds; 0 = no deadline.
    double deadline_seconds = -1.0;
    // Higher-priority requests are stepped first; equal priorities
    // round-robin stage-by-stage (FIFO admission order).
    int priority = 0;
  };

  struct Stats {
    std::size_t submitted = 0;     // every id handed out by submit()
    std::size_t completed = 0;     // produced a result
    std::size_t dropped = 0;       // evicted by drop-oldest admission
    std::size_t shed = 0;          // refused up front by predictive shedding
    std::size_t expired = 0;       // deadline passed while queued or in flight
    std::size_t replayed = 0;      // end-to-end replays after channel deaths
    std::size_t max_inflight = 0;  // high-water mark of concurrent open requests
    std::size_t steps = 0;         // engine stages pumped by the reactor
    std::size_t shutdown_shed = 0;    // requests expired deterministically by shutdown()
    std::size_t heartbeat_deaths = 0;  // ChannelDied raised by reactor liveness probes
    // Readiness dispatch only:
    std::size_t parked_stages = 0;  // stages parked on in-flight wire ops
    double wire_wait_ms = 0.0;      // total parked time — wire wait the reactor
                                    // overlapped with other requests' stages
    std::size_t outstanding_ops_high_water = 0;  // peak unsettled wire ops
                                                 // across parked stages
  };

  // `engine` must outlive the reactor. Spawns the reactor thread.
  explicit ServingReactor(const OnlineEngine& engine);
  ServingReactor(const OnlineEngine& engine, Options options);
  // Completes every admitted request (resuming a paused reactor first), then
  // joins the reactor thread. Uncollected results are discarded.
  ~ServingReactor();

  ServingReactor(const ServingReactor&) = delete;
  ServingReactor& operator=(const ServingReactor&) = delete;

  // Admits one request; returns its id (0-based, in submission order).
  // Throws std::invalid_argument immediately on input shape mismatch. Ids are
  // handed out even to requests refused by shedding — their wait() throws
  // RequestShed. Thread-safe.
  std::size_t submit(const dnn::Tensor& input);
  std::size_t submit(const dnn::Tensor& input, const SubmitOptions& options);

  // Blocks until request `id` is done, then returns its result (exactly once
  // per id; a second call throws). Rethrows stage failures; RequestDropped /
  // RequestShed for requests admission control refused.
  InferenceResult wait(std::size_t id);

  // Waits for every submitted request and returns the results of those that
  // completed, in submission order. Dropped and shed requests are skipped, as
  // are results another thread already collected via wait().
  std::vector<InferenceResult> drain();

  // Starts admission on a reactor constructed with start_paused.
  void resume();

  // Deterministic teardown: every request not yet finished — waiting or
  // admitted mid-flight — is shed with a distinct "reactor shutdown" reason
  // (its wait() throws RequestShed immediately instead of blocking until the
  // result or a deadline). In-flight continuations are torn down on the
  // reactor thread (single-mutator preserved: a stage already executing
  // completes first, then the shed pass claims the request). Blocks until
  // every ticket is finished; submit() afterwards throws std::logic_error.
  // Idempotent. The destructor does NOT shed — it completes admitted work.
  void shutdown();

  Stats stats() const;
  // End-to-end seconds (submit -> result) of completed requests, completion
  // order. The serving bench derives its p50/p99 from this.
  std::vector<double> latencies_seconds() const;
  // Request ids in completion order (priority tests read this).
  std::vector<std::size_t> completion_order() const;

 private:
  using Clock = std::chrono::steady_clock;

  struct Ticket {
    dnn::Tensor input;  // retained: replays and late admission both restart from it
    int priority = 0;
    double deadline_seconds = 0.0;
    Clock::time_point submitted_at;
    std::optional<Clock::time_point> deadline_at;
    std::optional<OnlineEngine::Continuation> cont;  // set once admitted
    InferenceResult result;
    std::exception_ptr error;
    std::size_t replays = 0;
    bool done = false;
    bool collected = false;
    // Readiness dispatch: channel fds this parked stage waits on, when it
    // parked, and how many ops it held (all maintained under the mutex).
    std::vector<int> parked_fds;
    std::optional<Clock::time_point> parked_since;
    std::size_t parked_ops = 0;
  };

  void reactor_loop();
  // (Re)opens `ticket`'s continuation from its retained input. A ChannelDied
  // the engine could not absorb spends one end-to-end replay, so a death
  // noticed at admission and one noticed mid-stage draw on the same
  // max_replays budget. Returns false, with ticket.error set, when the ticket
  // failed instead. Reactor thread, lock not held.
  bool begin(Ticket& ticket);
  // Charges the rpc::ChannelDied being handled to ticket's replay budget;
  // false (ticket.error set to it) once max_replays is spent. Call only from
  // inside a catch handler. Lock not held.
  bool spend_replay(Ticket& ticket);
  // The shutdown() shed pass: runs on the reactor thread at the loop top so
  // the single-mutator invariant holds. Lock held.
  void shed_all_locked();
  // Sheds every waiting request whose deadline has passed. Lock held.
  void expire_waiting_locked(Clock::time_point now);
  // Milliseconds until the earliest waiting deadline (-1 = none: sleep until
  // signalled). Lock held.
  int idle_timeout_ms_locked(Clock::time_point now) const;
  // Marks `ticket` finished and does the completion bookkeeping. Lock held.
  void finish_locked(std::size_t id, Ticket& ticket, Clock::time_point now);
  // Moves a parked ticket back into its priority bucket, dropping its fd
  // registrations (refcounted — an fd leaves the epoll set only when its last
  // parked ticket does). Lock held.
  void unpark_locked(std::size_t id, Clock::time_point now);
  // No-syscall pass over parked stages: replies drained on this thread by
  // another ticket's stage or a heartbeat probe settle ops without the fd
  // ever reading as readable again, so epoll wake-ups alone would strand
  // them. Also unparks expired deadlines (the step path sheds those). Lock
  // held.
  void sweep_parked_locked(Clock::time_point now);

  const OnlineEngine& engine_;
  const Options options_;

  mutable std::mutex mutex_;
  std::condition_variable done_cv_;
  std::vector<std::unique_ptr<Ticket>> tickets_;
  std::deque<std::size_t> waiting_;  // submitted, not yet begun
  // Admitted requests ready for their next stage, highest priority first;
  // same-priority requests round-robin (a stepped request re-enters at the
  // back of its bucket).
  std::map<int, std::deque<std::size_t>, std::greater<int>> runnable_;
  std::size_t inflight_ = 0;  // begun, not finished
  std::size_t finished_ = 0;  // done tickets (completed + refused + failed)
  // Readiness dispatch: tickets parked on in-flight wire ops, the fds they
  // wait on, and per-fd registration refcounts for the poller.
  std::vector<std::size_t> parked_;
  std::map<int, std::vector<std::size_t>> parked_by_fd_;
  std::map<int, std::size_t> fd_refs_;
  std::size_t outstanding_ops_ = 0;  // unsettled ops across parked tickets
  bool paused_ = false;
  bool stopping_ = false;
  bool shed_all_ = false;  // set by shutdown(); acted on by the reactor thread
  Stats counters_;  // submitted/max_inflight tracked inline, rest on completion
  std::vector<double> latencies_;
  std::vector<std::size_t> completion_order_;

  rpc::EventFd wake_;
  rpc::Poller poller_;
  std::thread reactor_;
};

}  // namespace d3::runtime
