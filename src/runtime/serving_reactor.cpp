#include "runtime/serving_reactor.h"

#include <algorithm>
#include <stdexcept>
#include <utility>

#include "rpc/transport.h"

namespace d3::runtime {

namespace {

double seconds_between(std::chrono::steady_clock::time_point from,
                       std::chrono::steady_clock::time_point to) {
  return std::chrono::duration<double>(to - from).count();
}

}  // namespace

ServingReactor::ServingReactor(const OnlineEngine& engine)
    : ServingReactor(engine, Options{}) {}

ServingReactor::ServingReactor(const OnlineEngine& engine, Options options)
    : engine_(engine), options_(std::move(options)), paused_(options_.start_paused) {
  // The eventfd is the loop's only standing registration; submissions and
  // shutdown signal it to interrupt an idle epoll wait.
  poller_.add(wake_.fd(), static_cast<std::uint64_t>(wake_.fd()));
  reactor_ = std::thread([this] { reactor_loop(); });
}

ServingReactor::~ServingReactor() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    paused_ = false;  // a paused reactor still owes every queued request
  }
  wake_.signal();
  {
    std::unique_lock<std::mutex> lock(mutex_);
    done_cv_.wait(lock, [&] { return finished_ == tickets_.size(); });
    stopping_ = true;
  }
  wake_.signal();
  reactor_.join();
}

std::size_t ServingReactor::submit(const dnn::Tensor& input) { return submit(input, {}); }

std::size_t ServingReactor::submit(const dnn::Tensor& input, const SubmitOptions& so) {
  if (!(input.shape() == engine_.network().input_shape()))
    throw std::invalid_argument("ServingReactor: input shape mismatch");
  const Clock::time_point now = Clock::now();
  auto ticket = std::make_unique<Ticket>();
  ticket->input = input;
  ticket->priority = so.priority;
  ticket->deadline_seconds =
      so.deadline_seconds < 0 ? options_.default_deadline_seconds : so.deadline_seconds;
  ticket->submitted_at = now;
  if (ticket->deadline_seconds > 0)
    ticket->deadline_at = now + std::chrono::duration_cast<Clock::duration>(
                                    std::chrono::duration<double>(ticket->deadline_seconds));

  std::size_t id = 0;
  bool refused_someone = false;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (stopping_ || shed_all_)
      throw std::logic_error("ServingReactor: submit after shutdown began");
    id = tickets_.size();

    // Latency-aware shedding: if the pipeline model already predicts this
    // request finishes past its deadline from its queue position, refuse it
    // now — it would only burn capacity on a worthless result. Never begun,
    // so no transport state to tear down.
    if (ticket->deadline_seconds > 0 && options_.pipeline) {
      // Waiting requests queue behind the newcomer's batch position; admitted
      // ones already occupy pipeline stages, which the occupancy-aware
      // prediction prices at their full residual frame latency.
      const double predicted = sim::predicted_completion_seconds(
          *options_.pipeline, waiting_.size(), inflight_);
      if (predicted > ticket->deadline_seconds) {
        ticket->error = std::make_exception_ptr(RequestShed(
            id, "predicted completion " + std::to_string(predicted) + "s > deadline " +
                    std::to_string(ticket->deadline_seconds) + "s"));
        ticket->done = true;
        tickets_.push_back(std::move(ticket));
        ++finished_;
        ++counters_.shed;
        refused_someone = true;
      }
    }

    if (!refused_someone) {
      // Drop-oldest admission on the waiting queue: the new request
      // displaces the stalest waiting one.
      if (options_.admission_capacity > 0 &&
          waiting_.size() >= options_.admission_capacity) {
        const std::size_t victim = waiting_.front();
        waiting_.pop_front();
        Ticket& old = *tickets_[victim];
        old.error = std::make_exception_ptr(RequestDropped(victim));
        old.done = true;
        ++finished_;
        ++counters_.dropped;
        refused_someone = true;
      }
      tickets_.push_back(std::move(ticket));
      waiting_.push_back(id);
    }
  }
  if (refused_someone) done_cv_.notify_all();
  wake_.signal();
  return id;
}

void ServingReactor::resume() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    paused_ = false;
  }
  wake_.signal();
}

void ServingReactor::shutdown() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    shed_all_ = true;
    paused_ = false;  // a paused reactor must still run the shed pass
  }
  wake_.signal();
  std::unique_lock<std::mutex> lock(mutex_);
  done_cv_.wait(lock, [&] { return finished_ == tickets_.size(); });
}

void ServingReactor::shed_all_locked() {
  const Clock::time_point now = Clock::now();
  const auto shed = [&](std::size_t id) {
    Ticket& ticket = *tickets_[id];
    ticket.error = std::make_exception_ptr(RequestShed(id, "reactor shutdown"));
    if (ticket.cont) {
      // Admitted mid-flight: tear down the continuation (closing its
      // transport-side request) and retire it through the normal completion
      // bookkeeping.
      ticket.cont.reset();
      finish_locked(id, ticket, now);
    } else {
      ticket.done = true;
      ++finished_;
    }
    ++counters_.shutdown_shed;
  };
  for (const std::size_t id : waiting_) shed(id);
  waiting_.clear();
  // Parked stages are shed too: unpark first so fd registrations and the
  // wire-wait accounting unwind through the one bookkeeping path.
  const std::vector<std::size_t> parked = parked_;
  for (const std::size_t id : parked) unpark_locked(id, now);
  for (auto& [priority, bucket] : runnable_)
    for (const std::size_t id : bucket) shed(id);
  runnable_.clear();
  done_cv_.notify_all();
}

void ServingReactor::unpark_locked(std::size_t id, Clock::time_point now) {
  Ticket& ticket = *tickets_[id];
  for (const int fd : ticket.parked_fds) {
    auto ref = fd_refs_.find(fd);
    if (ref != fd_refs_.end() && --ref->second == 0) {
      fd_refs_.erase(ref);
      try {
        poller_.remove(fd);
      } catch (const rpc::SocketError&) {
        // Channel death closed the fd out from under us; the kernel already
        // dropped the registration.
      }
    }
    auto by = parked_by_fd_.find(fd);
    if (by != parked_by_fd_.end()) {
      auto& ids = by->second;
      ids.erase(std::remove(ids.begin(), ids.end(), id), ids.end());
      if (ids.empty()) parked_by_fd_.erase(by);
    }
  }
  ticket.parked_fds.clear();
  if (ticket.parked_since) {
    counters_.wire_wait_ms +=
        std::chrono::duration<double, std::milli>(now - *ticket.parked_since).count();
    ticket.parked_since.reset();
  }
  outstanding_ops_ -= ticket.parked_ops;
  ticket.parked_ops = 0;
  parked_.erase(std::remove(parked_.begin(), parked_.end(), id), parked_.end());
  runnable_[ticket.priority].push_back(id);
}

void ServingReactor::sweep_parked_locked(Clock::time_point now) {
  std::vector<std::size_t> ready;
  for (const std::size_t id : parked_) {
    const Ticket& ticket = *tickets_[id];
    if (ticket.cont->ops_settled() || (ticket.deadline_at && now >= *ticket.deadline_at))
      ready.push_back(id);
  }
  for (const std::size_t id : ready) unpark_locked(id, now);
}

void ServingReactor::expire_waiting_locked(Clock::time_point now) {
  for (auto it = waiting_.begin(); it != waiting_.end();) {
    Ticket& ticket = *tickets_[*it];
    if (ticket.deadline_at && now >= *ticket.deadline_at) {
      ticket.error = std::make_exception_ptr(
          RequestShed(*it, "deadline expired before admission"));
      ticket.done = true;
      ++finished_;
      ++counters_.expired;
      it = waiting_.erase(it);
      done_cv_.notify_all();
    } else {
      ++it;
    }
  }
}

int ServingReactor::idle_timeout_ms_locked(Clock::time_point now) const {
  std::optional<Clock::time_point> earliest;
  for (const std::size_t id : waiting_) {
    const Ticket& ticket = *tickets_[id];
    if (ticket.deadline_at && (!earliest || *ticket.deadline_at < *earliest))
      earliest = *ticket.deadline_at;
  }
  // A parked stage's deadline must bound the epoll sleep too: its fd may
  // never turn readable (dead worker), and expiry is how it gets shed.
  for (const std::size_t id : parked_) {
    const Ticket& ticket = *tickets_[id];
    if (ticket.deadline_at && (!earliest || *ticket.deadline_at < *earliest))
      earliest = *ticket.deadline_at;
  }
  if (!earliest) return -1;
  const auto ms =
      std::chrono::duration_cast<std::chrono::milliseconds>(*earliest - now).count();
  return ms < 0 ? 0 : static_cast<int>(ms) + 1;  // +1: land past the deadline, not on it
}

void ServingReactor::finish_locked(std::size_t id, Ticket& ticket, Clock::time_point now) {
  ticket.done = true;
  ++finished_;
  --inflight_;
  if (!ticket.error) {
    ++counters_.completed;
    latencies_.push_back(seconds_between(ticket.submitted_at, now));
    completion_order_.push_back(id);
  }
}

bool ServingReactor::spend_replay(Ticket& ticket) {
  if (ticket.replays >= options_.max_replays) {
    ticket.error = std::current_exception();
    return false;
  }
  ++ticket.replays;
  std::lock_guard<std::mutex> lock(mutex_);
  ++counters_.replayed;
  return true;
}

bool ServingReactor::begin(Ticket& ticket) {
  for (;;) {
    try {
      // Readiness mode issues the admission round-trips (kBegin broadcast +
      // input seed) as pipelined sends; the first kStep parks on them.
      ticket.cont = options_.readiness_dispatch ? engine_.start_async(ticket.input)
                                                : engine_.start(ticket.input);
      return true;
    } catch (const rpc::ChannelDied&) {
      // Transcript purity makes a replay from the retained input
      // byte-identical to a first run.
      if (!spend_replay(ticket)) return false;
    } catch (...) {
      ticket.error = std::current_exception();
      return false;
    }
  }
}

void ServingReactor::reactor_loop() {
  enum class Act { kIdle, kAdmit, kStep };
  for (;;) {
    // Heartbeat starvation fix: the probe deadline is honoured on EVERY loop
    // iteration, not just the idle branch — a reactor saturated with runnable
    // stages would otherwise never observe a silent worker (one that stopped
    // answering without closing its socket) until the traffic happened to
    // touch its channel.
    if (engine_.transport()->heartbeat_due_ms() == 0) {
      try {
        engine_.transport()->heartbeat_poll();
      } catch (const rpc::ChannelDied&) {
        // The channel was reopened by recovery; in-flight requests touching
        // it will replay under max_replays. Record the proactive detection.
        std::lock_guard<std::mutex> lock(mutex_);
        ++counters_.heartbeat_deaths;
      }
    }

    std::size_t id = 0;
    Ticket* claimed = nullptr;
    Act act = Act::kIdle;
    int timeout_ms = -1;
    {
      std::lock_guard<std::mutex> lock(mutex_);
      if (stopping_) return;  // set only once every ticket is finished
      if (shed_all_) shed_all_locked();
      expire_waiting_locked(Clock::now());
      if (!parked_.empty()) sweep_parked_locked(Clock::now());
      if (!paused_ && inflight_ < options_.max_inflight && !waiting_.empty()) {
        // Admission outranks progress: a burst is begun (opening its
        // transport state) before existing work advances, up to max_inflight
        // — that is what lets one coordinator hold thousands of requests
        // open at once.
        id = waiting_.front();
        waiting_.pop_front();
        ++inflight_;
        counters_.max_inflight = std::max(counters_.max_inflight, inflight_);
        act = Act::kAdmit;
      } else if (!runnable_.empty()) {
        auto bucket = runnable_.begin();  // highest priority
        id = bucket->second.front();
        bucket->second.pop_front();
        if (bucket->second.empty()) runnable_.erase(bucket);
        act = Act::kStep;
      } else {
        timeout_ms = idle_timeout_ms_locked(Clock::now());
      }
      // The Ticket is heap-stable, but tickets_ itself reallocates under
      // concurrent submit(): index it only while the lock is held.
      if (act != Act::kIdle) claimed = tickets_[id].get();
    }

    if (act == Act::kIdle) {
      // Sleep on the epoll set until a submission/resume/shutdown signal, a
      // parked stage's channel turning readable, the earliest deadline, or
      // the next liveness probe — whichever first. The loop-top heartbeat
      // check fires the probe after the wake.
      const int heartbeat_ms = engine_.transport()->heartbeat_due_ms();
      if (heartbeat_ms >= 0 && (timeout_ms < 0 || heartbeat_ms < timeout_ms))
        timeout_ms = heartbeat_ms;
      const std::vector<std::uint64_t> tags = poller_.wait(timeout_ms);
      wake_.drain();
      bool channel_ready = false;
      for (const std::uint64_t tag : tags)
        if (tag != static_cast<std::uint64_t>(wake_.fd())) channel_ready = true;
      if (channel_ready) {
        // A parked stage's reply landed. Replies complete in FIFO issue order
        // per channel, so only the OLDEST parked ticket on a readable fd can
        // make progress — unparking everyone would poll-and-repark the whole
        // herd on every reply. The head ticket's poll drains the channel; ops
        // that settles for the others are picked up syscall-free by the sweep,
        // and level-triggered epoll re-fires while data remains unread.
        const Clock::time_point now = Clock::now();
        std::lock_guard<std::mutex> lock(mutex_);
        for (const std::uint64_t tag : tags) {
          const int fd = static_cast<int>(tag);
          if (fd == wake_.fd()) continue;
          const auto by = parked_by_fd_.find(fd);
          if (by == parked_by_fd_.end()) continue;
          unpark_locked(by->second.front(), now);
        }
      }
      continue;
    }

    Ticket& ticket = *claimed;  // only the reactor mutates it until done

    if (act == Act::kAdmit) {
      // Admission-time expiry: the request may have aged out while queued.
      if (ticket.deadline_at && Clock::now() >= *ticket.deadline_at) {
        std::lock_guard<std::mutex> lock(mutex_);
        ticket.error = std::make_exception_ptr(
            RequestShed(id, "deadline expired before admission"));
        finish_locked(id, ticket, Clock::now());
        ++counters_.expired;
        done_cv_.notify_all();
        continue;
      }
      const bool begun = begin(ticket);
      std::lock_guard<std::mutex> lock(mutex_);
      if (begun) {
        runnable_[ticket.priority].push_back(id);
      } else {
        finish_locked(id, ticket, Clock::now());
        done_cv_.notify_all();
      }
      continue;
    }

    // Act::kStep — run exactly one stage outside the lock.
    // Between-stage expiry: abandon work whose deadline already passed
    // instead of finishing a worthless result.
    if (ticket.deadline_at && Clock::now() >= *ticket.deadline_at) {
      std::lock_guard<std::mutex> lock(mutex_);
      ticket.cont.reset();  // tears down per-request transport state
      ticket.error =
          std::make_exception_ptr(RequestShed(id, "deadline expired in flight"));
      finish_locked(id, ticket, Clock::now());
      ++counters_.expired;
      done_cv_.notify_all();
      continue;
    }

    bool finished = false;
    bool parked = false;
    try {
      bool done = false;
      if (options_.readiness_dispatch) {
        const OnlineEngine::StepStatus status = engine_.step_async(*ticket.cont);
        done = status == OnlineEngine::StepStatus::kDone;
        parked = status == OnlineEngine::StepStatus::kParked;
      } else {
        done = engine_.step(*ticket.cont);
      }
      {
        std::lock_guard<std::mutex> lock(mutex_);
        ++counters_.steps;
      }
      if (done) {
        ticket.result = engine_.take(std::move(*ticket.cont));
        finished = true;
      }
    } catch (const rpc::ChannelDied&) {
      // End-to-end replay fallback, bounded by max_replays.
      finished = !(spend_replay(ticket) && begin(ticket));
    } catch (...) {
      ticket.error = std::current_exception();
      finished = true;
    }

    if (parked && !finished) {
      // Collect the fds outside the lock: fd() flushes the channel outbox
      // (the stage's requests must be on the wire before readiness of these
      // fds means anything).
      std::vector<int> fds = ticket.cont->pending_fds();
      const Clock::time_point now = Clock::now();
      std::lock_guard<std::mutex> lock(mutex_);
      if (fds.empty() || ticket.cont->ops_settled()) {
        // Replies landed between the park decision and here (flushing can
        // drain), or no fd to wait on — just keep the ticket runnable.
        runnable_[ticket.priority].push_back(id);
      } else {
        ticket.parked_fds = std::move(fds);
        ticket.parked_since = now;
        ticket.parked_ops = ticket.cont->ops_outstanding();
        outstanding_ops_ += ticket.parked_ops;
        counters_.outstanding_ops_high_water =
            std::max(counters_.outstanding_ops_high_water, outstanding_ops_);
        ++counters_.parked_stages;
        parked_.push_back(id);
        for (const int fd : ticket.parked_fds) {
          parked_by_fd_[fd].push_back(id);
          if (++fd_refs_[fd] == 1) {
            try {
              poller_.add(fd, static_cast<std::uint64_t>(fd));
            } catch (const rpc::SocketError&) {
              // Raced a channel close/reopen; the settled sweep still
              // resumes the ticket, this registration was only a fast path.
            }
          }
        }
      }
      continue;
    }

    std::lock_guard<std::mutex> lock(mutex_);
    if (finished) {
      finish_locked(id, ticket, Clock::now());
      done_cv_.notify_all();
    } else {
      // Re-enter at the back of the priority bucket: same-priority requests
      // round-robin stage-by-stage.
      runnable_[ticket.priority].push_back(id);
    }
  }
}

InferenceResult ServingReactor::wait(std::size_t id) {
  std::unique_lock<std::mutex> lock(mutex_);
  if (id >= tickets_.size()) throw std::out_of_range("ServingReactor: unknown request id");
  done_cv_.wait(lock, [&] { return tickets_[id]->done; });
  Ticket& ticket = *tickets_[id];
  if (ticket.collected)
    throw std::logic_error("ServingReactor: result already collected");
  ticket.collected = true;
  if (ticket.error) std::rethrow_exception(ticket.error);
  return std::move(ticket.result);
}

std::vector<InferenceResult> ServingReactor::drain() {
  std::unique_lock<std::mutex> lock(mutex_);
  const std::size_t count = tickets_.size();
  std::vector<InferenceResult> results;
  results.reserve(count);
  for (std::size_t id = 0; id < count; ++id) {
    done_cv_.wait(lock, [&] { return tickets_[id]->done; });
    Ticket& ticket = *tickets_[id];
    if (ticket.collected) continue;  // a concurrent wait() claimed it
    ticket.collected = true;
    if (ticket.error) {
      try {
        std::rethrow_exception(ticket.error);
      } catch (const RequestDropped&) {
        continue;  // dropped or shed: accounted in stats, not a result
      }
    }
    results.push_back(std::move(ticket.result));
  }
  return results;
}

ServingReactor::Stats ServingReactor::stats() const {
  std::lock_guard<std::mutex> lock(mutex_);
  Stats s = counters_;
  s.submitted = tickets_.size();
  return s;
}

std::vector<double> ServingReactor::latencies_seconds() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return latencies_;
}

std::vector<std::size_t> ServingReactor::completion_order() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return completion_order_;
}

}  // namespace d3::runtime
