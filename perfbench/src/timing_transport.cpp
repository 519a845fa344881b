#include "timing_transport.h"

#include <atomic>
#include <utility>

namespace perfbench {

using d3::dnn::Tensor;
using d3::runtime::MessageRecord;

const char* verb_name(Verb verb) {
  static constexpr const char* kNames[kVerbCount] = {
      "seed",     "send",    "fetch",      "run_layer", "run_stack",
      "put_tile", "run_tile", "fetch_tile", "begin",     "end"};
  return kNames[static_cast<std::size_t>(verb)];
}

namespace {

std::uint64_t tensor_bytes(const Tensor& tensor) {
  return static_cast<std::uint64_t>(tensor.size() * sizeof(float));
}

}  // namespace

// An issued op, timed from issue until its completion is first observed
// (settled(), poll() or wait()). Completion fields are copied from the inner
// op exactly when the inner op publishes them (poll()/wait()), so callers see
// the wrapped transport's semantics unchanged.
class TimingTransport::TimedOp final : public AsyncOp {
 public:
  TimedOp(TimingTransport* owner, Call call, OpHandle inner, std::uint64_t issue_bytes)
      : owner_(owner), call_(call), inner_(std::move(inner)), issue_bytes_(issue_bytes) {
    bytes = inner_.bytes();
  }

  bool poll() override {
    const bool done = inner_.poll();
    if (done) complete();
    return done;
  }
  void wait() override {
    const std::int64_t start = owner_->now_ns();
    inner_.wait();
    {
      std::lock_guard<std::mutex> lock(owner_->mutex_);
      owner_->stats_.op_wait_ns += owner_->now_ns() - start;
    }
    complete();
  }
  bool settled() const override {
    const bool done = inner_.settled();
    if (done) {
      std::int64_t unseen = 0;
      first_seen_ns_.compare_exchange_strong(unseen, owner_->now_ns());
    }
    return done;
  }
  int fd() override { return inner_.fd(); }

 private:
  void complete() {
    if (completed_.exchange(true)) return;
    error = inner_.error();
    tensor = std::move(inner_.tensor());
    bytes = inner_.bytes();
    std::int64_t unseen = 0;
    first_seen_ns_.compare_exchange_strong(unseen, owner_->now_ns());
    owner_->finish(call_, first_seen_ns_.load(), true,
                   tensor ? tensor_bytes(*tensor) : issue_bytes_, error != nullptr);
  }

  TimingTransport* owner_;
  Call call_;
  mutable OpHandle inner_;
  std::uint64_t issue_bytes_;
  std::atomic<bool> completed_{false};
  mutable std::atomic<std::int64_t> first_seen_ns_{0};
};

TimingTransport::TimingTransport(std::shared_ptr<d3::rpc::Transport> inner, Tracer* tracer)
    : inner_(std::move(inner)), tracer_(tracer) {}

TimingTransport::Stats TimingTransport::stats() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return stats_;
}

TimingTransport::Call TimingTransport::enter(Verb verb, std::uint64_t transport_request,
                                             std::int64_t arg) const {
  Call call{verb, transport_request, arg, now_ns(), 0, 0};
  if (!tracer_) return call;
  const Context& context = current_context();
  call.request = context.request ? context.request : tracer_->request_of(transport_request);
  call.parent = context.span ? context.span : tracer_->open_stage(call.request);
  return call;
}

void TimingTransport::finish(const Call& call, std::int64_t end_ns, bool handled,
                             std::uint64_t bytes, bool error) {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (error) ++stats_.errors;
    if (handled) {
      VerbStats& verb = stats_.verbs[static_cast<std::size_t>(call.verb)];
      ++verb.count;
      verb.ns += end_ns - call.start_ns;
      verb.bytes += bytes;
    }
  }
  if (!tracer_ || !handled) return;
  Span span;
  span.id = tracer_->next_id();
  span.parent = call.parent;
  span.request = call.request;
  span.transport_request = call.transport_request;
  span.name = std::string("rpc.") + verb_name(call.verb);
  span.start_ns = call.start_ns;
  span.end_ns = end_ns;
  span.arg = call.arg;
  span.bytes = bytes;
  span.thread = thread_index();
  tracer_->record(std::move(span));
}

TimingTransport::OpHandle TimingTransport::wrap(const Call& call, OpHandle op) {
  if (!op.valid()) {
    finish(call, now_ns(), false, 0, false);
    return op;
  }
  const std::uint64_t issue_bytes = op.bytes();
  return OpHandle(std::make_shared<TimedOp>(this, call, std::move(op), issue_bytes));
}

template <typename Body>
void TimingTransport::timed(const Call& call, Body&& body) {
  try {
    const Outcome outcome = body();
    finish(call, now_ns(), outcome.handled, outcome.bytes, false);
  } catch (...) {
    finish(call, now_ns(), false, 0, true);
    throw;
  }
}

template <typename Issue>
TimingTransport::OpHandle TimingTransport::issued(const Call& call, Issue&& issue) {
  try {
    return wrap(call, issue());
  } catch (...) {
    finish(call, now_ns(), false, 0, true);
    throw;
  }
}

std::uint64_t TimingTransport::open_request() {
  Call call = enter(Verb::kBegin, 0);
  std::uint64_t id = 0;
  timed(call, [&] {
    id = inner_->open_request();
    call.transport_request = id;
    if (tracer_ && call.request) tracer_->bind_transport_request(id, call.request);
    return Outcome{true, 0};
  });
  return id;
}

void TimingTransport::open_request_as(std::uint64_t request) {
  timed(enter(Verb::kBegin, request), [&] {
    inner_->open_request_as(request);
    return Outcome{true, 0};
  });
}

std::uint64_t TimingTransport::issue_open_request(std::vector<OpHandle>& ops) {
  // Counted once, like the blocking open_request() broadcast; the per-node
  // kBegin handles pass through untimed.
  Call call = enter(Verb::kBegin, 0);
  std::uint64_t id = 0;
  timed(call, [&] {
    id = inner_->issue_open_request(ops);
    call.transport_request = id;
    if (tracer_ && call.request) tracer_->bind_transport_request(id, call.request);
    return Outcome{true, 0};
  });
  return id;
}

bool TimingTransport::reopen(std::uint64_t request, const std::string& node) {
  bool handled = false;
  timed(enter(Verb::kBegin, request), [&] {
    handled = inner_->reopen(request, node);
    return Outcome{handled, 0};
  });
  return handled;
}

void TimingTransport::close_request(std::uint64_t request) noexcept {
  const Call call = enter(Verb::kEnd, request);
  inner_->close_request(request);
  finish(call, now_ns(), true, 0, false);
}

void TimingTransport::seed(std::uint64_t request, const std::string& node, std::uint64_t slot,
                           const Tensor& tensor) {
  timed(enter(Verb::kSeed, request), [&] {
    inner_->seed(request, node, slot, tensor);
    return Outcome{true, tensor_bytes(tensor)};
  });
}

std::optional<Tensor> TimingTransport::send(std::uint64_t request, const MessageRecord& meta,
                                            std::uint64_t slot, const Tensor& tensor) {
  std::optional<Tensor> wired;
  timed(enter(Verb::kSend, request), [&] {
    wired = inner_->send(request, meta, slot, tensor);
    return Outcome{true, tensor_bytes(tensor)};
  });
  return wired;
}

bool TimingTransport::run_layer(std::uint64_t request, const std::string& node,
                                d3::dnn::LayerId layer) {
  bool handled = false;
  timed(enter(Verb::kRunLayer, request, static_cast<std::int64_t>(layer)), [&] {
    handled = inner_->run_layer(request, node, layer);
    return Outcome{handled, 0};
  });
  return handled;
}

bool TimingTransport::run_stack(std::uint64_t request, const std::string& node) {
  bool handled = false;
  timed(enter(Verb::kRunStack, request), [&] {
    handled = inner_->run_stack(request, node);
    return Outcome{handled, 0};
  });
  return handled;
}

Tensor TimingTransport::fetch(std::uint64_t request, const std::string& node,
                              std::uint64_t slot) {
  Tensor out;
  timed(enter(Verb::kFetch, request), [&] {
    out = inner_->fetch(request, node, slot);
    return Outcome{true, tensor_bytes(out)};
  });
  return out;
}

TimingTransport::OpHandle TimingTransport::issue_seed(std::uint64_t request,
                                                      const std::string& node, std::uint64_t slot,
                                                      const Tensor& tensor) {
  return issued(enter(Verb::kSeed, request),
                [&] { return inner_->issue_seed(request, node, slot, tensor); });
}

TimingTransport::OpHandle TimingTransport::issue_send(std::uint64_t request,
                                                      const MessageRecord& meta,
                                                      std::uint64_t slot, const Tensor& tensor) {
  return issued(enter(Verb::kSend, request),
                [&] { return inner_->issue_send(request, meta, slot, tensor); });
}

TimingTransport::OpHandle TimingTransport::issue_run_layer(std::uint64_t request,
                                                           const std::string& node,
                                                           d3::dnn::LayerId layer) {
  return issued(enter(Verb::kRunLayer, request, static_cast<std::int64_t>(layer)),
                [&] { return inner_->issue_run_layer(request, node, layer); });
}

TimingTransport::OpHandle TimingTransport::issue_run_stack(std::uint64_t request,
                                                           const std::string& node) {
  return issued(enter(Verb::kRunStack, request),
                [&] { return inner_->issue_run_stack(request, node); });
}

TimingTransport::OpHandle TimingTransport::issue_fetch(std::uint64_t request,
                                                       const std::string& node,
                                                       std::uint64_t slot) {
  return issued(enter(Verb::kFetch, request),
                [&] { return inner_->issue_fetch(request, node, slot); });
}

void TimingTransport::put_tile(std::uint64_t request, const MessageRecord& meta,
                               std::size_t tile, const Tensor& input) {
  timed(enter(Verb::kPutTile, request, static_cast<std::int64_t>(tile)), [&] {
    inner_->put_tile(request, meta, tile, input);
    return Outcome{true, tensor_bytes(input)};
  });
}

void TimingTransport::run_tile(std::uint64_t request, std::size_t tile) {
  timed(enter(Verb::kRunTile, request, static_cast<std::int64_t>(tile)), [&] {
    inner_->run_tile(request, tile);
    return Outcome{true, 0};
  });
}

Tensor TimingTransport::fetch_tile(std::uint64_t request, std::size_t tile) {
  Tensor out;
  timed(enter(Verb::kFetchTile, request, static_cast<std::int64_t>(tile)), [&] {
    out = inner_->fetch_tile(request, tile);
    return Outcome{true, tensor_bytes(out)};
  });
  return out;
}

}  // namespace perfbench
