// TimingTransport: a pass-through rpc::Transport decorator that counts and
// times every verb the engine issues, blocking and issue_* forms alike (the
// FaultInjectionTransport pattern, minus the faults).
//
// Every virtual is forwarded unchanged, so outputs and transcripts are those
// of the wrapped transport (tests/timing_transport_test.cpp pins this). Per
// verb it keeps the number of calls the wrapped transport handled remotely,
// their time and payload bytes. An issued op is timed from issue until its
// completion is first observed; time spent blocked in AsyncOp::wait() is kept
// separately. With a Tracer attached each call is also recorded as a span,
// parented to the calling thread's open span or, for verbs from other threads
// (tile lanes), to the request's open stage span.
#pragma once

#include <array>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "rpc/transport.h"
#include "trace.h"

namespace perfbench {

enum class Verb {
  kSeed,
  kSend,
  kFetch,
  kRunLayer,
  kRunStack,
  kPutTile,
  kRunTile,
  kFetchTile,
  kBegin,
  kEnd,
};
inline constexpr std::size_t kVerbCount = 10;
const char* verb_name(Verb verb);

class TimingTransport final : public d3::rpc::Transport {
 public:
  struct VerbStats {
    std::uint64_t count = 0;  // calls handled by a remote node
    std::int64_t ns = 0;      // summed call (or issue-to-completion) time
    std::uint64_t bytes = 0;  // tensor payload bytes moved
  };
  struct Stats {
    std::array<VerbStats, kVerbCount> verbs{};
    std::int64_t op_wait_ns = 0;  // time blocked in AsyncOp::wait()
    std::uint64_t errors = 0;     // verbs that threw or completed with an error
  };

  // `tracer` may be null: counters only.
  TimingTransport(std::shared_ptr<d3::rpc::Transport> inner, Tracer* tracer);

  Stats stats() const;

  std::string name() const override { return "timing(" + inner_->name() + ")"; }
  std::uint64_t open_request() override;
  void open_request_as(std::uint64_t request) override;
  void close_request(std::uint64_t request) noexcept override;
  void seed(std::uint64_t request, const std::string& node, std::uint64_t slot,
            const d3::dnn::Tensor& tensor) override;
  std::optional<d3::dnn::Tensor> send(std::uint64_t request,
                                      const d3::runtime::MessageRecord& meta,
                                      std::uint64_t slot,
                                      const d3::dnn::Tensor& tensor) override;
  bool run_layer(std::uint64_t request, const std::string& node,
                 d3::dnn::LayerId layer) override;
  bool run_stack(std::uint64_t request, const std::string& node) override;
  d3::dnn::Tensor fetch(std::uint64_t request, const std::string& node,
                        std::uint64_t slot) override;

  OpHandle issue_seed(std::uint64_t request, const std::string& node, std::uint64_t slot,
                      const d3::dnn::Tensor& tensor) override;
  OpHandle issue_send(std::uint64_t request, const d3::runtime::MessageRecord& meta,
                      std::uint64_t slot, const d3::dnn::Tensor& tensor) override;
  OpHandle issue_run_layer(std::uint64_t request, const std::string& node,
                           d3::dnn::LayerId layer) override;
  OpHandle issue_run_stack(std::uint64_t request, const std::string& node) override;
  OpHandle issue_fetch(std::uint64_t request, const std::string& node,
                       std::uint64_t slot) override;
  std::uint64_t issue_open_request(std::vector<OpHandle>& ops) override;

  bool reopen(std::uint64_t request, const std::string& node) override;
  std::size_t prune_tile_workers() override { return inner_->prune_tile_workers(); }
  bool send_peer(std::uint64_t request, const d3::runtime::MessageRecord& meta,
                 std::uint64_t slot) override {
    return inner_->send_peer(request, meta, slot);
  }
  bool replica_push(std::uint64_t request, const d3::runtime::MessageRecord& meta,
                    std::uint64_t slot) override {
    return inner_->replica_push(request, meta, slot);
  }
  void ping(const std::string& node) override { inner_->ping(node); }
  std::vector<std::string> heartbeat_targets() override { return inner_->heartbeat_targets(); }
  int heartbeat_due_ms() override { return inner_->heartbeat_due_ms(); }

  bool has_tile_workers() const override { return inner_->has_tile_workers(); }
  std::size_t tile_worker_count() const override { return inner_->tile_worker_count(); }
  std::string tile_node(std::size_t tile) const override { return inner_->tile_node(tile); }
  void put_tile(std::uint64_t request, const d3::runtime::MessageRecord& meta,
                std::size_t tile, const d3::dnn::Tensor& input) override;
  void run_tile(std::uint64_t request, std::size_t tile) override;
  d3::dnn::Tensor fetch_tile(std::uint64_t request, std::size_t tile) override;

 private:
  class TimedOp;

  // One in-progress verb call: stamped at entry, completed by finish().
  struct Call {
    Verb verb;
    std::uint64_t transport_request;
    std::int64_t arg;
    std::int64_t start_ns;
    std::uint64_t parent;
    std::uint64_t request;
  };
  Call enter(Verb verb, std::uint64_t transport_request, std::int64_t arg = -1) const;
  // Counts `call` when `handled` (the remote node did the work) and records
  // its span; `error` counts a failure either way.
  void finish(const Call& call, std::int64_t end_ns, bool handled, std::uint64_t bytes,
              bool error);
  // Runs one blocking verb as a timed call; `body` returns whether the remote
  // node handled it and the payload bytes moved. Exceptions are counted and
  // rethrown.
  struct Outcome {
    bool handled;
    std::uint64_t bytes;
  };
  template <typename Body>
  void timed(const Call& call, Body&& body);
  template <typename Issue>
  OpHandle issued(const Call& call, Issue&& issue);
  // Wraps an issued handle so its completion is timed; invalid handles (the
  // verb was not handled remotely) pass through.
  OpHandle wrap(const Call& call, OpHandle op);
  std::int64_t now_ns() const { return tracer_ ? tracer_->now_ns() : clock_.now_ns(); }

  std::shared_ptr<d3::rpc::Transport> inner_;
  Tracer* tracer_;
  Tracer clock_;  // time base when no tracer is attached
  mutable std::mutex mutex_;
  Stats stats_;
};

}  // namespace perfbench
