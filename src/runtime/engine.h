// Online execution engine (paper Fig. 2): executes a deployment plan on *real*
// tensors across the computation nodes of the three tiers, orchestrating the
// distributed and parallel processing and the communication among partitions.
//
// Node model. The device node runs its layers and ships boundary tensors to
// the edge/cloud; the edge coordinator scatters VSM fused-tile inputs to its
// worker nodes, gathers their output tiles, and forwards intermediate results
// to the cloud; the cloud node finishes the inference. Every inter-node tensor
// is recorded as a sequence-numbered message, so tests can assert both
// losslessness (the distributed output equals the single-node reference
// bitwise) and traffic accounting (the bytes on each tier boundary match
// core::boundary_traffic).
//
// Transport model. Where those tensors physically live is delegated to an
// rpc::Transport (Options::transport): the engine walks the plan and records
// the transcript — a pure function of the plan, identical on every transport —
// while the transport moves payload bytes and, for remote nodes, runs the
// layers in the worker process that hosts the tier. The default
// InProcessTransport passes tensors by reference (zero-copy, the original
// behaviour); SerializingLoopback round-trips every inter-node tensor through
// the binary wire format; SocketTransport places each tier in its own OS
// process over TCP. Bitwise identity with exec::Executor holds on all three.
//
// A boundary tensor is shipped by the cheapest path the transport offers:
// first Transport::send_peer (producer pushes straight to the consumer's
// process — the coordinator never holds the bytes), else the relay path
// (materialise the producer's output at the coordinator on demand via fetch,
// then send to the consumer). Remote outputs are fetched lazily — only when a
// relay or the final result actually needs them. When the transport shards
// the VSM tile plan across real edge worker processes (has_tile_workers), the
// engine acts as the edge coordinator: it crops tile inputs, scatters them,
// runs tiles concurrently across the worker shards, and gathers outputs in
// tile order — same transcript, same bits, as every other path.
//
// Failure model. A node that loses its per-request state mid-request (worker
// death, detected as rpc::ChannelDied) is recovered tier-granularly by
// default: the engine reopens the request on the re-established node,
// re-seeds only the slots the dead incarnation held (from coordinator-held
// boundary tensors, or fetched from surviving producers), and re-runs only
// the interrupted tier — a dead tile worker's tiles re-shard across the
// survivors. Transcript records and payload shipping are tracked separately,
// so recovery is unobservable in the transcript and the output stays
// bitwise-identical; Stats counts what recovery cost. See
// docs/ARCHITECTURE.md "Failure recovery".
//
// Concurrency model. Inference is staged tier-by-tier (device -> edge ->
// cloud); Prop.-1 feasibility guarantees a layer's inputs are produced by the
// same or an earlier stage, so the staging is always dependency-safe. With
// Options::vsm_workers > 0 the edge stage computes VSM fused tiles on a real
// runtime::ThreadPool — one job per virtual edge worker node. Transcripts stay
// deterministic regardless of thread interleaving: tile inputs are extracted
// and their scatter messages recorded in tile order *before* the parallel
// region, only the pure per-tile compute runs concurrently, and gather messages
// plus output assembly happen in tile order *after* the join. The engine itself
// is immutable after construction, so any number of threads may call infer()
// concurrently (they share the tile pool); the continuation API (start / step /
// take) is what runtime::ServingReactor uses to interleave many in-flight
// requests across the tiers.
//
// One tier walk, driven two ways. Every stage runs the same issue-mode walk
// (walk_tier): remote verbs are issued as pipelined frames and their handles
// collected, never awaited one by one. step_async() *parks* on those handles
// (the caller waits for socket readability and resumes); step() and infer()
// *wait* on them in place. Outputs, transcripts and recovery are therefore the
// however a request is driven.
#pragma once

#include <algorithm>
#include <array>
#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "core/partition.h"
#include "core/vsm.h"
#include "dnn/network.h"
#include "dnn/tensor.h"
#include "exec/ops.h"
#include "exec/weights.h"
#include "rpc/transport.h"
#include "runtime/message.h"
#include "runtime/thread_pool.h"

namespace d3::rpc {
class ChannelDied;
}

namespace d3::runtime {

class RequestJournal;
struct Snapshot;

struct InferenceResult {
  dnn::Tensor output;
  std::vector<MessageRecord> messages;
  // Bytes crossing each tier boundary (intra-tier messages excluded).
  std::int64_t device_edge_bytes = 0;
  std::int64_t edge_cloud_bytes = 0;
  std::int64_t device_cloud_bytes = 0;
  // Layers executed per tier (VSM tile work counts once, on the coordinator).
  std::array<std::size_t, 3> layers_executed{0, 0, 0};
  // Intra-edge scatter/gather traffic of the VSM stage, if one ran.
  std::int64_t vsm_scatter_bytes = 0;
  std::int64_t vsm_gather_bytes = 0;
};

class OnlineEngine {
 public:
  struct Options {
    // Number of pool threads computing VSM tiles concurrently (the edge worker
    // nodes of Fig. 8). 0 = sequential tile loop on the coordinator thread.
    std::size_t vsm_workers = 0;
    // Number of pool threads the per-layer kernels may use *within* one layer
    // (conv GEMM and fc row blocks split across the pool, VSM tiles' convs
    // included), so a single request's latency scales with cores even without
    // VSM tiling. 0 = serial kernels. Shares one pool with vsm_workers (sized
    // to the larger of the two); outputs and transcripts are bitwise-identical
    // either way.
    std::size_t intra_op_workers = 0;
    // Emulated per-tile edge-node service latency (seconds), added to each
    // tile's compute. The paper's edge pool is separate physical machines; on
    // a host with fewer cores than modelled workers, this stands in for the
    // remote node's service time — real threads genuinely overlap the waits,
    // so the sequential engine pays the sum and the threaded engine the max.
    // 0 disables. Purely additive wall-clock: outputs and transcripts are
    // unaffected. Applies to locally-hosted tiles only (a remote edge node's
    // service time is real, not emulated).
    double emulated_tile_service_seconds = 0.0;
    // Emulated per-stage service latency (seconds) added once per tier stage for
    // [device, edge, cloud] — the stage's fixed overhead (network stack,
    // queueing). Tests and the serving bench use it to hold requests in
    // flight for a known time.
    std::array<double, 3> emulated_tier_service_seconds{0.0, 0.0, 0.0};
    // Message fabric between the computation nodes. nullptr = the shared
    // zero-copy InProcessTransport (the original engine behaviour).
    std::shared_ptr<rpc::Transport> transport = nullptr;
    // Tier-granular recovery: when a node loses its per-request state
    // mid-request (rpc::ChannelDied with the channel restored — a worker died
    // and the transport respawned it, or a fresh incarnation answered
    // kErrorState), the engine reopens the request on that node, re-seeds the
    // lost slots from coordinator-held boundary tensors, and re-runs only the
    // interrupted tier — instead of failing the request so the caller replays
    // it end-to-end. Dead tile workers with no reconnect hook are pruned and
    // their tiles re-sharded across the survivors. Outputs stay
    // bitwise-identical and transcripts byte-identical either way (messages
    // are recorded exactly once; re-runs only move payload). false restores
    // the fail-and-replay contract.
    bool tier_recovery = true;
    // Faults survived per request before the ChannelDied propagates.
    std::size_t max_recovery_attempts = 3;
    // Write-ahead request journal for coordinator failover: non-null makes the
    // engine checkpoint every request after seeding and after each completed
    // tier, and mark it finished on collect. A standby coordinator (same
    // plan, workers surviving in listen mode) then restore()s the unfinished
    // snapshots and resumes them, re-running only the interrupted tier.
    std::shared_ptr<RequestJournal> journal = nullptr;
  };

  // Cumulative recovery counters (atomic; the engine is shared and const).
  struct Stats {
    std::uint64_t recoveries = 0;        // mid-request recoveries completed
    std::uint64_t tiers_replayed = 0;    // recoveries that re-ran lost layers
    std::uint64_t layers_replayed = 0;   // layers re-executed after a death
    std::uint64_t tensors_reseeded = 0;  // slots re-put into recovered nodes
    std::uint64_t recovery_bytes = 0;    // tensor bytes re-moved by re-seeds
  };

  // Closes the transport-side request state when a request dies, however it
  // dies (collected, front-end error paths, abandoned states).
  struct RpcRequestGuard {
    RpcRequestGuard(std::shared_ptr<rpc::Transport> transport, std::uint64_t id);
    ~RpcRequestGuard();
    RpcRequestGuard(const RpcRequestGuard&) = delete;
    RpcRequestGuard& operator=(const RpcRequestGuard&) = delete;

    std::shared_ptr<rpc::Transport> transport;
    std::uint64_t id = 0;
  };

  // Mutable per-request execution state, owned by a Continuation. One
  // request's stages run in tier order and never concurrently with each
  // other, but distinct requests' states are fully independent.
  struct RequestState {
    // The request input: start()/start_async() copy it into `owned_input` (the
    // caller's tensor may die before later stages run on other threads), while
    // the synchronous infer() path just borrows the caller's tensor — `input`
    // points at whichever holds it.
    dnn::Tensor owned_input;
    const dnn::Tensor* input = nullptr;
    InferenceResult result;
    std::vector<dnn::Tensor> outputs;   // per layer, filled as stages run
    std::vector<bool> computed;
    // sent[producer index][tier]: the transcript message shipping producer's
    // tensor to that tier has been recorded. Index 0 is the raw input;
    // producer layer id is offset by one. Set before the record, so a
    // boundary is recorded exactly once even across recovery re-runs.
    std::vector<std::array<bool, 3>> sent;
    // shipped[producer index][tier]: the payload bytes actually reached the
    // tier's node — set only once the transport op settles, so a mid-send
    // channel death leaves it false and the re-entered tier walk re-ships
    // without re-recording.
    std::vector<std::array<bool, 3>> shipped;
    // vsm_recorded[tile][0=scatter,1=gather]: transcript dedupe for the VSM
    // intra-edge messages (sized lazily on first stack execution).
    std::vector<std::array<bool, 2>> vsm_recorded;
    // Faults survived so far (bounds Options::max_recovery_attempts).
    std::size_t recovery_attempts = 0;
    // True while a restore()d request re-runs its interrupted tier: unshipped
    // boundaries first try the buddy's replica store (Transport::replica_push)
    // and re-delivered payload bytes count into Stats::recovery_bytes. Cleared
    // when a tier completes.
    bool restored = false;
    // Transport-materialised copies of delivered tensors, [slot][tier]: what a
    // consumer reads when the transport round-trips payloads through the wire
    // (SerializingLoopback). Left empty by zero-copy transports.
    std::vector<std::array<std::optional<dnn::Tensor>, 3>> delivered;
    // Transport request id + teardown guard.
    std::uint64_t rpc_request = 0;
    std::unique_ptr<RpcRequestGuard> rpc_guard;
  };

  // `net` and `weights` must outlive the engine. The assignment must be
  // Prop.-1 feasible; `vsm` (optional) must cover edge-assigned layers only.
  // Throws std::invalid_argument on inconsistent plans.
  OnlineEngine(const dnn::Network& net, const exec::WeightStore& weights,
               core::Assignment assignment,
               std::optional<core::FusedTilePlan> vsm = std::nullopt);
  OnlineEngine(const dnn::Network& net, const exec::WeightStore& weights,
               core::Assignment assignment, std::optional<core::FusedTilePlan> vsm,
               Options options);

  // Runs one synergistic inference: the device node ingests `input`, the plan's
  // tiers execute their partitions in stage order, and the final layer's output
  // is returned together with the full message transcript. Thread-safe: may be
  // called concurrently from any number of threads.
  InferenceResult infer(const dnn::Tensor& input) const;

  // Staged execution for the event-driven front end
  // (runtime::ServingReactor): one movable token
  // bundling the request state, a progress cursor, and the finished result,
  // advanced one stage at a time by step() or step_async(). The stages are the
  // three tiers in order plus a final collect stage (the final-output fetch),
  // so a single thread can interleave thousands of requests by round-robining
  // steps across their continuations. Typical use:
  //   auto c = engine.start(input);
  //   engine.step(c);   // device
  //   engine.step(c);   // edge
  //   engine.step(c);   // cloud
  //   engine.step(c);   // collect
  //   InferenceResult r = engine.take(std::move(c));
  // Outputs and transcripts are bitwise-identical to infer() regardless of
  // how steps of different requests interleave.
  class Continuation {
   public:
    static constexpr int kStageCount = 4;  // device, edge, cloud, collect
    Continuation(Continuation&&) noexcept = default;
    Continuation& operator=(Continuation&&) noexcept = default;

    int next_stage() const { return next_; }
    bool done() const { return next_ == kStageCount; }
    // The tier the next step() executes; only valid before the collect stage.
    core::Tier next_tier() const { return static_cast<core::Tier>(next_); }
    // The request input (the copy start()/start_async() took); valid until
    // the collect stage consumes the state — callers that may replay
    // end-to-end keep their own copy.
    const dnn::Tensor& input() const { return state_->owned_input; }

    // Async-walk introspection for readiness-driven front ends (step_async).
    // True when every outstanding async op has its reply drained (no
    // syscalls); a parked continuation whose ops are all settled can be
    // resumed without waiting for fd readability.
    bool ops_settled() const {
      for (const auto& op : ops_)
        if (!op.settled()) return false;
      return true;
    }
    // Unsettled async ops (reply still on the wire) — the reactor's
    // outstanding-ops gauge.
    std::size_t ops_outstanding() const {
      std::size_t n = 0;
      for (const auto& op : ops_)
        if (!op.settled()) ++n;
      return n;
    }
    // Socket fds the outstanding ops wait on, deduplicated. May flush frames
    // still sitting in a channel outbox — a parked stage's requests must be on
    // the wire before readiness of these fds means anything.
    std::vector<int> pending_fds() {
      std::vector<int> fds;
      for (auto& op : ops_) {
        if (op.settled()) continue;
        const int fd = op.fd();
        if (fd < 0) continue;
        if (std::find(fds.begin(), fds.end(), fd) == fds.end()) fds.push_back(fd);
      }
      return fds;
    }

   private:
    friend class OnlineEngine;
    Continuation() = default;
    // Where step() parks: wait out every outstanding op.
    void wait_ops() {
      for (auto& op : ops_) op.wait();
    }
    std::unique_ptr<RequestState> state_;
    InferenceResult result_;
    int next_ = 0;
    // Per-tier phase machine: wait until the pipelined admission (kBegin
    // broadcast + input seed) settles (kAdmitting), issue prefetch fetches
    // (kStart), wait until they land then issue the tier's walk (kFetching),
    // wait until every issued op settles then apply effects and advance
    // (kSettling). kCollecting waits on the collect stage's final-output
    // fetch. "Wait" is a park under step_async() and a blocking wait under
    // step().
    enum class Phase { kAdmitting, kStart, kFetching, kSettling, kCollecting };
    Phase phase_ = Phase::kStart;
    int slept_stage_ = -1;  // emulated tier latency paid once per stage
    std::vector<rpc::Transport::OpHandle> ops_;
    // Parallel to ops_: success-side state mutation for each op (store a
    // fetched output, mark shipped, keep a wired copy), applied only after
    // the op completes.
    std::vector<std::function<void(rpc::Transport::OpHandle&)>> effects_;
  };

  // Opens a request: copies `input` into the state, issues the admission
  // round-trips (the per-node kBegin broadcast and the device input seed) as
  // pipelined sends, and waits them out — a node that dies on admission is
  // recovered (or its error thrown) here. Throws std::invalid_argument on
  // input shape mismatch.
  Continuation start(const dnn::Tensor& input) const;
  // start() for readiness-driven front ends: the admission round-trips are
  // issued but not awaited; the continuation's first step parks (step_async)
  // or waits (step) on them. Either may take it from there.
  Continuation start_async(const dnn::Tensor& input) const;
  // Rebuilds an in-flight request from a journal snapshot, for a standby
  // coordinator taking over after the primary died. Re-opens the journalled
  // request id on the transport (the workers' per-request slots survive the
  // primary in listen mode; kBegin is idempotent) and returns a continuation
  // positioned at the interrupted stage — step() it to completion exactly like
  // a fresh start(). Requires every tier node to be remote on the transport
  // (lost coordinator-local outputs are only re-fetchable from workers) and
  // the same deployment plan: a plan-hash mismatch throws
  // std::invalid_argument.
  Continuation restore(const Snapshot& snapshot) const;
  // Drops a continuation WITHOUT closing the transport-side request (no kEnd):
  // the workers keep their slots and the journal keeps its snapshots, exactly
  // the state a dead coordinator leaves behind. This is the in-process way to
  // exercise (and benchmark) the failover path: abandon mid-request, then
  // restore() from the journal.
  void abandon(Continuation&& c) const;
  // Runs the continuation's next stage to completion; returns done()
  // afterwards. The stage is step_async()'s walk with every park replaced by
  // a blocking OpHandle::wait() on the outstanding ops (no prefetch phase:
  // a blocking stage fetches relay sources lazily, inside the walk). A stage
  // that throws (transport death past the recovery budget) leaves the cursor
  // where it was — the caller replays from a fresh start() or propagates.
  bool step(Continuation& c) const;

  // Non-blocking variant of step() for readiness-driven front ends. Instead of
  // blocking on the wire, a tier stage advances through a three-phase walk:
  //
  //   kStart    issue prefetch fetches for every remote producer output the
  //             tier walk will materialise at the coordinator;
  //   kFetching once the fetches land, run the tier walk in *issue* mode —
  //             boundary puts and run-layer/run-stack verbs are queued on
  //             their channels (coalesced into pipelined writes) instead of
  //             awaited one by one;
  //   kSettling once every issued op's reply lands, apply the success effects
  //             (shipped flags, wired copies), recover from any channel death,
  //             checkpoint, and advance to the next tier.
  //
  // kParked means outstanding ops are unsettled: the caller should wait for
  // readability on Continuation::pending_fds() (or sweep ops_settled()) and
  // call step_async again — the reactor keeps serving other requests
  // meanwhile, which is what overlaps wire wait with compute. kReady means
  // call again now. It is the same walk step() drives, so outputs stay
  // bitwise-identical and transcripts byte-identical to step() and infer() on
  // every transport; the two may even alternate on one continuation.
  // On transports whose issue_* verbs complete synchronously (in-process,
  // loopback, fault-injection decorators) the effects apply inline and no
  // stage ever parks. Throws like step(); the cursor semantics on throw are
  // identical.
  enum class StepStatus { kDone, kReady, kParked };
  StepStatus step_async(Continuation& c) const;

  // Extracts the result of a done() continuation.
  InferenceResult take(Continuation&& c) const;

  // Width of the VSM tile stage: the number of emulated edge worker nodes
  // tiles may occupy concurrently (0 = sequential tile loop). The shared pool
  // may be larger when intra_op_workers exceeds this; tile execution is still
  // capped at this width.
  std::size_t vsm_workers() const { return options_.vsm_workers; }
  const core::Assignment& assignment() const { return assignment_; }
  const std::optional<core::FusedTilePlan>& vsm_plan() const { return vsm_; }
  const dnn::Network& network() const { return net_; }
  const std::shared_ptr<rpc::Transport>& transport() const { return transport_; }
  Stats stats() const;

 private:
  // The continuation with admission issued but not awaited (start_async);
  // `borrow` keeps a pointer to `input` instead of copying it (infer()).
  Continuation admit(const dnn::Tensor& input, bool borrow) const;
  // One step_async() call; `prefetch` enables the kStart prefetch phase.
  StepStatus advance(Continuation& c, bool prefetch) const;
  // The collect stage's tail: materialise the final output (recovering a node
  // that dies on it by re-walking the cloud tier) and close the journal entry.
  InferenceResult collect(RequestState& state) const;
  // The tier walk step() and step_async() share: every pending layer
  // eligible at `tier` runs in ascending id order, transcript messages are
  // recorded in walk order, and remote verbs are issued, not awaited — each
  // op lands in `ops` with its success effect in `effects`. Ops already
  // settled at issue time (synchronous transports) have their effects
  // applied inline.
  void walk_tier(RequestState& state, core::Tier tier,
                 std::vector<rpc::Transport::OpHandle>& ops,
                 std::vector<std::function<void(rpc::Transport::OpHandle&)>>& effects) const;
  // The producers whose outputs the next walk_tier at `tier` would
  // materialise at the coordinator (computed on a remote node, never fetched,
  // needed by an unshipped boundary): what kStart prefetches concurrently.
  // Over- and under-approximation are both safe — a spare fetch only moves
  // bytes, a missed one falls back to the walk's blocking materialise.
  std::vector<dnn::LayerId> prefetch_targets(const RequestState& state,
                                             core::Tier tier) const;
  // Tier-granular recovery after `died`: reopen the request on the lost node,
  // re-seed the slots it held from coordinator-held (or survivor-fetched)
  // tensors, and un-mark lost layers so the re-entered walk re-runs exactly
  // the interrupted tier. Returns false when the failure is not recoverable
  // here (unknown node, channel not restored and not a prunable tile worker)
  // — the caller rethrows.
  bool recover(RequestState& state, const rpc::ChannelDied& died) const;
  // The recovery policy gate shared by every ChannelDied catch site: applies
  // Options::tier_recovery and the per-request attempts bound, runs
  // recover(), and counts the attempt. False = the caller rethrows.
  bool try_recover(RequestState& state, const rpc::ChannelDied& died) const;
  // Appends a journal snapshot of `state` at continuation cursor `next_stage`
  // (no-op without Options::journal).
  void checkpoint(RequestState& state, int next_stage) const;
  void run_vsm_stack(RequestState& state) const;
  // Edge fan-out: scatter tile crops to the transport's worker shards, run
  // them concurrently (one lane per physical worker), gather in tile order.
  void run_vsm_stack_sharded(RequestState& state, const dnn::Tensor& stack_input) const;
  // Lazily materialises layer `id`'s output at the coordinator (fetching from
  // the remote node that computed it, if needed) and returns it.
  const dnn::Tensor& materialize(RequestState& state, dnn::LayerId id) const;
  // Transcript + traffic record for one VSM scatter/gather message. Byte
  // counts are a pure function of the tile plan — shared by the local and
  // remote stack paths, so their transcripts cannot diverge. With a non-null
  // `payload` (local execution) the tile round-trips the transport; the
  // materialised wire copy, if any, is returned for the caller to compute on.
  std::optional<dnn::Tensor> record_vsm_message(RequestState& state, std::size_t tile,
                                                bool gather,
                                                const dnn::Tensor* payload) const;
  // The tensor layer `producer`'s consumer at `at` computes on: the
  // transport-materialised wire copy when one exists, else the canonical
  // coordinator-held tensor.
  const dnn::Tensor* resolve_input(RequestState& state, dnn::LayerId producer,
                                   core::Tier at) const;
  exec::OpContext op_context() const {
    return exec::OpContext{nullptr, op_parallel_ ? &op_parallel_ : nullptr};
  }

  const dnn::Network& net_;
  const exec::WeightStore& weights_;
  core::Assignment assignment_;
  std::optional<core::FusedTilePlan> vsm_;
  Options options_;
  std::shared_ptr<rpc::Transport> transport_;
  // FNV-1a over the plan's binary form: stamped into every snapshot and
  // checked by restore() so a standby with a different plan fails loudly.
  std::uint64_t plan_hash_ = 0;
  std::unique_ptr<ThreadPool> pool_;  // null in sequential mode
  exec::ParallelFor op_parallel_;     // intra-op hook over pool_; empty if disabled
  // Recovery counters (see Stats). Mutable: infer() is const and thread-safe.
  mutable std::atomic<std::uint64_t> recoveries_{0};
  mutable std::atomic<std::uint64_t> tiers_replayed_{0};
  mutable std::atomic<std::uint64_t> layers_replayed_{0};
  mutable std::atomic<std::uint64_t> tensors_reseeded_{0};
  mutable std::atomic<std::uint64_t> recovery_bytes_{0};
};

}  // namespace d3::runtime
