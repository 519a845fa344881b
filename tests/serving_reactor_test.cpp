// Serving front-end equivalence matrix: the same plans pushed through the
// event-driven ServingReactor must produce bitwise-identical outputs and
// byte-identical transcripts to blocking OnlineEngine::infer() — on the
// zero-copy in-process transport, over the serializing loopback wire path,
// with a VSM tile stack, and under mid-request fault injection. Plus the
// reactor's own contract: priority ordering, drop-oldest admission,
// predictive shedding, deadline expiry, and shutdown/destruction.
#include <chrono>
#include <memory>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "core/vsm.h"
#include "dnn/model_zoo.h"
#include "exec/executor.h"
#include "rpc/fault_injection.h"
#include "rpc/transport.h"
#include "runtime/engine.h"
#include "runtime/serving_reactor.h"
#include "sim/pipeline.h"
#include "util/rng.h"

namespace d3::runtime {
namespace {

struct Fixture {
  dnn::Network net;
  exec::WeightStore weights;
  dnn::Tensor input;
  dnn::Tensor reference;

  explicit Fixture(dnn::Network n, std::uint64_t seed = 21)
      : net(std::move(n)), weights(exec::WeightStore::random_for(net, seed)) {
    util::Rng rng(seed + 1);
    input = exec::random_tensor(net.input_shape(), rng);
    reference = exec::Executor(net, weights).run(input);
  }
};

void expect_identical(const dnn::Tensor& a, const dnn::Tensor& b) {
  ASSERT_EQ(a.shape(), b.shape());
  for (std::size_t i = 0; i < a.size(); ++i) ASSERT_EQ(a[i], b[i]);
}

void expect_same_transcript(const InferenceResult& a, const InferenceResult& b) {
  ASSERT_EQ(a.messages.size(), b.messages.size());
  for (std::size_t i = 0; i < a.messages.size(); ++i) {
    EXPECT_EQ(a.messages[i].seq, b.messages[i].seq);
    EXPECT_EQ(a.messages[i].from_node, b.messages[i].from_node);
    EXPECT_EQ(a.messages[i].to_node, b.messages[i].to_node);
    EXPECT_EQ(a.messages[i].payload, b.messages[i].payload);
    EXPECT_EQ(a.messages[i].bytes, b.messages[i].bytes);
  }
  EXPECT_EQ(a.device_edge_bytes, b.device_edge_bytes);
  EXPECT_EQ(a.edge_cloud_bytes, b.edge_cloud_bytes);
  EXPECT_EQ(a.device_cloud_bytes, b.device_cloud_bytes);
  EXPECT_EQ(a.vsm_scatter_bytes, b.vsm_scatter_bytes);
  EXPECT_EQ(a.vsm_gather_bytes, b.vsm_gather_bytes);
  EXPECT_EQ(a.layers_executed, b.layers_executed);
}

core::Assignment three_tier_plan(const dnn::Network& net) {
  core::Assignment a;
  a.tier.assign(net.num_layers() + 1, core::Tier::kCloud);
  a.tier[0] = core::Tier::kDevice;
  const std::size_t n = net.num_layers();
  for (std::size_t id = 0; id < n; ++id) {
    if (id < 2) a.tier[dnn::Network::vertex_of(id)] = core::Tier::kDevice;
    else if (id < 2 + (n - 2) / 2) a.tier[dnn::Network::vertex_of(id)] = core::Tier::kEdge;
  }
  return a;
}

// Runs blocking infer() and then `count` reactor requests on `engine`, and
// checks every result bitwise and transcript-byte identical to `reference`.
void expect_reactor_matches_infer(const OnlineEngine& engine, const dnn::Tensor& input,
                                  const InferenceResult& reference, std::size_t count = 4) {
  const InferenceResult blocking = engine.infer(input);
  expect_identical(blocking.output, reference.output);
  expect_same_transcript(blocking, reference);

  ServingReactor reactor(engine);
  std::vector<std::size_t> ids;
  for (std::size_t i = 0; i < count; ++i) ids.push_back(reactor.submit(input));
  for (const std::size_t id : ids) {
    const InferenceResult result = reactor.wait(id);
    expect_identical(result.output, reference.output);
    expect_same_transcript(result, reference);
  }
  EXPECT_EQ(reactor.stats().completed, count);
}

// --- Equivalence matrix -----------------------------------------------------

TEST(ServingReactorEquivalence, MatchesInferAcrossTransports) {
  for (const char* which : {"chain", "branch"}) {
    Fixture f(std::string(which) == "chain" ? dnn::zoo::tiny_chain()
                                            : dnn::zoo::tiny_branch());
    const core::Assignment plan = three_tier_plan(f.net);

    const OnlineEngine in_process(f.net, f.weights, plan);
    const InferenceResult reference = in_process.infer(f.input);
    expect_identical(reference.output, f.reference);
    expect_reactor_matches_infer(in_process, f.input, reference);

    OnlineEngine::Options options;
    options.transport = std::make_shared<rpc::SerializingLoopback>();
    const OnlineEngine wired(f.net, f.weights, plan, std::nullopt, options);
    // The transcript is a pure function of the plan: the wire path must match
    // the in-process reference byte for byte, blocking or served.
    expect_reactor_matches_infer(wired, f.input, reference);
  }
}

TEST(ServingReactorEquivalence, MatchesInferWithVsmStackOverLoopback) {
  Fixture f(dnn::zoo::tiny_chain());
  core::Assignment a;
  a.tier.assign(f.net.num_layers() + 1, core::Tier::kCloud);
  a.tier[0] = core::Tier::kDevice;
  const std::vector<dnn::LayerId> stack = {0, 1, 2, 3, 4, 5};
  for (const dnn::LayerId id : stack) a.tier[dnn::Network::vertex_of(id)] = core::Tier::kEdge;
  const auto vsm = core::make_fused_tile_plan(f.net, stack, 2, 2);

  const OnlineEngine plain(f.net, f.weights, a, vsm);
  const InferenceResult reference = plain.infer(f.input);
  expect_identical(reference.output, f.reference);

  OnlineEngine::Options options;
  options.transport = std::make_shared<rpc::SerializingLoopback>();
  options.vsm_workers = 3;
  const OnlineEngine wired(f.net, f.weights, a, vsm, options);
  expect_reactor_matches_infer(wired, f.input, reference);
}

// Mid-request state loss at assorted protocol points: the engine's
// tier-granular recovery absorbs each fault inside a reactor step, so outputs
// stay bitwise-identical and transcripts byte-identical to a fault-free run.
TEST(ServingReactorEquivalence, MatchesUnderMidRequestStateLoss) {
  using Op = rpc::FaultInjectionTransport::Op;
  using Action = rpc::FaultInjectionTransport::Action;
  struct Point {
    Op op;
    const char* node;
    std::uint64_t nth;
  };
  const Point points[] = {
      {Op::kPut, "edge0", 1},        // boundary tensor lost entering the edge
      {Op::kRunLayer, "edge0", 2},   // edge dies mid-tier
      {Op::kPut, "cloud0", 1},       // boundary tensor lost entering the cloud
      {Op::kRunLayer, "cloud0", 4},  // cloud dies on its final layer
  };

  Fixture f(dnn::zoo::tiny_branch());
  const core::Assignment plan = three_tier_plan(f.net);
  const InferenceResult reference = OnlineEngine(f.net, f.weights, plan).infer(f.input);

  for (const Point& point : points) {
    auto faults = std::make_shared<rpc::FaultInjectionTransport>(
        std::make_shared<rpc::SerializingLoopback>());
    faults->schedule({point.op, point.node, point.nth, Action::kFail, {}, ""});

    OnlineEngine::Options options;
    options.transport = faults;
    const OnlineEngine engine(f.net, f.weights, plan, std::nullopt, options);

    ServingReactor reactor(engine);
    const std::size_t id = reactor.submit(f.input);
    const InferenceResult result = reactor.wait(id);
    expect_identical(result.output, f.reference);
    expect_same_transcript(result, reference);
    EXPECT_EQ(faults->stats().synthetic_failures, 1u);
    EXPECT_GE(engine.stats().recoveries, 1u);
  }
}

// With the engine's own recovery disabled, a channel death surfaces from the
// step and the reactor's end-to-end replay produces the identical result.
TEST(ServingReactorEquivalence, EndToEndReplayAfterUnrecoverableDeath) {
  using Op = rpc::FaultInjectionTransport::Op;
  using Action = rpc::FaultInjectionTransport::Action;

  Fixture f(dnn::zoo::tiny_chain());
  const core::Assignment plan = three_tier_plan(f.net);
  const InferenceResult reference = OnlineEngine(f.net, f.weights, plan).infer(f.input);

  auto faults = std::make_shared<rpc::FaultInjectionTransport>(
      std::make_shared<rpc::SerializingLoopback>());
  faults->schedule({Op::kRunLayer, "edge0", 1, Action::kFail, {}, ""});

  OnlineEngine::Options options;
  options.transport = faults;
  options.tier_recovery = false;
  const OnlineEngine engine(f.net, f.weights, plan, std::nullopt, options);

  ServingReactor::Options serving;
  serving.max_replays = 1;
  ServingReactor reactor(engine, serving);
  const std::size_t id = reactor.submit(f.input);
  const InferenceResult result = reactor.wait(id);
  expect_identical(result.output, f.reference);
  expect_same_transcript(result, reference);
  EXPECT_EQ(reactor.stats().replayed, 1u);
}

// --- Serving policies -------------------------------------------------------

TEST(ServingReactorPolicy, HigherPriorityCompletesFirst) {
  Fixture f(dnn::zoo::tiny_chain());
  const OnlineEngine engine(f.net, f.weights, three_tier_plan(f.net));

  ServingReactor::Options options;
  options.start_paused = true;  // pile everything up so admission order is fixed
  ServingReactor reactor(engine, options);

  std::vector<std::size_t> low, high;
  for (int i = 0; i < 3; ++i) low.push_back(reactor.submit(f.input, {-1.0, 0}));
  for (int i = 0; i < 3; ++i) high.push_back(reactor.submit(f.input, {-1.0, 5}));
  reactor.resume();
  const std::vector<InferenceResult> results = reactor.drain();
  ASSERT_EQ(results.size(), 6u);
  for (const InferenceResult& r : results) expect_identical(r.output, f.reference);

  // Admission is FIFO (low ids first), but stepping drains the priority-5
  // bucket before the priority-0 one: every high-priority request finishes
  // before any low-priority one.
  const std::vector<std::size_t> order = reactor.completion_order();
  ASSERT_EQ(order.size(), 6u);
  for (std::size_t i = 0; i < 3; ++i)
    EXPECT_GE(order[i], low.size()) << "low-priority id finished in the first half";
  // The default admission queue is unbounded: six waiting requests, no drops.
  EXPECT_EQ(reactor.stats().dropped, 0u);
}

TEST(ServingReactorPolicy, DropOldestAdmissionIsDeterministicWhilePaused) {
  Fixture f(dnn::zoo::tiny_chain());
  const OnlineEngine engine(f.net, f.weights, three_tier_plan(f.net));

  ServingReactor::Options options;
  options.start_paused = true;  // nothing leaves the waiting queue
  options.admission_capacity = 1;
  ServingReactor reactor(engine, options);

  std::vector<std::size_t> ids;
  for (int i = 0; i < 4; ++i) ids.push_back(reactor.submit(f.input));
  reactor.resume();

  // Each submission evicted its predecessor from the depth-1 queue: ids 0-2
  // dropped, id 3 (the newest) survives — deterministically.
  for (std::size_t i = 0; i + 1 < ids.size(); ++i)
    EXPECT_THROW(reactor.wait(ids[i]), RequestDropped);
  expect_identical(reactor.wait(ids.back()).output, f.reference);

  const ServingReactor::Stats stats = reactor.stats();
  EXPECT_EQ(stats.dropped, 3u);
  EXPECT_EQ(stats.completed, 1u);
  EXPECT_EQ(stats.shed, 0u);
}

TEST(ServingReactorPolicy, PredictiveSheddingRefusesDoomedRequests) {
  Fixture f(dnn::zoo::tiny_chain());
  const OnlineEngine engine(f.net, f.weights, three_tier_plan(f.net));

  // A pipeline model whose single frame already takes 10 s: any request with
  // a sub-second deadline is doomed at submit() and must be refused before it
  // opens transport state.
  sim::PipelinePlan pipeline;
  pipeline.device_seconds = 10.0;

  ServingReactor::Options options;
  options.pipeline = pipeline;
  options.default_deadline_seconds = 0.5;
  ServingReactor reactor(engine, options);

  const std::size_t doomed = reactor.submit(f.input);
  EXPECT_THROW(reactor.wait(doomed), RequestShed);
  // A deadline-free request ignores the model and completes normally.
  const std::size_t free = reactor.submit(f.input, {0.0, 0});
  expect_identical(reactor.wait(free).output, f.reference);

  const ServingReactor::Stats stats = reactor.stats();
  EXPECT_EQ(stats.shed, 1u);
  EXPECT_EQ(stats.completed, 1u);
  EXPECT_EQ(stats.steps, 4u);  // only the free request's four stages ran
}

TEST(ServingReactorPolicy, DeadlineExpiresWhileWaitingPaused) {
  Fixture f(dnn::zoo::tiny_chain());
  const OnlineEngine engine(f.net, f.weights, three_tier_plan(f.net));

  ServingReactor::Options options;
  options.start_paused = true;
  ServingReactor reactor(engine, options);

  const std::size_t id = reactor.submit(f.input, {0.02, 0});
  // The reactor expires waiting requests on its own wake-up at the earliest
  // deadline — no resume() needed for the expiry itself.
  EXPECT_THROW(reactor.wait(id), RequestShed);
  EXPECT_EQ(reactor.stats().expired, 1u);
  reactor.resume();
}

// --- Deterministic shutdown ---------------------------------------------------

TEST(ServingReactorShutdown, ShedsWaitingRequestsWithDistinctReasonExactlyOnce) {
  Fixture f(dnn::zoo::tiny_chain());
  const OnlineEngine engine(f.net, f.weights, three_tier_plan(f.net));

  ServingReactor::Options options;
  options.start_paused = true;  // all four requests sit in the waiting queue
  ServingReactor reactor(engine, options);

  std::vector<std::size_t> ids;
  for (int i = 0; i < 4; ++i) ids.push_back(reactor.submit(f.input));
  reactor.shutdown();

  // Each request observes the shutdown exactly once: the first wait() throws
  // RequestShed naming the distinct reason, a second wait() throws logic_error
  // — identical to the already-collected contract of a completed result.
  for (const std::size_t id : ids) {
    try {
      reactor.wait(id);
      FAIL() << "request " << id << " was not shed";
    } catch (const RequestShed& e) {
      EXPECT_NE(std::string(e.what()).find("reactor shutdown"), std::string::npos);
    }
    EXPECT_THROW(reactor.wait(id), std::logic_error);
  }

  const ServingReactor::Stats stats = reactor.stats();
  EXPECT_EQ(stats.shutdown_shed, 4u);
  EXPECT_EQ(stats.completed, 0u);
  EXPECT_EQ(stats.expired, 0u);  // shutdown sheds are not deadline expiries
  EXPECT_THROW(reactor.submit(f.input), std::logic_error);
  reactor.shutdown();  // idempotent: every ticket is already finished
}

TEST(ServingReactorShutdown, InflightRequestsAreShedOrCompletedNeverLost) {
  Fixture f(dnn::zoo::tiny_chain());
  // A slow edge stage keeps the burst genuinely in flight when shutdown lands:
  // admitted continuations must be torn down on the reactor thread, not leak.
  OnlineEngine::Options engine_options;
  engine_options.emulated_tier_service_seconds = {0.0, 0.01, 0.0};
  const OnlineEngine engine(f.net, f.weights, three_tier_plan(f.net), std::nullopt,
                            engine_options);

  ServingReactor reactor(engine);
  std::vector<std::size_t> ids;
  for (int i = 0; i < 6; ++i) ids.push_back(reactor.submit(f.input));
  reactor.shutdown();  // returns only once every ticket is finished

  std::size_t completed = 0;
  std::size_t shed = 0;
  for (const std::size_t id : ids) {
    try {
      expect_identical(reactor.wait(id).output, f.reference);
      ++completed;
    } catch (const RequestShed& e) {
      EXPECT_NE(std::string(e.what()).find("reactor shutdown"), std::string::npos);
      ++shed;
    }
  }
  EXPECT_EQ(completed + shed, ids.size());

  const ServingReactor::Stats stats = reactor.stats();
  EXPECT_EQ(stats.completed, completed);
  EXPECT_EQ(stats.shutdown_shed, shed);
  EXPECT_GE(stats.shutdown_shed, 1u);  // shutdown beat the 10 ms edge stages
}

TEST(ServingReactorShutdown, DestructorCompletesUncollectedRequests) {
  // Destroying the reactor with uncollected requests must run every one of
  // them to completion (the destructor does not shed) and then join. The
  // loopback counts the boundary messages each request sends, so a stranded
  // or abandoned request shows up as a missing message.
  Fixture f(dnn::zoo::tiny_chain());
  auto loopback = std::make_shared<rpc::SerializingLoopback>();
  OnlineEngine::Options options;
  options.transport = loopback;
  options.emulated_tier_service_seconds = {0.0, 0.005, 0.0};  // keep them in flight
  const OnlineEngine engine(f.net, f.weights, three_tier_plan(f.net), std::nullopt, options);
  engine.infer(f.input);
  const std::uint64_t per_request = loopback->stats().messages;
  ASSERT_GT(per_request, 0u);

  constexpr std::size_t kRequests = 4;
  {
    ServingReactor reactor(engine);
    for (std::size_t i = 0; i < kRequests; ++i) reactor.submit(f.input);
  }  // no wait()/drain(): the destructor must not hang or drop stage work
  EXPECT_EQ(loopback->stats().messages, per_request * (kRequests + 1));
}

TEST(ServingReactorPolicy, BadShapeIsRefusedAndWaitIsExactlyOncePerId) {
  Fixture f(dnn::zoo::tiny_chain());
  const OnlineEngine engine(f.net, f.weights, three_tier_plan(f.net));
  ServingReactor reactor(engine);
  // A bad shape is rejected on the caller's thread before an id is handed
  // out, so it never occupies the queue or a stage.
  EXPECT_THROW(reactor.submit(dnn::Tensor(dnn::Shape{1, 2, 2})), std::invalid_argument);
  EXPECT_EQ(reactor.stats().submitted, 0u);
  const std::size_t id = reactor.submit(f.input);
  expect_identical(reactor.wait(id).output, f.reference);
  EXPECT_THROW(reactor.wait(id), std::logic_error);
  EXPECT_THROW(reactor.wait(id + 1), std::out_of_range);
}

}  // namespace
}  // namespace d3::runtime
