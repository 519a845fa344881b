// Engine x transport matrix: the same plan must produce bitwise-identical
// outputs and byte-identical transcripts on the zero-copy InProcessTransport
// and on SerializingLoopback (where every inter-node tensor round-trips the
// binary wire format) — the in-process half of the "losslessness survives the
// wire" story. Also serves a burst through the ServingReactor front end.
#include <memory>

#include <gtest/gtest.h>

#include "core/vsm.h"
#include "dnn/model_zoo.h"
#include "exec/executor.h"
#include "rpc/transport.h"
#include "runtime/engine.h"
#include "runtime/serving_reactor.h"
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
  // First two layers on the device, the next chunk on the edge, rest cloud.
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

TEST(TransportEngine, LoopbackMatchesInProcessOnChainAndBranch) {
  for (const char* which : {"chain", "branch"}) {
    Fixture f(std::string(which) == "chain" ? dnn::zoo::tiny_chain()
                                            : dnn::zoo::tiny_branch());
    const core::Assignment plan = three_tier_plan(f.net);
    const OnlineEngine reference_engine(f.net, f.weights, plan);
    const InferenceResult reference = reference_engine.infer(f.input);
    expect_identical(reference.output, f.reference);

    auto loopback = std::make_shared<rpc::SerializingLoopback>();
    OnlineEngine::Options options;
    options.transport = loopback;
    const OnlineEngine wired_engine(f.net, f.weights, plan, std::nullopt, options);
    const InferenceResult wired = wired_engine.infer(f.input);

    expect_identical(wired.output, f.reference);
    expect_same_transcript(wired, reference);
    // Every inter-node message actually crossed the wire format.
    const rpc::SerializingLoopback::Stats stats = loopback->stats();
    EXPECT_EQ(stats.messages, reference.messages.size());
    EXPECT_GT(stats.payload_bytes, 0u);
    EXPECT_GT(stats.wire_bytes, stats.payload_bytes);
  }
}

TEST(TransportEngine, LoopbackMatchesInProcessWithVsmStack) {
  Fixture f(dnn::zoo::tiny_chain());
  core::Assignment a;
  a.tier.assign(f.net.num_layers() + 1, core::Tier::kCloud);
  a.tier[0] = core::Tier::kDevice;
  const std::vector<dnn::LayerId> stack = {0, 1, 2, 3, 4, 5};
  for (const dnn::LayerId id : stack) a.tier[dnn::Network::vertex_of(id)] = core::Tier::kEdge;
  const auto vsm = core::make_fused_tile_plan(f.net, stack, 2, 2);

  const InferenceResult reference = OnlineEngine(f.net, f.weights, a, vsm).infer(f.input);
  expect_identical(reference.output, f.reference);

  for (const std::size_t workers : {std::size_t{0}, std::size_t{3}}) {
    auto loopback = std::make_shared<rpc::SerializingLoopback>();
    OnlineEngine::Options options;
    options.vsm_workers = workers;
    options.transport = loopback;
    const OnlineEngine engine(f.net, f.weights, a, vsm, options);
    const InferenceResult wired = engine.infer(f.input);
    expect_identical(wired.output, f.reference);
    expect_same_transcript(wired, reference);
    // Tile scatter + gather traffic round-trips the wire too.
    EXPECT_EQ(loopback->stats().messages, reference.messages.size());
  }
}

TEST(TransportEngine, LoopbackHandlesDeferredCrossTierConsumer) {
  // branch_a on the cloud while branch_b stays on the edge: the edge-assigned
  // concat consumes a cloud tensor, so it defers to the cloud stage and the
  // cloud->edge delivery crosses the wire.
  Fixture f(dnn::zoo::tiny_branch());
  core::Assignment a;
  a.tier.assign(f.net.num_layers() + 1, core::Tier::kCloud);
  a.tier[0] = core::Tier::kDevice;
  // stem(0), stem_relu(1) device; branch_a(2) cloud; branch_b1(3), branch_b2(4),
  // concat(5) edge; merge(6)... cloud.
  a.tier[dnn::Network::vertex_of(0)] = core::Tier::kDevice;
  a.tier[dnn::Network::vertex_of(1)] = core::Tier::kDevice;
  for (const dnn::LayerId id : {3, 4, 5}) a.tier[dnn::Network::vertex_of(id)] = core::Tier::kEdge;

  const InferenceResult reference = OnlineEngine(f.net, f.weights, a).infer(f.input);
  expect_identical(reference.output, f.reference);

  auto loopback = std::make_shared<rpc::SerializingLoopback>();
  OnlineEngine::Options options;
  options.transport = loopback;
  const InferenceResult wired =
      OnlineEngine(f.net, f.weights, a, std::nullopt, options).infer(f.input);
  expect_identical(wired.output, f.reference);
  expect_same_transcript(wired, reference);
}

TEST(TransportEngine, StagedApiAndReactorWorkOverLoopback) {
  Fixture f(dnn::zoo::tiny_branch());
  const core::Assignment plan = three_tier_plan(f.net);
  auto loopback = std::make_shared<rpc::SerializingLoopback>();
  OnlineEngine::Options options;
  options.transport = loopback;
  const OnlineEngine engine(f.net, f.weights, plan, std::nullopt, options);

  ServingReactor reactor(engine);
  std::vector<std::size_t> ids;
  for (int i = 0; i < 4; ++i) ids.push_back(reactor.submit(f.input));
  for (const std::size_t id : ids) {
    const InferenceResult result = reactor.wait(id);
    expect_identical(result.output, f.reference);
  }
}

}  // namespace
}  // namespace d3::runtime
