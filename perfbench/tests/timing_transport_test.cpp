// The timing decorator must be invisible: outputs bitwise-equal and
// transcripts byte-identical with and without it, on in-process, loopback and
// socket transports, and tile fan-out must still engage through it.
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "core/plan_io.h"
#include "core/vsm.h"
#include "dnn/model_zoo.h"
#include "exec/executor.h"
#include "exec/weights.h"
#include "rpc/socket_transport.h"
#include "runtime/engine.h"
#include "runtime/serving_reactor.h"
#include "timing_transport.h"
#include "util/rng.h"

namespace {

using d3::core::Tier;
using d3::dnn::LayerId;
using d3::dnn::Network;
using d3::dnn::Tensor;
using perfbench::TimingTransport;
using perfbench::Tracer;
using perfbench::Verb;

struct PlanCase {
  std::string name;
  Network net;
  d3::core::Assignment assignment;
  std::optional<d3::core::FusedTilePlan> vsm;
};

PlanCase tiny_chain_vsm() {
  Network net = d3::dnn::zoo::tiny_chain();
  d3::core::Assignment a;
  a.tier.assign(net.num_layers() + 1, Tier::kCloud);
  a.tier[0] = Tier::kDevice;
  for (const LayerId id : {0, 1}) a.tier[Network::vertex_of(id)] = Tier::kDevice;
  const std::vector<LayerId> stack = {2, 3, 4, 5};
  for (const LayerId id : stack) a.tier[Network::vertex_of(id)] = Tier::kEdge;
  auto vsm = d3::core::make_fused_tile_plan(net, stack, 2, 2);
  return {"tiny-chain", std::move(net), std::move(a), std::move(vsm)};
}

PlanCase tiny_branch_split() {
  Network net = d3::dnn::zoo::tiny_branch();
  d3::core::Assignment a;
  a.tier.assign(net.num_layers() + 1, Tier::kCloud);
  a.tier[0] = Tier::kDevice;
  for (const LayerId id : {0, 1, 2, 3, 4})
    a.tier[Network::vertex_of(id)] = id < 2 ? Tier::kDevice : Tier::kEdge;
  return {"tiny-branch", std::move(net), std::move(a), std::nullopt};
}

std::string transcript(const d3::runtime::InferenceResult& result) {
  std::string text;
  for (const d3::runtime::MessageRecord& m : result.messages)
    text += std::to_string(m.seq) + " " + m.from_node + "->" + m.to_node + " " + m.payload +
            " " + std::to_string(static_cast<int>(m.from_tier)) + "/" +
            std::to_string(static_cast<int>(m.to_tier)) + " " + std::to_string(m.bytes) + "\n";
  return text;
}

void expect_bitwise(const Tensor& a, const Tensor& b) {
  ASSERT_EQ(a.shape(), b.shape());
  for (std::size_t i = 0; i < a.size(); ++i) ASSERT_EQ(a[i], b[i]) << "element " << i;
}

std::vector<Tensor> inputs_for(const Network& net, std::size_t count) {
  d3::util::Rng rng(7);
  std::vector<Tensor> inputs;
  for (std::size_t i = 0; i < count; ++i)
    inputs.push_back(d3::exec::random_tensor(net.input_shape(), rng));
  return inputs;
}

std::shared_ptr<d3::rpc::Transport> make_transport(const std::string& kind) {
  if (kind == "loopback") return std::make_shared<d3::rpc::SerializingLoopback>();
  return std::make_shared<d3::rpc::InProcessTransport>();
}

class DecoratorIdentity
    : public ::testing::TestWithParam<std::tuple<std::string, std::string>> {};

TEST_P(DecoratorIdentity, OutputsAndTranscriptsUnchanged) {
  const auto& [plan_name, kind] = GetParam();
  const PlanCase c = plan_name == "tiny-chain" ? tiny_chain_vsm() : tiny_branch_split();
  const d3::exec::WeightStore weights = d3::exec::WeightStore::random_for(c.net, 3);
  const d3::exec::Executor reference(c.net, weights);

  d3::runtime::OnlineEngine::Options plain_options;
  plain_options.transport = make_transport(kind);
  const d3::runtime::OnlineEngine plain(c.net, weights, c.assignment, c.vsm, plain_options);

  Tracer tracer;
  auto timing = std::make_shared<TimingTransport>(make_transport(kind), &tracer);
  d3::runtime::OnlineEngine::Options timed_options;
  timed_options.transport = timing;
  const d3::runtime::OnlineEngine timed(c.net, weights, c.assignment, c.vsm, timed_options);

  for (const Tensor& input : inputs_for(c.net, 3)) {
    const d3::runtime::InferenceResult a = plain.infer(input);
    const d3::runtime::InferenceResult b = timed.infer(input);
    expect_bitwise(b.output, a.output);
    expect_bitwise(b.output, reference.run(input));
    EXPECT_EQ(transcript(b), transcript(a));
  }
  const TimingTransport::Stats stats = timing->stats();
  EXPECT_EQ(stats.verbs[static_cast<std::size_t>(Verb::kBegin)].count, 3u);
  EXPECT_EQ(stats.verbs[static_cast<std::size_t>(Verb::kEnd)].count, 3u);
  EXPECT_GT(stats.verbs[static_cast<std::size_t>(Verb::kSend)].count, 0u);
  EXPECT_EQ(stats.errors, 0u);
  EXPECT_FALSE(tracer.spans().empty());
}

INSTANTIATE_TEST_SUITE_P(
    TinyModels, DecoratorIdentity,
    ::testing::Combine(::testing::Values("tiny-chain", "tiny-branch"),
                       ::testing::Values("in-process", "loopback")),
    [](const auto& info) {
      std::string name = std::get<0>(info.param) + "_" + std::get<1>(info.param);
      for (char& ch : name)
        if (ch == '-') ch = '_';
      return name;
    });

// Worker processes for one socket deployment; reaped by WorkerProcess.
struct SocketCluster {
  std::vector<std::unique_ptr<d3::rpc::WorkerProcess>> procs;
  std::shared_ptr<d3::rpc::SocketTransport> transport =
      std::make_shared<d3::rpc::SocketTransport>();

  d3::rpc::Socket spawn() {
    procs.push_back(std::make_unique<d3::rpc::WorkerProcess>(D3_NODE_BINARY));
    return procs.back()->take_socket();
  }
};

TEST(DecoratorSocket, TileFanOutEngagesThroughTheDecorator) {
  const PlanCase c = tiny_chain_vsm();
  const d3::exec::WeightStore weights = d3::exec::WeightStore::random_for(c.net, 3);
  const d3::exec::Executor reference(c.net, weights);
  const d3::runtime::OnlineEngine local(c.net, weights, c.assignment, c.vsm);

  SocketCluster cluster;
  cluster.transport->add_node("device0", cluster.spawn());
  cluster.transport->add_node("cloud0", cluster.spawn());
  cluster.transport->add_tile_worker(cluster.spawn());
  cluster.transport->add_tile_worker(cluster.spawn());
  cluster.transport->configure(c.net.name(), c.net, weights,
                               d3::core::serialize_plan_binary({c.net.name(), c.assignment, c.vsm}),
                               2);
  Tracer tracer;
  auto timing = std::make_shared<TimingTransport>(cluster.transport, &tracer);
  ASSERT_TRUE(timing->has_tile_workers());
  ASSERT_EQ(timing->tile_worker_count(), 2u);

  d3::runtime::OnlineEngine::Options options;
  options.transport = timing;
  const d3::runtime::OnlineEngine engine(c.net, weights, c.assignment, c.vsm, options);
  const std::vector<Tensor> inputs = inputs_for(c.net, 2);
  for (const Tensor& input : inputs) {
    const d3::runtime::InferenceResult result = engine.infer(input);
    expect_bitwise(result.output, reference.run(input));
    EXPECT_EQ(transcript(result), transcript(local.infer(input)));
  }
  const TimingTransport::Stats stats = timing->stats();
  const std::size_t tiles = c.vsm->num_tiles() * inputs.size();
  EXPECT_EQ(stats.verbs[static_cast<std::size_t>(Verb::kPutTile)].count, tiles);
  EXPECT_EQ(stats.verbs[static_cast<std::size_t>(Verb::kRunTile)].count, tiles);
  EXPECT_EQ(stats.verbs[static_cast<std::size_t>(Verb::kFetchTile)].count, tiles);
  EXPECT_GT(stats.verbs[static_cast<std::size_t>(Verb::kFetchTile)].bytes, 0u);
}

TEST(DecoratorSocket, IssuedVerbsUnderReadinessDispatch) {
  const PlanCase c = tiny_branch_split();
  const d3::exec::WeightStore weights = d3::exec::WeightStore::random_for(c.net, 3);
  const d3::exec::Executor reference(c.net, weights);
  const d3::runtime::OnlineEngine local(c.net, weights, c.assignment, c.vsm);

  SocketCluster cluster;
  for (const char* node : {"device0", "edge0", "cloud0"})
    cluster.transport->add_node(node, cluster.spawn());
  cluster.transport->configure(c.net.name(), c.net, weights,
                               d3::core::serialize_plan_binary({c.net.name(), c.assignment, c.vsm}),
                               0);
  auto timing = std::make_shared<TimingTransport>(cluster.transport, nullptr);
  d3::runtime::OnlineEngine::Options options;
  options.transport = timing;
  const d3::runtime::OnlineEngine engine(c.net, weights, c.assignment, c.vsm, options);

  const std::vector<Tensor> inputs = inputs_for(c.net, 16);
  d3::runtime::ServingReactor::Options reactor_options;
  reactor_options.readiness_dispatch = true;
  d3::runtime::ServingReactor reactor(engine, reactor_options);
  for (const Tensor& input : inputs) reactor.submit(input);
  for (std::size_t id = 0; id < inputs.size(); ++id) {
    const d3::runtime::InferenceResult result = reactor.wait(id);
    expect_bitwise(result.output, reference.run(inputs[id]));
    EXPECT_EQ(transcript(result), transcript(local.infer(inputs[id])));
  }
  const TimingTransport::Stats stats = timing->stats();
  EXPECT_EQ(stats.verbs[static_cast<std::size_t>(Verb::kBegin)].count, inputs.size());
  EXPECT_GT(stats.verbs[static_cast<std::size_t>(Verb::kRunLayer)].count, 0u);
  EXPECT_GT(stats.verbs[static_cast<std::size_t>(Verb::kFetch)].count, 0u);
  EXPECT_EQ(stats.errors, 0u);
}

}  // namespace
