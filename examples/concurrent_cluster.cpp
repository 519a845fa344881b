// Example: the concurrent tiered runtime end to end.
//
// Builds a three-tier plan for a small CNN with a VSM fused-tile stack on the
// edge, then serves a burst of requests two ways:
//   1. one by one through the threaded engine (tiles on real pool threads),
//   2. submitted as one burst to runtime::ServingReactor (every request held
//      in flight at once, stages interleaved on the reactor thread).
// Every output is checked bitwise against the single-node reference, and the
// first request's message transcript is printed to show the deterministic
// sequence numbering.
#include <chrono>
#include <iostream>
#include <vector>

#include "core/vsm.h"
#include "dnn/model_zoo.h"
#include "exec/executor.h"
#include "runtime/engine.h"
#include "runtime/serving_reactor.h"
#include "util/rng.h"
#include "util/units.h"

using namespace d3;

int main() {
  const dnn::Network net = dnn::zoo::tiny_chain();
  const exec::WeightStore weights = exec::WeightStore::random_for(net, 42);

  // Plan: first six layers on the edge (tiled 2x2 across four edge workers),
  // the classifier tail in the cloud, ingest on the device.
  core::Assignment plan;
  plan.tier.assign(net.num_layers() + 1, core::Tier::kCloud);
  plan.tier[0] = core::Tier::kDevice;
  std::vector<dnn::LayerId> stack = {0, 1, 2, 3, 4, 5};
  for (const dnn::LayerId id : stack)
    plan.tier[dnn::Network::vertex_of(id)] = core::Tier::kEdge;
  const core::FusedTilePlan vsm = core::make_fused_tile_plan(net, stack, 2, 2);

  runtime::OnlineEngine::Options options;
  options.vsm_workers = 4;
  const runtime::OnlineEngine engine(net, weights, plan, vsm, options);
  std::cout << "engine: " << engine.vsm_workers() << " VSM workers, "
            << vsm.num_tiles() << " tiles per request\n\n";

  // A burst of eight frames plus their single-node references.
  util::Rng rng(7);
  std::vector<dnn::Tensor> frames;
  for (int k = 0; k < 8; ++k) frames.push_back(exec::random_tensor(net.input_shape(), rng));
  const std::vector<dnn::Tensor> references = exec::Executor(net, weights).run_batch(frames);

  const auto identical = [](const dnn::Tensor& a, const dnn::Tensor& b) {
    if (!(a.shape() == b.shape())) return false;
    for (std::size_t i = 0; i < a.size(); ++i)
      if (a[i] != b[i]) return false;
    return true;
  };

  // 1. Threaded engine, one request at a time.
  auto t0 = std::chrono::steady_clock::now();
  bool lossless = true;
  runtime::InferenceResult first;
  for (std::size_t k = 0; k < frames.size(); ++k) {
    runtime::InferenceResult r = engine.infer(frames[k]);
    lossless &= identical(r.output, references[k]);
    if (k == 0) first = std::move(r);
  }
  const double serial_s =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
  std::cout << "serial over threaded engine: " << util::ms(serial_s) << " ms, lossless="
            << (lossless ? "yes" : "NO") << "\n";

  // 2. The same burst served by the reactor front end.
  t0 = std::chrono::steady_clock::now();
  runtime::ServingReactor reactor(engine);
  for (const dnn::Tensor& frame : frames) reactor.submit(frame);
  const std::vector<runtime::InferenceResult> results = reactor.drain();
  const double served_s =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
  for (std::size_t k = 0; k < results.size(); ++k)
    lossless &= identical(results[k].output, references[k]);
  std::cout << "served through ServingReactor: " << util::ms(served_s)
            << " ms, lossless=" << (lossless ? "yes" : "NO") << "\n\n";

  std::cout << "request 0 transcript (" << first.messages.size() << " messages):\n";
  for (const runtime::MessageRecord& m : first.messages)
    std::cout << "  #" << m.seq << "  " << m.from_node << " -> " << m.to_node << "  "
              << m.payload << "  (" << m.bytes << " B)\n";
  std::cout << "\nboundary bytes: device->edge " << first.device_edge_bytes
            << ", edge->cloud " << first.edge_cloud_bytes << ", vsm scatter "
            << first.vsm_scatter_bytes << ", gather " << first.vsm_gather_bytes << "\n";
  return lossless ? 0 : 1;
}
