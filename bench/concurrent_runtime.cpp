// Measured concurrency of the threaded runtime engine on real tensors: VSM
// stage wall clock, sequential tile loop vs. ThreadPool workers — the paper's
// fused-tile spatial parallelism actually running as threads.
//
// Two modes. "raw" runs pure compute: its speedup tracks how many physical
// cores the host gives the pool (on a single-core CI box it stays ~1x).
// "cluster" adds the engine's emulated per-tile service latency, which stands
// in for the remote machines of the paper's testbed (each tile runs on a
// *separate* edge node there); threads genuinely overlap those waits, so this
// is real wall-clock concurrency even on one core, not a simulation — and
// outputs are still checked bitwise against the single-node reference.
#include <chrono>
#include <iostream>
#include <vector>

#include "common.h"
#include "core/d3.h"
#include "core/vsm.h"
#include "exec/executor.h"
#include "runtime/engine.h"
#include "runtime/thread_pool.h"
#include "util/rng.h"
#include "util/units.h"

using namespace d3;

namespace {

// Emulated remote-node service per VSM tile. Chosen at the scale of the
// paper's per-stage latencies (tens of ms); the table prints it.
constexpr double kTileServiceSeconds = 0.12;

double seconds_since(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();
}

bool identical(const dnn::Tensor& a, const dnn::Tensor& b) {
  if (!(a.shape() == b.shape())) return false;
  for (std::size_t i = 0; i < a.size(); ++i)
    if (a[i] != b[i]) return false;
  return true;
}

// A conv stack light enough that emulated node service dominates compute (the
// regime of the paper's testbed, where edge nodes are whole machines).
dnn::Network vsm_workload() {
  const dnn::Window w3{3, 3, 1, 1, 1, 1};
  return dnn::zoo::conv_stack("vsm_bench", dnn::Shape{3, 48, 48},
                              {{8, w3}, {8, w3}, {12, w3}});
}

void vsm_stage_speedup() {
  const dnn::Network net = vsm_workload();
  const exec::WeightStore weights = exec::WeightStore::random_for(net, 7);
  util::Rng rng(11);
  const dnn::Tensor input = exec::random_tensor(net.input_shape(), rng);
  const dnn::Tensor reference = exec::Executor(net, weights).run(input);

  std::vector<dnn::LayerId> all(net.num_layers());
  for (dnn::LayerId id = 0; id < net.num_layers(); ++id) all[id] = id;
  const auto stack = core::longest_tileable_run(net, all);
  const dnn::Shape out = net.layer(stack.back()).output_shape;

  core::Assignment plan;
  plan.tier.assign(net.num_layers() + 1, core::Tier::kEdge);
  plan.tier[0] = core::Tier::kDevice;

  util::Table table({"mode", "workers", "grid", "sequential (ms)", "threaded (ms)",
                     "speedup", "lossless"});
  constexpr int kReps = 3;
  for (const bool cluster : {false, true}) {
    for (const int workers : {2, 4, 8}) {
      const auto [rows, cols] = core::choose_tile_grid(workers, out.h, out.w);
      const auto vsm = core::make_fused_tile_plan(net, stack, rows, cols);

      runtime::OnlineEngine::Options seq_opts;
      runtime::OnlineEngine::Options thr_opts;
      thr_opts.vsm_workers = static_cast<std::size_t>(workers);
      if (cluster) {
        seq_opts.emulated_tile_service_seconds = kTileServiceSeconds;
        thr_opts.emulated_tile_service_seconds = kTileServiceSeconds;
      }
      const runtime::OnlineEngine sequential(net, weights, plan, vsm, seq_opts);
      const runtime::OnlineEngine threaded(net, weights, plan, vsm, thr_opts);

      bool lossless = true;
      auto t0 = std::chrono::steady_clock::now();
      for (int r = 0; r < kReps; ++r)
        lossless &= identical(sequential.infer(input).output, reference);
      const double serial_s = seconds_since(t0) / kReps;

      t0 = std::chrono::steady_clock::now();
      for (int r = 0; r < kReps; ++r)
        lossless &= identical(threaded.infer(input).output, reference);
      const double threaded_s = seconds_since(t0) / kReps;

      table.row()
          .cell(std::string(cluster ? "cluster" : "raw"))
          .cell(std::int64_t{workers})
          .cell(std::to_string(rows) + "x" + std::to_string(cols))
          .cell(util::ms(serial_s), 2)
          .cell(util::ms(threaded_s), 2)
          .cell(serial_s / threaded_s, 2)
          .cell(std::string(lossless ? "yes" : "NO"));
    }
  }
  table.print(std::cout,
              "VSM stage: sequential tile loop vs. ThreadPool (" +
                  std::to_string(stack.size()) + "-layer stack, output " + out.to_string() +
                  "); cluster mode emulates " +
                  std::to_string(static_cast<int>(util::ms(kTileServiceSeconds))) +
                  " ms remote service per tile; host cores: " +
                  std::to_string(runtime::ThreadPool::hardware_threads()));
  std::cout << "\n";
}

}  // namespace

int main() {
  bench::banner("Concurrent runtime engine",
                "Real threads, real tensors: VSM tile parallelism measured "
                "against the sequential engine, with bitwise losslessness "
                "checked on every run.");
  vsm_stage_speedup();
  bench::paper_note(
      "HPA+VSM's speedup story (Figs. 9/12) assumes concurrent workers; this "
      "bench demonstrates it end-to-end on the in-process cluster.");
  return 0;
}
