// Reference executor: runs a Network on real data, layer by layer in topological
// order. This is the ground truth the VSM tiled executor is checked against, and
// what the runnable examples use.
#pragma once

#include <vector>

#include "dnn/network.h"
#include "dnn/tensor.h"
#include "exec/ops.h"
#include "exec/weights.h"

namespace d3::exec {

// Executes a single layer on explicit inputs (ordered as the layer declares
// them). Shared by the reference executor and the online execution engine.
// `ctx` threads the scratch arena and intra-op parallel_for into the kernels;
// the default context (thread-local arena, serial) is always correct.
dnn::Tensor run_layer(const dnn::Network& net, const WeightStore& weights, dnn::LayerId id,
                      const std::vector<const dnn::Tensor*>& inputs,
                      const OpContext& ctx = {});

class Executor {
 public:
  // Both referents must outlive the executor.
  Executor(const dnn::Network& net, const WeightStore& weights);

  // Installs an intra-op parallelism hook (e.g. a lambda over
  // runtime::ThreadPool::parallel_for): the conv and fully-connected
  // kernels split their output into disjoint blocks across it, so a single
  // request uses all cores. Outputs are bitwise-identical with or without the
  // hook. Not thread-safe against concurrent run* calls — install during
  // setup. The hook itself must tolerate concurrent callers if the executor is
  // shared across threads (ThreadPool::parallel_for does).
  void set_parallel_for(ParallelFor parallel_for) { parallel_for_ = std::move(parallel_for); }

  // Runs the whole network; returns the output of the last layer. All run*
  // methods are const and touch no shared mutable state, so one Executor may
  // serve concurrent callers (the concurrency tests rely on this to produce
  // reference outputs from many threads at once).
  dnn::Tensor run(const dnn::Tensor& input) const;

  // Reference outputs for a batch of requests, in order (the single-node
  // ground truth the batched/pipelined runtime is checked against).
  std::vector<dnn::Tensor> run_batch(const std::vector<dnn::Tensor>& inputs) const;

  // Runs the whole network; returns every layer's output (indexed by LayerId).
  std::vector<dnn::Tensor> run_all(const dnn::Tensor& input) const;

  // Runs only layers [first, last] (inclusive), which must form a contiguous
  // prefix-closed segment: every input of a layer in range is either the segment
  // input (`input`, replacing kNetworkInput or the output of layer first-1) or
  // produced inside the range. This executes one horizontal partition's slice of
  // a *chain* network on one tier. Throws if the range is not self-contained.
  dnn::Tensor run_segment(const dnn::Tensor& input, dnn::LayerId first,
                          dnn::LayerId last) const;

 private:
  OpContext context() const { return OpContext{nullptr, parallel_for_ ? &parallel_for_ : nullptr}; }

  const dnn::Network& net_;
  const WeightStore& weights_;
  ParallelFor parallel_for_;  // empty: serial kernels
};

}  // namespace d3::exec
