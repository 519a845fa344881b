// Shared declarations of the d3perf benchmark binary: the workload table, the
// seeded inputs, and the reference/probe process.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "dnn/network.h"
#include "dnn/tensor.h"

namespace perfbench {

struct Workload {
  std::string name;
  std::string model;                 // zoo name
  std::vector<std::string> workers;  // address-book [workers], in dial order
  bool fixed_plan = false;           // true: d3c --plan <fixed split>
  bool reactor = false;              // true: ServingReactor; false: blocking infer()
  int setups = 3;                    // setup repetitions per run (setup_s median)
  std::size_t distinct_inputs = 4;   // seeded inputs, cycled by the requests
  std::size_t inflight = 1;          // reactor: requests held in flight
  double slo_ms = 0;                 // reactor: latency limit for slo_miss_ratio
  int tail_percentile = 100;         // latency_tail_ms percentile
  bool pin_cores = false;            // one core per process (see deploy())
};

const Workload& workload_by_name(const std::string& name);

// The fixed 3-tier split of tiny-branch (device 0-1, edge 2-4, cloud rest),
// as plan text.
std::string tiny_branch_plan_text(const d3::dnn::Network& net);

// Seeded request inputs: the same seed gives the same tensors.
std::vector<d3::dnn::Tensor> make_inputs(const d3::dnn::Network& net, std::uint64_t seed,
                                         std::size_t count);

// The weights seed shared by d3c, the coordinator and the reference process.
inline constexpr std::uint64_t kWeightsSeed = 1;

// Reference process entry point:
//   --reference <model> <plan-file> <input-seed> <count> <out-file> <probe>
// Writes the exec::Executor output of every input to <out-file>. With
// <probe> >= 0 it also times standalone exec/core calls into
// <out-file>.probe; <probe> > 0 also times the planner for that many edge
// nodes.
int reference_main(const std::vector<std::string>& args);

std::vector<std::vector<float>> read_reference_outputs(const std::string& path);
// "name value" lines of a probe file.
std::map<std::string, double> read_probe(const std::string& path);

}  // namespace perfbench
