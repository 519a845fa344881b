// The workload table, seeded inputs, and the reference/probe process.
//
// Reference outputs come from exec::Executor in a process of their own, so
// the coordinator's peak RSS never includes them. In a traced run the same
// process also times the standalone exec and core calls the per-layer metrics
// compare the distributed run against.
#include <algorithm>
#include <chrono>
#include <fstream>
#include <functional>
#include <stdexcept>
#include <thread>

#include "bench.h"
#include "core/d3.h"
#include "core/plan_io.h"
#include "core/vsm_executor.h"
#include "dnn/model_zoo.h"
#include "exec/executor.h"
#include "exec/weights.h"
#include "net/conditions.h"
#include "profile/node_spec.h"
#include "runtime/thread_pool.h"
#include "util/rng.h"

namespace perfbench {

using d3::dnn::LayerId;
using d3::dnn::Network;
using d3::dnn::Tensor;

const Workload& workload_by_name(const std::string& name) {
  static const std::vector<Workload> table = [] {
    std::vector<Workload> w(3);
    w[0].name = "alexnet-hpa";
    w[0].model = "AlexNet";
    w[0].workers = {"device0", "edge0", "cloud0"};
    w[1].name = "alexnet-vsm";
    w[1].model = "AlexNet";
    w[1].workers = {"device0", "edge1", "edge2", "cloud0"};
    w[2].name = "tiny-serve";
    w[2].model = "tiny-branch";
    w[2].workers = {"device0", "edge0", "cloud0"};
    w[2].fixed_plan = true;
    w[2].reactor = true;
    w[2].setups = 5;
    w[2].distinct_inputs = 64;
    // Not in BENCHMARK.json: on a shared 4-vCPU host its tail and throughput
    // moved 10-60% between runs (perfbench/README.md has the runs). A closed
    // loop with two in flight was the steadiest load loop tried: an open loop at
    // 400 rps and 4, 8 or 16 in flight spread more.
    w[2].inflight = 2;
    w[2].slo_ms = 5;
    w[2].tail_percentile = 95;
    w[2].pin_cores = true;
    return w;
  }();
  for (const Workload& w : table)
    if (w.name == name) return w;
  throw std::invalid_argument("unknown workload \"" + name + "\"");
}

std::string tiny_branch_plan_text(const Network& net) {
  d3::core::Assignment a;
  a.tier.assign(net.num_layers() + 1, d3::core::Tier::kCloud);
  a.tier[0] = d3::core::Tier::kDevice;
  for (const LayerId id : {0, 1, 2, 3, 4})
    a.tier[Network::vertex_of(id)] = id < 2 ? d3::core::Tier::kDevice : d3::core::Tier::kEdge;
  return d3::core::serialize_plan(d3::core::SerializablePlan{net.name(), a, std::nullopt});
}

std::vector<Tensor> make_inputs(const Network& net, std::uint64_t seed, std::size_t count) {
  d3::util::Rng rng(seed * 0x9e3779b97f4a7c15ULL + 0x5eed);
  std::vector<Tensor> inputs;
  for (std::size_t i = 0; i < count; ++i)
    inputs.push_back(d3::exec::random_tensor(net.input_shape(), rng));
  return inputs;
}

std::vector<std::vector<float>> read_reference_outputs(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::uint64_t count = 0;
  in.read(reinterpret_cast<char*>(&count), sizeof count);
  std::vector<std::vector<float>> outputs(count);
  for (auto& output : outputs) {
    std::uint64_t n = 0;
    in.read(reinterpret_cast<char*>(&n), sizeof n);
    output.resize(n);
    in.read(reinterpret_cast<char*>(output.data()), static_cast<std::streamsize>(n * 4));
  }
  if (!in) throw std::runtime_error("truncated reference file \"" + path + "\"");
  return outputs;
}

std::map<std::string, double> read_probe(const std::string& path) {
  std::ifstream in(path);
  std::map<std::string, double> probe;
  std::string name;
  double value = 0;
  while (in >> name >> value) probe[name] = value;
  return probe;
}

namespace {

using Clock = std::chrono::steady_clock;

// Median wall milliseconds of `reps` calls after one warm-up call.
double median_ms(int reps, const std::function<void()>& call) {
  call();
  std::vector<double> ms;
  for (int i = 0; i < reps; ++i) {
    const auto start = Clock::now();
    call();
    ms.push_back(std::chrono::duration<double, std::milli>(Clock::now() - start).count());
  }
  std::sort(ms.begin(), ms.end());
  return ms[ms.size() / 2];
}

void write_probe(const std::string& path, const Network& net,
                 const d3::exec::WeightStore& weights, const d3::core::SerializablePlan& plan,
                 const Tensor& input, d3::runtime::ThreadPool& pool, int edge_nodes) {
  const int reps = net.total_flops() > 100'000'000 ? 3 : 30;
  std::ofstream out(path, std::ios::trunc);

  d3::exec::Executor serial(net, weights);
  d3::exec::Executor parallel(net, weights);
  parallel.set_parallel_for(
      [&pool](std::size_t n, const std::function<void(std::size_t)>& body) {
        pool.parallel_for(n, body);
      });
  out << "exec.executor_ms " << median_ms(reps, [&] { serial.run(input); }) << "\n";
  out << "exec.executor_mt_ms " << median_ms(reps, [&] { parallel.run(input); }) << "\n";

  // Warm per-layer kernel time, summed by the tier the plan gives the layer
  // and by kind.
  const std::vector<Tensor> outs = serial.run_all(input);
  double tier_ms[3] = {0, 0, 0};
  double conv_ms = 0, fc_ms = 0, other_ms = 0;
  for (LayerId id = 0; id < net.num_layers(); ++id) {
    std::vector<const Tensor*> ins;
    for (const LayerId in : net.layer(id).inputs)
      ins.push_back(in == d3::dnn::kNetworkInput ? &input : &outs[in]);
    const double ms =
        median_ms(reps, [&] { d3::exec::run_layer(net, weights, id, ins); });
    out << "layer." << id << " " << ms << "\n";
    tier_ms[d3::core::index(plan.assignment.tier[Network::vertex_of(id)])] += ms;
    const d3::dnn::LayerKind kind = net.layer(id).spec.kind;
    if (kind == d3::dnn::LayerKind::kConv) {
      conv_ms += ms;
    } else if (kind == d3::dnn::LayerKind::kFullyConnected) {
      fc_ms += ms;
    } else {
      other_ms += ms;
    }
  }
  out << "exec.device_ms " << tier_ms[0] << "\nexec.edge_ms " << tier_ms[1]
      << "\nexec.cloud_ms " << tier_ms[2] << "\nexec.conv_ms " << conv_ms << "\nexec.fc_ms "
      << fc_ms << "\nexec.other_ms " << other_ms << "\n";

  // VSM: each tile's stack alone, against the untiled stack.
  if (plan.vsm) {
    const d3::core::FusedTilePlan& vsm = *plan.vsm;
    const LayerId first_input = net.layer(vsm.stack.front()).inputs.front();
    const Tensor& stack_input = first_input == d3::dnn::kNetworkInput ? input : outs[first_input];
    double tiles_ms = 0;
    for (std::size_t t = 0; t < vsm.num_tiles(); ++t) {
      const d3::exec::Tile tile = d3::core::extract_tile_input(stack_input, vsm, t);
      const double ms = median_ms(
          reps, [&] { d3::core::run_single_tile(net, weights, tile, vsm, t); });
      out << "tile." << t << " " << ms << "\n";
      tiles_ms += ms;
    }
    const double serial_ms = median_ms(
        reps, [&] { d3::core::run_stack_serial(net, weights, stack_input, vsm.stack); });
    out << "vsm.tiles " << vsm.num_tiles() << "\nvsm.halo_overhead_ratio "
        << tiles_ms / serial_ms << "\nvsm.stack_serial_ms " << serial_ms << "\n";
  } else {
    out << "vsm.tiles 0\nvsm.halo_overhead_ratio 0\n";
  }

  // core.plan_ms: the offline framework d3c runs, in-process, for the edge
  // node count d3c derived from the address book (0 = a fixed plan).
  double plan_ms = 0;
  if (edge_nodes > 0) {
    plan_ms = median_ms(1, [&] {
      d3::core::D3Options options;
      options.edge_nodes = edge_nodes;
      const d3::core::D3System system(net, d3::profile::paper_testbed(), options);
      const d3::core::DeploymentPlan planned = system.plan(d3::net::wifi());
      if (d3::core::serialize_plan({net.name(), planned.assignment, planned.vsm}) !=
          d3::core::serialize_plan(plan))
        throw std::runtime_error("in-process plan differs from the deployed plan");
    });
  }
  out << "core.plan_ms " << plan_ms << "\n";
  if (!out) throw std::runtime_error("cannot write probe \"" + path + "\"");
}

}  // namespace

int reference_main(const std::vector<std::string>& args) {
  if (args.size() != 6) throw std::invalid_argument("--reference needs 6 arguments");
  const Network net = d3::dnn::zoo::by_name(args[0]);
  std::ifstream plan_file(args[1]);
  const std::string plan_text((std::istreambuf_iterator<char>(plan_file)),
                              std::istreambuf_iterator<char>());
  const d3::core::SerializablePlan plan = d3::core::parse_plan(plan_text, net);
  const std::vector<Tensor> inputs =
      make_inputs(net, std::stoull(args[2]), std::stoull(args[3]));
  const std::string out_path = args[4];
  // <probe>: -1 = outputs only; 0 = also probe, fixed plan; n > 0 = also
  // probe, and time the planner for n edge nodes.
  const int probe = std::stoi(args[5]);

  const d3::exec::WeightStore weights =
      d3::exec::WeightStore::random_for(net, kWeightsSeed);
  d3::runtime::ThreadPool pool(std::max(1u, std::thread::hardware_concurrency()));
  d3::exec::Executor executor(net, weights);
  executor.set_parallel_for([&pool](std::size_t n, const std::function<void(std::size_t)>& body) {
    pool.parallel_for(n, body);
  });

  std::ofstream out(out_path, std::ios::binary | std::ios::trunc);
  const std::uint64_t count = inputs.size();
  out.write(reinterpret_cast<const char*>(&count), sizeof count);
  for (const Tensor& input : inputs) {
    const Tensor output = executor.run(input);
    const std::uint64_t n = output.size();
    out.write(reinterpret_cast<const char*>(&n), sizeof n);
    out.write(reinterpret_cast<const char*>(output.data()), static_cast<std::streamsize>(n * 4));
  }
  out.close();
  if (!out) throw std::runtime_error("cannot write \"" + out_path + "\"");

  if (probe >= 0) write_probe(out_path + ".probe", net, weights, plan, inputs.front(), pool, probe);
  return 0;
}

}  // namespace perfbench
