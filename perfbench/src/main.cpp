// d3perf: the repository benchmark.
//
//   d3perf --workload <name> --seed <n> --seconds <s> --trace <0|1>
//          --bin-dir <dir> --work-dir <dir> [--stamp <key>=<value>]...
//
// Deploys the workload the way an operator does: d3c compiles one bundle per
// worker, each `d3_node --bundle` boots from its bundle on a free port, and
// the coordinator is configured as `d3_coordinator --active --elide-weights`
// configures it (fencing epoch 1, weights-elided kConfig). It then drives
// seeded requests for <s> seconds, checks every output bitwise against
// exec::Executor outputs computed beforehand in a separate process, and
// prints one JSON line: the end-to-end metrics with --trace 0, the per-layer
// metrics with --trace 1. perfbench/README.md defines every metric.
#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <map>
#include <memory>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "bench.h"
#include "core/plan_io.h"
#include "dnn/model_zoo.h"
#include "exec/weights.h"
#include "procs.h"
#include "rpc/socket.h"
#include "rpc/socket_transport.h"
#include "rpc/wire.h"
#include "runtime/engine.h"
#include "runtime/serving_reactor.h"
#include "timing_transport.h"
#include "trace.h"

namespace perfbench {
namespace {

using Clock = std::chrono::steady_clock;
using d3::dnn::Tensor;

double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

double median(std::vector<double> values) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  return n % 2 ? values[n / 2] : (values[n / 2 - 1] + values[n / 2]) / 2;
}

// Nearest-rank percentile (p = 100 is the maximum).
double percentile(std::vector<double> values, int p) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const auto rank = static_cast<std::size_t>(std::ceil(p / 100.0 * values.size()));
  return values[std::clamp<std::size_t>(rank, 1, values.size()) - 1];
}

double mean(const std::vector<double>& values) {
  if (values.empty()) return 0;
  double sum = 0;
  for (const double v : values) sum += v;
  return sum / static_cast<double>(values.size());
}

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw std::runtime_error("cannot read \"" + path + "\"");
  std::ostringstream text;
  text << in.rdbuf();
  return text.str();
}

void write_file(const std::string& path, const std::string& text) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out << text;
  if (!out) throw std::runtime_error("cannot write \"" + path + "\"");
}

std::uint64_t fnv1a(const std::string& text) {
  return d3::rpc::fnv1a(std::span<const std::uint8_t>(
      reinterpret_cast<const std::uint8_t*>(text.data()), text.size()));
}

bool bitwise_equal(const Tensor& output, const std::vector<float>& reference) {
  return output.size() == reference.size() &&
         std::memcmp(output.data(), reference.data(), reference.size() * sizeof(float)) == 0;
}

bool is_tier_head(const std::string& name) {
  return name == "device0" || name == "edge0" || name == "cloud0";
}

// ---------------------------------------------------------------------------
// Deployment

struct SetupTimes {
  double d3c_s = 0;
  double boot_s = 0;
  double weights_s = 0;    // coordinator WeightStore build
  double configure_s = 0;  // connect + elided kConfig + engine construction
  double total() const { return d3c_s + boot_s + weights_s + configure_s; }
};

struct Deployment {
  std::vector<std::pair<std::string, std::unique_ptr<Child>>> workers;
  std::unique_ptr<d3::exec::WeightStore> weights;
  std::string plan_path;
  std::string plan_text;
  d3::core::SerializablePlan plan;
  std::map<std::string, std::uint64_t> bundle_bytes;
  std::shared_ptr<d3::rpc::SocketTransport> socket;
  std::unique_ptr<d3::runtime::OnlineEngine> engine;
  SetupTimes times;
};

// One full deployment into `dir`: book on fresh free ports, d3c, worker boot,
// coordinator ready.
std::unique_ptr<Deployment> deploy(const Workload& workload, const d3::dnn::Network& net,
                                   const std::string& bin_dir, const std::string& dir) {
  auto d = std::make_unique<Deployment>();
  const std::vector<std::uint16_t> ports = free_ports(workload.workers.size());
  std::string book = "[workers]\n";
  for (std::size_t i = 0; i < ports.size(); ++i)
    book += workload.workers[i] + " 127.0.0.1:" + std::to_string(ports[i]) + "\n";
  book += "[standbys]\n";
  write_file(dir + "/book.txt", book);
  d->plan_path = dir + "/plan.txt";

  std::vector<std::string> d3c = {bin_dir + "/d3c", "--model", workload.model, "--book",
                                  dir + "/book.txt", "--out", dir, "--seed",
                                  std::to_string(kWeightsSeed), "--emit-plan", d->plan_path};
  if (workload.fixed_plan) {
    write_file(dir + "/fixed_plan.txt", tiny_branch_plan_text(net));
    d3c.insert(d3c.end(), {"--plan", dir + "/fixed_plan.txt"});
  } else {
    d3c.insert(d3c.end(), {"--testbed", "paper", "--condition", "wifi"});
  }
  auto start = Clock::now();
  {
    Child compiler(d3c, -1);
    std::istringstream lines(compiler.read_all());
    if (compiler.wait() != 0) throw std::runtime_error("d3c failed");
    std::string tag, node, path;
    std::uint64_t bytes = 0;
    while (lines >> tag) {
      if (tag == "BUNDLE" && lines >> node >> path >> bytes) {
        d->bundle_bytes[node] = bytes;
      } else {
        lines.ignore(1 << 20, '\n');
      }
    }
  }
  d->times.d3c_s = seconds_since(start);

  start = Clock::now();
  // With pin_cores each worker gets a core of its own, as each tier has a
  // machine of its own in the paper's deployment; the coordinator holds core
  // 0. Otherwise (-1) the scheduler places every process.
  int cpu = workload.pin_cores ? 1 : -1;
  for (const std::string& name : workload.workers) {
    d->workers.emplace_back(name, std::make_unique<Child>(std::vector<std::string>{
                                      bin_dir + "/d3_node", "--bundle",
                                      dir + "/" + name + ".d3b", name},
                                                                  cpu));
    if (workload.pin_cores) ++cpu;
  }
  for (auto& [name, child] : d->workers) {
    const std::string line = child->read_line(std::chrono::seconds(60));
    if (line.rfind("PORT ", 0) != 0) throw std::runtime_error(name + " did not boot: " + line);
  }
  d->times.boot_s = seconds_since(start);

  start = Clock::now();
  d->weights = std::make_unique<d3::exec::WeightStore>(
      d3::exec::WeightStore::random_for(net, kWeightsSeed));
  d->times.weights_s = seconds_since(start);

  start = Clock::now();
  d->plan_text = read_file(d->plan_path);
  d->plan = d3::core::parse_plan(d->plan_text, net);
  d->socket = std::make_shared<d3::rpc::SocketTransport>();
  d->socket->set_epoch(1);
  d->socket->set_elide_weights(true);
  std::size_t tile_workers = 0;
  for (std::size_t i = 0; i < ports.size(); ++i) {
    d3::rpc::Socket channel = d3::rpc::tcp_connect("127.0.0.1", ports[i]);
    if (is_tier_head(workload.workers[i])) {
      d->socket->add_node(workload.workers[i], std::move(channel));
    } else {
      d->socket->add_tile_worker(std::move(channel));
      ++tile_workers;
    }
  }
  d->socket->configure(net.name(), net, *d->weights, d3::core::serialize_plan_binary(d->plan),
                       tile_workers);
  d3::runtime::OnlineEngine::Options options;
  options.transport = d->socket;
  d->engine = std::make_unique<d3::runtime::OnlineEngine>(net, *d->weights, d->plan.assignment,
                                                          d->plan.vsm, options);
  d->times.configure_s = seconds_since(start);
  return d;
}

// ---------------------------------------------------------------------------
// Load generators

struct Window {
  std::vector<double> latency_ms;  // verified completions
  std::size_t attempted = 0;
  std::size_t failed = 0;  // failed, refused or not bitwise-equal
  std::size_t slo_missed = 0;
  double elapsed_s = 0;
  d3::runtime::ServingReactor::Stats reactor{};
};

struct RequestSet {
  const std::vector<Tensor>* inputs;
  const std::vector<std::vector<float>>* references;
};

// Closed loop, one client, blocking OnlineEngine::infer.
Window closed_loop(const d3::runtime::OnlineEngine& engine, const RequestSet& io, double seconds) {
  Window w;
  const auto start = Clock::now();
  while (seconds_since(start) < seconds) {
    const std::size_t i = w.attempted++ % io.inputs->size();
    const auto sent = Clock::now();
    try {
      const d3::runtime::InferenceResult result = engine.infer((*io.inputs)[i]);
      if (!bitwise_equal(result.output, (*io.references)[i])) {
        ++w.failed;
        continue;
      }
      w.latency_ms.push_back(
          std::chrono::duration<double, std::milli>(Clock::now() - sent).count());
    } catch (const std::exception& e) {
      std::fprintf(stderr, "d3perf: request failed: %s\n", e.what());
      ++w.failed;
    }
  }
  w.elapsed_s = seconds_since(start);
  return w;
}

// Closed loop over the continuation API, one span per request and one per
// stage: admission (start), device, edge, cloud, collect.
Window traced_closed_loop(const d3::runtime::OnlineEngine& engine, const RequestSet& io,
                          double seconds, std::size_t max_requests, Tracer& tracer) {
  static const char* kStages[] = {"stage.device", "stage.edge", "stage.cloud", "stage.collect"};
  Window w;
  const auto start = Clock::now();
  while (seconds_since(start) < seconds && w.attempted < max_requests) {
    const std::size_t i = w.attempted++ % io.inputs->size();
    const std::uint64_t request = w.attempted;
    const auto sent = Clock::now();
    try {
      d3::runtime::InferenceResult result;
      {
        ScopedSpan span(tracer, "request", request);
        std::optional<d3::runtime::OnlineEngine::Continuation> c;
        {
          ScopedSpan admit(tracer, "stage.admit", request, true);
          c.emplace(engine.start((*io.inputs)[i]));
        }
        while (!c->done()) {
          ScopedSpan stage(tracer, kStages[c->next_stage()], request, true);
          engine.step(*c);
        }
        result = engine.take(std::move(*c));
      }
      if (!bitwise_equal(result.output, (*io.references)[i])) {
        ++w.failed;
        continue;
      }
      w.latency_ms.push_back(
          std::chrono::duration<double, std::milli>(Clock::now() - sent).count());
    } catch (const std::exception& e) {
      std::fprintf(stderr, "d3perf: request failed: %s\n", e.what());
      ++w.failed;
    }
  }
  w.elapsed_s = seconds_since(start);
  return w;
}

// ServingReactor with readiness dispatch, as a closed loop holding
// `workload.inflight` requests in flight: the next request is submitted as
// soon as the oldest completes. Latency runs from submit to result.
Window serve_loop(const d3::runtime::OnlineEngine& engine, const RequestSet& io, double seconds,
                  const Workload& workload) {
  Window w;
  d3::runtime::ServingReactor::Options options;
  options.readiness_dispatch = true;
  d3::runtime::ServingReactor reactor(engine, options);
  // The reactor thread keeps the coordinator's core; the client (this
  // thread) moves to the device tier's core, where requests originate.
  if (workload.pin_cores) pin_to_cpu(1);
  std::vector<bool> ok;
  std::size_t submitted = 0;
  const auto submit = [&] { reactor.submit((*io.inputs)[submitted++ % io.inputs->size()]); };
  const auto collect = [&] {
    const std::size_t id = ok.size();
    try {
      const d3::runtime::InferenceResult result = reactor.wait(id);
      ok.push_back(bitwise_equal(result.output, (*io.references)[id % io.inputs->size()]));
    } catch (const std::exception& e) {
      std::fprintf(stderr, "d3perf: request %zu failed: %s\n", id, e.what());
      ok.push_back(false);
    }
  };
  const auto start = Clock::now();
  for (std::size_t i = 0; i < workload.inflight; ++i) submit();
  while (seconds_since(start) < seconds) {
    collect();
    submit();
  }
  while (ok.size() < submitted) collect();
  w.elapsed_s = seconds_since(start);
  if (workload.pin_cores) pin_to_cpu(0);
  w.attempted = submitted;
  w.reactor = reactor.stats();
  const std::vector<double> latencies = reactor.latencies_seconds();
  const std::vector<std::size_t> order = reactor.completion_order();
  for (std::size_t k = 0; k < order.size() && k < latencies.size(); ++k) {
    if (!ok[order[k]]) continue;
    w.latency_ms.push_back(latencies[k] * 1e3);
    if (latencies[k] * 1e3 > workload.slo_ms) ++w.slo_missed;
  }
  for (const bool good : ok)
    if (!good) ++w.failed;
  w.slo_missed += w.failed;
  return w;
}

// ---------------------------------------------------------------------------
// Process accounting over a measured window

struct Accounting {
  std::vector<std::pair<std::string, pid_t>> processes;  // "coordinator" is pid 0
  std::map<std::string, double> cpu_start;

  explicit Accounting(const Deployment& d) {
    processes.emplace_back("coordinator", 0);
    for (const auto& [name, child] : d.workers) processes.emplace_back(name, child->pid());
  }
  void start() {
    for (const auto& [name, pid] : processes) cpu_start[name] = cpu_seconds(pid);
  }
  // CPU milliseconds per process since start().
  std::map<std::string, double> cpu_ms() const {
    std::map<std::string, double> ms;
    for (const auto& [name, pid] : processes)
      ms[name] = (cpu_seconds(pid) - cpu_start.at(name)) * 1e3;
    return ms;
  }
  std::map<std::string, double> rss_mb() const {
    std::map<std::string, double> mb;
    for (const auto& [name, pid] : processes) mb[name] = peak_rss_mb(pid);
    return mb;
  }
};

std::uint64_t wire_bytes(const d3::rpc::SocketTransport::Stats& s) {
  return s.payload_bytes_sent + s.payload_bytes_fetched + s.peer_bytes;
}

// ---------------------------------------------------------------------------
// Output

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

std::string json_number(double value) {
  if (!std::isfinite(value)) value = 0;
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.10g", value);
  return buf;
}

std::string result_json(bool correct, std::size_t attempted, std::size_t failed,
                        const std::vector<Metric>& metrics) {
  std::string out = std::string("{\"correct\": ") + (correct ? "true" : "false") +
                    ", \"attempted\": " + std::to_string(attempted) +
                    ", \"failed\": " + std::to_string(failed) + ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    if (i) out += ", ";
    out += "\"" + metrics[i].name + "\": {\"value\": " + json_number(metrics[i].value) +
           ", \"unit\": \"" + metrics[i].unit + "\"}";
  }
  return out + "}}";
}

// ---------------------------------------------------------------------------
// Per-layer attribution from spans

struct Attribution {
  std::map<std::string, double> stage_ms;  // mean per request
  double coordinator_self_ms = 0;
  double remote_overhead_ms = 0;
  double tile_overlap = 0;
  double gap_ms = 0;
  double gap_ratio = 0;  // median |request - sum(stages)| / request
  std::size_t requests = 0;
};

// Standalone compute (from the probe) of what a remote run span executed.
double standalone_ms(const Span& span, const std::map<std::string, double>& probe) {
  const auto get = [&](const std::string& key) {
    const auto it = probe.find(key);
    return it == probe.end() ? 0.0 : it->second;
  };
  if (span.name == "rpc.run_layer") return get("layer." + std::to_string(span.arg));
  if (span.name == "rpc.run_tile") return get("tile." + std::to_string(span.arg));
  if (span.name == "rpc.run_stack") {
    // A stack run on one node executes every tile of the plan serially.
    double sum = 0;
    for (int t = 0; probe.count("tile." + std::to_string(t)); ++t)
      sum += get("tile." + std::to_string(t));
    return sum;
  }
  return 0;
}

Attribution attribute(const std::vector<Span>& spans,
                      const std::map<std::string, double>& probe) {
  std::map<std::uint64_t, std::vector<const Span*>> by_request;
  for (const Span& s : spans)
    if (s.request) by_request[s.request].push_back(&s);
  Attribution a;
  std::vector<double> self, overhead, overlap, gaps, gap_ratios;
  std::map<std::string, std::vector<double>> stages;
  for (const auto& [request, list] : by_request) {
    const Span* root = nullptr;
    for (const Span* s : list)
      if (s->name == "request") root = s;
    if (!root) continue;
    const double request_ms = (root->end_ns - root->start_ns) / 1e6;
    double stage_sum = 0;
    std::map<std::string, double> per_stage;
    std::vector<std::pair<std::int64_t, std::int64_t>> rpc, tiles;
    double tile_busy = 0, remote = 0;
    for (const Span* s : list) {
      const double ms = (s->end_ns - s->start_ns) / 1e6;
      if (s->name.rfind("stage.", 0) == 0) {
        per_stage[s->name.substr(6)] += ms;
        stage_sum += ms;
      } else if (s->name.rfind("rpc.", 0) == 0) {
        rpc.emplace_back(std::max(s->start_ns, root->start_ns), std::min(s->end_ns, root->end_ns));
        if (s->name == "rpc.put_tile" || s->name == "rpc.run_tile" || s->name == "rpc.fetch_tile")
          tiles.emplace_back(s->start_ns, s->end_ns);
        if (s->name == "rpc.run_tile") tile_busy += ms;
        remote += ms - standalone_ms(*s, probe);
      }
    }
    if (!tiles.empty()) {
      std::int64_t first = tiles.front().first, last = tiles.front().second;
      for (const auto& [b, e] : tiles) first = std::min(first, b), last = std::max(last, e);
      overlap.push_back(tile_busy / ((last - first) / 1e6));
    }
    for (const auto& [name, ms] : per_stage) stages[name].push_back(ms);
    self.push_back(request_ms - union_ns(rpc) / 1e6);
    overhead.push_back(remote);
    gaps.push_back(request_ms - stage_sum);
    gap_ratios.push_back(std::abs(request_ms - stage_sum) / request_ms);
    ++a.requests;
  }
  for (const auto& [name, values] : stages) {
    double sum = 0;
    for (const double ms : values) sum += ms;
    a.stage_ms[name] = sum / static_cast<double>(a.requests);
  }
  a.coordinator_self_ms = mean(self);
  a.remote_overhead_ms = mean(overhead);
  a.tile_overlap = mean(overlap);
  a.gap_ms = mean(gaps);
  a.gap_ratio = median(gap_ratios);
  return a;
}

// ---------------------------------------------------------------------------

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string bin_dir;
  std::string work_dir;
  std::vector<std::pair<std::string, std::string>> stamps;
};

Args parse_args(int argc, char** argv) {
  Args args;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) throw std::invalid_argument("missing value for " + flag);
    const std::string value = argv[++i];
    if (flag == "--workload") {
      args.workload = value;
    } else if (flag == "--seed") {
      args.seed = std::stoull(value);
    } else if (flag == "--seconds") {
      args.seconds = std::stod(value);
    } else if (flag == "--trace") {
      args.trace = value == "1";
    } else if (flag == "--bin-dir") {
      args.bin_dir = value;
    } else if (flag == "--work-dir") {
      args.work_dir = value;
    } else if (flag == "--stamp") {
      const std::size_t eq = value.find('=');
      if (eq == std::string::npos) throw std::invalid_argument("--stamp wants key=value");
      args.stamps.emplace_back(value.substr(0, eq), value.substr(eq + 1));
    } else {
      throw std::invalid_argument("unknown flag " + flag);
    }
  }
  if (args.workload.empty() || args.bin_dir.empty() || args.work_dir.empty())
    throw std::invalid_argument("--workload, --bin-dir and --work-dir are required");
  return args;
}

// Reference outputs (and, traced, the standalone probe) from a separate
// process, before any timed window.
std::map<std::string, double> run_reference(const Workload& workload, const Deployment& d,
                                            const Args& args, int probe,
                                            std::vector<std::vector<float>>& references) {
  const std::string out = args.work_dir + "/reference.bin";
  Child reference({"/proc/self/exe", "--reference", workload.model, d.plan_path,
                   std::to_string(args.seed), std::to_string(workload.distinct_inputs), out,
                   std::to_string(probe)},
                  -1);
  reference.read_all();
  if (reference.wait() != 0) throw std::runtime_error("reference process failed");
  references = read_reference_outputs(out);
  return probe >= 0 ? read_probe(out + ".probe") : std::map<std::string, double>{};
}

int run(const Args& args) {
  const Workload& workload = workload_by_name(args.workload);
  if (workload.pin_cores) pin_to_cpu(0);  // the coordinator's core; see deploy()
  const d3::dnn::Network net = d3::dnn::zoo::by_name(workload.model);
  const std::vector<Tensor> inputs = make_inputs(net, args.seed, workload.distinct_inputs);

  // Setup, repeated; the last deployment serves the measured window.
  std::vector<SetupTimes> setups;
  std::unique_ptr<Deployment> d;
  for (int rep = 0; rep < workload.setups; ++rep) {
    d.reset();
    d = deploy(workload, net, args.bin_dir, args.work_dir);
    setups.push_back(d->times);
  }
  const auto median_of = [&](double SetupTimes::*field) {
    std::vector<double> v;
    for (const SetupTimes& s : setups) v.push_back(s.*field);
    return median(v);
  };
  std::vector<double> totals;
  for (const SetupTimes& s : setups) totals.push_back(s.total());
  const double setup_s = median(totals);

  int edge_nodes = 0;
  if (!workload.fixed_plan) {
    edge_nodes = 1;
    for (const std::string& name : workload.workers)
      if (name.rfind("edge", 0) == 0) ++edge_nodes;
  }
  std::vector<std::vector<float>> references;
  const std::map<std::string, double> probe =
      run_reference(workload, *d, args, args.trace ? edge_nodes : -1, references);
  const RequestSet io{&inputs, &references};

  // Warm-up request (lazy worker state, arenas), not measured.
  {
    const d3::runtime::InferenceResult warm = d->engine->infer(inputs.front());
    if (!bitwise_equal(warm.output, references.front()))
      throw std::runtime_error("warm-up output differs from exec::Executor");
  }

  const auto drive = [&](const d3::runtime::OnlineEngine& engine, double seconds) {
    return workload.reactor ? serve_loop(engine, io, seconds, workload)
                            : closed_loop(engine, io, seconds);
  };

  Accounting accounting(*d);
  std::vector<Metric> metrics;
  std::size_t attempted = 0, failed = 0;

  // Untraced window (the whole run with --trace 0, the first half with 1).
  const double untraced_s = args.trace ? args.seconds / 2 : args.seconds;
  const d3::rpc::SocketTransport::Stats wire0 = d->socket->stats();
  accounting.start();
  const Window base = drive(*d->engine, untraced_s);
  const std::map<std::string, double> cpu_ms = accounting.cpu_ms();
  const d3::rpc::SocketTransport::Stats wire1 = d->socket->stats();
  const std::map<std::string, double> rss = accounting.rss_mb();
  attempted += base.attempted;
  failed += base.failed;
  const double done = static_cast<double>(base.latency_ms.size());
  if (base.latency_ms.size() < 100) {
    std::fprintf(stderr, "d3perf: latencies (ms):");
    for (const double ms : base.latency_ms) std::fprintf(stderr, " %.1f", ms);
    std::fprintf(stderr, "\n");
  }
  const double base_p50 = median(base.latency_ms);

  double cpu_total = 0, workers_rss = 0;
  for (const auto& [name, ms] : cpu_ms) cpu_total += ms;
  for (const auto& [name, mb] : rss)
    if (name != "coordinator") workers_rss += mb;

  if (!args.trace) {
    metrics = {
        {"latency_p50_ms", base_p50, "ms"},
        {"latency_tail_ms", percentile(base.latency_ms, workload.tail_percentile), "ms"},
        {"throughput_rps", done / base.elapsed_s, "1/s"},
        {"setup_s", setup_s, "s"},
        {"cpu_ms_per_req", cpu_total / done, "ms"},
        {"wire_kb_per_req", (wire_bytes(wire1) - wire_bytes(wire0)) / 1024.0 / done, "KiB"},
        {"coordinator_rss_mb", rss.at("coordinator"), "MiB"},
        {"workers_rss_mb", workers_rss, "MiB"},
    };
  } else {
    // Traced window: the same drive through the timing decorator.
    Tracer tracer;
    auto timing = std::make_shared<TimingTransport>(d->socket, &tracer);
    d3::runtime::OnlineEngine::Options options;
    options.transport = timing;
    const d3::runtime::OnlineEngine traced(net, *d->weights, d->plan.assignment, d->plan.vsm,
                                           options);
    const d3::rpc::SocketTransport::Stats s0 = d->socket->stats();
    const Window window = workload.reactor
                              ? drive(traced, args.seconds / 2)
                              : traced_closed_loop(traced, io, args.seconds / 2,
                                                   ~std::size_t{0}, tracer);
    const d3::rpc::SocketTransport::Stats s1 = d->socket->stats();
    const TimingTransport::Stats verbs = timing->stats();
    attempted += window.attempted;
    failed += window.failed;
    const double n = std::max<double>(1, static_cast<double>(window.latency_ms.size()));

    // Stage attribution comes from blocking start()/step() requests: the
    // traced window itself on the blocking loop, a short probe after it on
    // the reactor workload (the reactor's steps are internal to it).
    if (workload.reactor) {
      const Window stepped = traced_closed_loop(traced, io, 2.0, 200, tracer);
      attempted += stepped.attempted;
      failed += stepped.failed;
    }
    const Attribution at = attribute(tracer.spans(), probe);
    const double tolerance = 0.05;
    if (at.gap_ratio > tolerance) {
      std::fprintf(stderr,
                   "d3perf: attribution check failed: stages miss the request span by "
                   "%.1f%% (tolerance %.0f%%)\n",
                   at.gap_ratio * 100, tolerance * 100);
      ++failed;
    }

    const auto p = [&](const std::string& key) {
      const auto it = probe.find(key);
      return it == probe.end() ? 0.0 : it->second;
    };
    for (const char* key : {"exec.executor_ms", "exec.executor_mt_ms", "exec.device_ms",
                            "exec.edge_ms", "exec.cloud_ms", "exec.conv_ms", "exec.fc_ms",
                            "exec.other_ms"})
      metrics.push_back({key, p(key), "ms"});
    metrics.push_back({"vsm.tiles", p("vsm.tiles"), "count"});
    metrics.push_back({"vsm.halo_overhead_ratio", p("vsm.halo_overhead_ratio"), "ratio"});
    metrics.push_back({"vsm.tile_overlap", at.tile_overlap, "ratio"});
    for (std::size_t v = 0; v < kVerbCount; ++v) {
      const std::string name = std::string("rpc.") + verb_name(static_cast<Verb>(v));
      const TimingTransport::VerbStats& s = verbs.verbs[v];
      metrics.push_back({name + ".count", s.count / n, "count"});
      metrics.push_back({name + ".ms", s.ns / 1e6 / n, "ms"});
      metrics.push_back({name + ".kb", s.bytes / 1024.0 / n, "KiB"});
    }
    metrics.push_back({"rpc.remote_overhead_ms", at.remote_overhead_ms, "ms"});
    metrics.push_back({"rpc.op_wait_ms", verbs.op_wait_ns / 1e6 / n, "ms"});
    metrics.push_back({"rpc.errors", static_cast<double>(verbs.errors), "count"});
    metrics.push_back({"rpc.reconnects", static_cast<double>(s1.reconnects), "count"});
    metrics.push_back({"rpc.relay_kb", (s1.relay_bytes - s0.relay_bytes) / 1024.0 / n, "KiB"});
    metrics.push_back(
        {"rpc.pipelined_sends", (s1.pipelined_sends - s0.pipelined_sends) / n, "count"});
    for (const char* stage : {"admit", "device", "edge", "cloud", "collect"}) {
      const auto it = at.stage_ms.find(stage);
      metrics.push_back({std::string("runtime.stage_ms.") + stage,
                         it == at.stage_ms.end() ? 0.0 : it->second, "ms"});
    }
    metrics.push_back({"runtime.attribution_gap_ms", at.gap_ms, "ms"});
    metrics.push_back({"runtime.attribution_gap_ratio", at.gap_ratio, "ratio"});
    metrics.push_back({"runtime.coordinator_self_ms", at.coordinator_self_ms, "ms"});
    const d3::runtime::ServingReactor::Stats& r = window.reactor;
    const double steps = workload.reactor ? r.steps / n : 4.0;
    metrics.push_back({"runtime.steps", steps, "count"});
    metrics.push_back({"runtime.parked_stages", r.parked_stages / n, "count"});
    metrics.push_back({"runtime.wire_wait_ms", r.wire_wait_ms / n, "ms"});
    metrics.push_back({"runtime.max_inflight", static_cast<double>(r.max_inflight), "count"});
    metrics.push_back({"runtime.shed", static_cast<double>(r.shed), "count"});
    metrics.push_back({"runtime.expired", static_cast<double>(r.expired), "count"});
    metrics.push_back(
        {"runtime.recoveries", static_cast<double>(traced.stats().recoveries), "count"});
    metrics.push_back(
        {"slo_miss_ratio",
         workload.reactor ? window.slo_missed / std::max<double>(1, window.attempted) : 0.0,
         "ratio"});
    metrics.push_back(
        {"failed_ratio", static_cast<double>(failed) / std::max<double>(1, attempted), "ratio"});
    metrics.push_back({"setup.d3c_s", median_of(&SetupTimes::d3c_s), "s"});
    metrics.push_back({"setup.boot_s", median_of(&SetupTimes::boot_s), "s"});
    metrics.push_back(
        {"setup.coordinator_weights_s", median_of(&SetupTimes::weights_s), "s"});
    metrics.push_back({"setup.configure_s", median_of(&SetupTimes::configure_s), "s"});
    double bundle_bytes = 0;
    for (const auto& [node, bytes] : d->bundle_bytes) bundle_bytes += bytes;
    metrics.push_back({"setup.bundle_mb", bundle_bytes / (1024.0 * 1024.0), "MiB"});
    metrics.push_back({"setup.config_kb", d->socket->stats().config_bytes_sent / 1024.0, "KiB"});
    metrics.push_back({"core.plan_ms", p("core.plan_ms"), "ms"});
    for (const char* process : {"coordinator", "device0", "edge0", "edge1", "edge2", "cloud0"}) {
      const auto c = cpu_ms.find(process);
      const auto m = rss.find(process);
      metrics.push_back({std::string("cpu.") + process + "_ms_per_req",
                         c == cpu_ms.end() ? 0.0 : c->second / done, "ms"});
      metrics.push_back(
          {std::string("rss.") + process + "_mb", m == rss.end() ? 0.0 : m->second, "MiB"});
    }
    metrics.push_back({"latency.p99_ms", percentile(base.latency_ms, 99), "ms"});
    metrics.push_back({"latency.samples", done, "count"});
    const double traced_p50 = median(window.latency_ms);
    metrics.push_back({"trace.overhead_ratio", traced_p50 / base_p50, "ratio"});

    std::fprintf(stderr, "d3perf: traced p50 %.3f ms vs untraced %.3f ms; %zu spans\n",
                 traced_p50, base_p50, tracer.spans().size());
    tracer.write_chrome_json(args.work_dir + "/trace.json");
  }

  // Stamp: host and plan identity. Compare numbers only across equal stamps.
  std::ostringstream stamp;
  stamp << "{\"workload\": \"" << workload.name << "\", \"seed\": " << args.seed
        << ", \"nproc\": " << std::thread::hardware_concurrency() << ", \"compiler\": \""
        << "g++ " << __VERSION__ << "\", \"build_type\": \"" << D3PERF_BUILD_TYPE << "\"";
  for (const auto& [key, value] : args.stamps) stamp << ", \"" << key << "\": \"" << value << "\"";
  char hash[32];
  std::snprintf(hash, sizeof hash, "%016llx",
                static_cast<unsigned long long>(fnv1a(d->plan_text)));
  stamp << ", \"plan_fnv1a\": \"" << hash << "\", \"bundle_bytes\": {";
  bool first = true;
  for (const auto& [node, bytes] : d->bundle_bytes) {
    stamp << (first ? "" : ", ") << "\"" << node << "\": " << bytes;
    first = false;
  }
  stamp << "}, \"tail_percentile\": " << workload.tail_percentile
        << ", \"tail_samples\": " << done << ", \"setups\": " << workload.setups << "}";
  std::printf("STAMP %s\n", stamp.str().c_str());

  const bool correct = failed == 0;
  std::printf("%s\n", result_json(correct, attempted, failed, metrics).c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  try {
    if (argc > 1 && std::string(argv[1]) == "--reference")
      return perfbench::reference_main(std::vector<std::string>(argv + 2, argv + argc));
    return perfbench::run(perfbench::parse_args(argc, argv));
  } catch (const std::exception& e) {
    std::fprintf(stderr, "d3perf: %s\n", e.what());
    return 2;
  }
}
