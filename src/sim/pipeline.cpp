#include "sim/pipeline.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <vector>

#include "util/units.h"

namespace d3::sim {

double PipelinePlan::frame_latency_seconds() const {
  const double edge_path = edge_used ? de_seconds() + edge_seconds + ec_seconds() : 0.0;
  const double direct_path = dc_seconds();
  return device_seconds + std::max(edge_path, direct_path) + cloud_seconds;
}

double PipelinePlan::bottleneck_stage_seconds() const {
  double worst = device_seconds;
  worst = std::max(worst, de_seconds());
  worst = std::max(worst, edge_seconds);
  worst = std::max(worst, ec_seconds());
  worst = std::max(worst, dc_seconds());
  worst = std::max(worst, cloud_seconds);
  return worst;
}

PipelinePlan build_pipeline(const core::PartitionProblem& exact,
                            const core::Assignment& assignment) {
  if (assignment.tier.size() != exact.size())
    throw std::invalid_argument("build_pipeline: assignment size mismatch");
  PipelinePlan plan;
  plan.condition = exact.condition;

  const core::TierLoad load = core::tier_load(exact, assignment);
  plan.device_seconds = load.at(core::Tier::kDevice);
  plan.edge_seconds = load.at(core::Tier::kEdge);
  plan.cloud_seconds = load.at(core::Tier::kCloud);

  const core::BoundaryTraffic traffic = core::boundary_traffic(exact, assignment);
  plan.de_bytes = traffic.device_edge_bytes;
  plan.ec_bytes = traffic.edge_cloud_bytes;
  plan.dc_bytes = traffic.device_cloud_bytes;

  for (graph::VertexId v = 1; v < exact.size(); ++v) {
    plan.edge_used |= assignment.tier[v] == core::Tier::kEdge;
    plan.cloud_used |= assignment.tier[v] == core::Tier::kCloud;
  }
  return plan;
}

PipelinePlan build_pipeline_vsm(const core::PartitionProblem& exact,
                                const core::Assignment& assignment, const dnn::Network& net,
                                const core::FusedTilePlan& vsm,
                                const profile::NodeSpec& edge_node) {
  PipelinePlan plan = build_pipeline(exact, assignment);
  const double serial = core::serial_stack_latency(net, vsm, edge_node);
  const double parallel = core::parallel_stack_latency(net, vsm, edge_node);
  if (serial > plan.edge_seconds + 1e-12)
    throw std::invalid_argument("build_pipeline_vsm: stack exceeds the edge stage");
  plan.edge_seconds = plan.edge_seconds - serial + parallel;
  return plan;
}

StreamResult simulate_stream(const PipelinePlan& plan, const StreamOptions& options) {
  if (options.fps <= 0 || options.duration_seconds <= 0)
    throw std::invalid_argument("simulate_stream: bad stream options");

  StreamResult result;
  const double interval = 1.0 / options.fps;
  const auto offered =
      static_cast<std::size_t>(std::floor(options.duration_seconds / interval));
  result.frames_offered = offered;

  // FIFO servers: deterministic service times make a recurrence equivalent to a
  // discrete-event simulation of the six-stage pipeline. State per server: the
  // time it becomes free.
  struct Frees {
    double dev = 0, de = 0, dc = 0, edge = 0, ec = 0, cloud = 0;
  } frees;
  std::vector<double> latencies;
  latencies.reserve(offered);

  // Pushes one frame through the pipeline. In `admit_only_if_unblocked` mode
  // (the drop-oldest camera model with backpressure) the frame is rejected
  // unless every stage is free when the frame reaches it, so admitted frames
  // traverse at the closed-form latency; otherwise stages queue FIFO.
  const auto push_frame = [&](double arrival, bool admit_only_if_unblocked,
                              double& completion) -> bool {
    Frees next = frees;
    bool waited = false;
    const auto stage = [&](double& server_free, double ready, double service) {
      waited |= server_free > ready;
      const double done = std::max(ready, server_free) + service;
      server_free = done;
      return done;
    };

    const double dev_done = stage(next.dev, arrival, plan.device_seconds);
    completion = dev_done;
    double cloud_input = dev_done;
    if (plan.edge_used) {
      const double de_done = stage(next.de, dev_done, plan.de_seconds());
      const double edge_done = stage(next.edge, de_done, plan.edge_seconds);
      completion = edge_done;
      if (plan.cloud_used && plan.ec_bytes > 0)
        cloud_input = stage(next.ec, edge_done, plan.ec_seconds());
    }
    if (plan.cloud_used && plan.dc_bytes > 0)
      cloud_input = std::max(cloud_input, stage(next.dc, dev_done, plan.dc_seconds()));
    if (plan.cloud_used) completion = stage(next.cloud, cloud_input, plan.cloud_seconds);

    if (admit_only_if_unblocked && waited) return false;  // shed the frame
    frees = next;
    return true;
  };

  for (std::size_t i = 0; i < offered; ++i) {
    const double arrival = static_cast<double>(i) * interval;
    double completion = 0;
    if (push_frame(arrival, options.drop_when_busy, completion))
      latencies.push_back(completion - arrival);
    else
      ++result.frames_dropped;
  }

  result.frames_completed = latencies.size();
  if (!latencies.empty()) {
    double total = 0;
    for (const double l : latencies) total += l;
    result.avg_latency_seconds = total / static_cast<double>(latencies.size());
    std::sort(latencies.begin(), latencies.end());
    result.p50_latency_seconds = latencies[latencies.size() / 2];
    result.p99_latency_seconds = latencies[latencies.size() * 99 / 100];
    result.max_latency_seconds = latencies.back();
    result.throughput_fps =
        static_cast<double>(latencies.size()) / options.duration_seconds;
  }
  result.backbone_megabits_per_frame =
      util::bytes_to_megabits(static_cast<double>(plan.backbone_bytes()));
  return result;
}

double batch_makespan_seconds(const PipelinePlan& plan, std::size_t frames) {
  if (frames == 0) return 0.0;
  return plan.frame_latency_seconds() +
         static_cast<double>(frames - 1) * plan.bottleneck_stage_seconds();
}

double predicted_completion_seconds(const PipelinePlan& plan, std::size_t queued) {
  return batch_makespan_seconds(plan, queued + 1);
}

double predicted_completion_seconds(const PipelinePlan& plan, std::size_t queued,
                                    std::size_t inflight) {
  // An in-flight frame occupies pipeline stages for up to its full remaining
  // frame latency — not just one bottleneck period, which is all the 2-arg
  // form charged it as a mere queue entry. Single-stage pipelines (frame
  // latency == bottleneck) degenerate to the 2-arg form with
  // queued + inflight, since holding the only stage IS the queue wait.
  return static_cast<double>(inflight) * plan.frame_latency_seconds() +
         batch_makespan_seconds(plan, queued + 1);
}

}  // namespace d3::sim
