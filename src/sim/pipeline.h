// Online execution engine model: turns a partition into a per-frame pipeline
// (tier compute stages + inter-tier transfer links) and simulates a frame
// stream through it.
//
// The paper's measurement (§IV): frames fed at 30 FPS for 100 s, per-image
// average end-to-end latency. Stages are FIFO servers with deterministic service
// times; the frame source uses a depth-1 drop-oldest queue (a slow pipeline
// drops frames rather than queueing unboundedly, as a real camera pipeline
// does — see DESIGN.md). A queueing mode without drops is available for
// throughput studies.
#pragma once

#include <cstdint>

#include "core/partition.h"
#include "core/vsm.h"
#include "net/conditions.h"
#include "profile/node_spec.h"

namespace d3::sim {

struct PipelinePlan {
  // Per-frame compute seconds on each tier (ground-truth hardware latencies).
  double device_seconds = 0;
  double edge_seconds = 0;
  double cloud_seconds = 0;
  // Per-frame boundary traffic.
  std::int64_t de_bytes = 0;
  std::int64_t ec_bytes = 0;
  std::int64_t dc_bytes = 0;
  // Which tiers participate (controls pipeline wiring).
  bool edge_used = false;
  bool cloud_used = false;
  net::NetworkCondition condition;

  double de_seconds() const {
    return de_bytes == 0 ? 0.0 : condition.transfer_seconds(de_bytes, condition.device_edge_mbps);
  }
  double ec_seconds() const {
    return ec_bytes == 0 ? 0.0 : condition.transfer_seconds(ec_bytes, condition.edge_cloud_mbps);
  }
  double dc_seconds() const {
    return dc_bytes == 0 ? 0.0 : condition.transfer_seconds(dc_bytes, condition.device_cloud_mbps);
  }

  // Closed-form latency of one isolated frame: device stage, then the edge path
  // (d->e transfer, edge compute, e->c transfer) in parallel with the direct
  // d->c transfer, then the cloud stage.
  double frame_latency_seconds() const;

  // The slowest stage: the pipeline's throughput limit (frames complete at most
  // every bottleneck_stage_seconds once saturated).
  double bottleneck_stage_seconds() const;

  // Per-frame bytes crossing the Internet backbone into the cloud (Fig. 13).
  std::int64_t backbone_bytes() const { return ec_bytes + dc_bytes; }
};

// Builds the pipeline for `assignment` using ground-truth stage times from
// `exact` (a problem built with make_problem_exact).
PipelinePlan build_pipeline(const core::PartitionProblem& exact,
                            const core::Assignment& assignment);

// VSM variant: the tiled stack's serial time on the edge is replaced by the
// parallel (max-tile) time across the edge node pool (intra-tier scatter/gather
// is infinitesimal, §III-A).
PipelinePlan build_pipeline_vsm(const core::PartitionProblem& exact,
                                const core::Assignment& assignment, const dnn::Network& net,
                                const core::FusedTilePlan& vsm,
                                const profile::NodeSpec& edge_node);

struct StreamOptions {
  double fps = 30.0;
  double duration_seconds = 100.0;
  // true: drop the frame when the device stage is still busy (depth-1 queue).
  // false: queue every frame (unbounded FIFO).
  bool drop_when_busy = true;
};

struct StreamResult {
  std::size_t frames_offered = 0;
  std::size_t frames_completed = 0;
  std::size_t frames_dropped = 0;
  double avg_latency_seconds = 0;
  double p50_latency_seconds = 0;
  double p99_latency_seconds = 0;
  double max_latency_seconds = 0;
  double throughput_fps = 0;
  double backbone_megabits_per_frame = 0;
};

StreamResult simulate_stream(const PipelinePlan& plan, const StreamOptions& options = {});

// Closed-form makespan of `frames` requests admitted back-to-back into the
// pipeline: the first frame's full latency plus one bottleneck period for
// each following frame once the pipeline is saturated. The basis of
// predicted_completion_seconds.
double batch_makespan_seconds(const PipelinePlan& plan, std::size_t frames);

// Predicted completion time of a request admitted behind `queued` others: the
// makespan of a (queued + 1)-frame back-to-back batch — the newcomer finishes
// last. runtime::ServingReactor's latency-aware shedding compares this
// against the request's deadline at admission, so a request doomed by queue
// depth is refused up front instead of timing out after consuming capacity.
double predicted_completion_seconds(const PipelinePlan& plan, std::size_t queued);

// Occupancy-aware variant: `queued` requests wait ahead of the newcomer and
// `inflight` more are already moving through the pipeline's stages. Each
// in-flight frame holds a stage for up to one full frame latency before the
// pipe drains, so the newcomer pays that residual occupancy on top of its own
// batch makespan. With inflight = 0 this is exactly the two-argument form —
// the 2-arg overload under-predicted under load by pricing an in-flight frame
// the same as an unadmitted one.
double predicted_completion_seconds(const PipelinePlan& plan, std::size_t queued,
                                    std::size_t inflight);

}  // namespace d3::sim
