// Lossless tiled execution of a fused tile plan (the per-edge-node compute of
// Fig. 8): each tile's stack runs independently from its own input crop, then
// the output tiles are gathered into the full feature map.
//
// Because every tile op is the same region-aware kernel the reference executor
// uses (exec/ops.h), the gathered result equals the serial execution *exactly*
// (bitwise float equality) — the paper's "no precision loss" claim, which the
// test suite asserts.
#pragma once

#include "core/vsm.h"
#include "dnn/tensor.h"
#include "exec/ops.h"
#include "exec/weights.h"

namespace d3::core {

// Extracts the input crop one edge node needs for `tile_index` (what the
// online engine would scatter to that node).
exec::Tile extract_tile_input(const dnn::Tensor& stack_input, const FusedTilePlan& plan,
                              std::size_t tile_index);

// Runs the whole stack for one tile, returning its slice of ck's output.
// `ctx` reaches the tile's conv kernels (intra-op parallel_for, arena); the
// default serial context is the reference path, and any context gives the
// same bits.
exec::Tile run_single_tile(const dnn::Network& net, const exec::WeightStore& weights,
                           const exec::Tile& input, const FusedTilePlan& plan,
                           std::size_t tile_index, const exec::OpContext& ctx = {});

// Scatter + per-tile execution + gather: the full output feature map of ck.
// `stack_input` must match the stack's first-layer input shape. When
// `parallel_for` is non-empty the per-tile stacks run under it (each tile
// writes only its own slot, so any schedule is race-free); the gathered result
// is bitwise-identical either way because assembly is always in tile order.
// `ctx` is passed to every tile's run_single_tile. Both hooks may be the same
// pool: a nested ThreadPool::parallel_for cannot deadlock because its caller
// helps drain the queue.
dnn::Tensor run_fused_tiles(const dnn::Network& net, const exec::WeightStore& weights,
                            const dnn::Tensor& stack_input, const FusedTilePlan& plan,
                            const exec::ParallelFor& parallel_for = {},
                            const exec::OpContext& ctx = {});

// Serial reference: the same stack run on the whole input (no tiling).
dnn::Tensor run_stack_serial(const dnn::Network& net, const exec::WeightStore& weights,
                             const dnn::Tensor& stack_input,
                             std::span<const dnn::LayerId> stack);

}  // namespace d3::core
