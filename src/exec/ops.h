// Optimised implementations of the DNN operators, in two forms:
//
//  * whole-tensor ops used by the reference executor, and
//  * region-aware window ops (conv/pool) that compute an arbitrary rectangle of
//    the output from an input *tile* positioned anywhere in the full feature map.
//
// The region form is the primitive the vertical separation module executes on
// each edge node: the tile carries its global origin, out-of-image coordinates
// are zero padding (max-pool: -inf), and touching an in-image coordinate that the
// tile does not cover throws — i.e. an incorrect tile plan fails loudly instead
// of silently corrupting the output. Whole-tensor ops are the region ops applied
// to the full extent, so "tiled == full" is exact float equality, not tolerance.
//
// Performance architecture (PR 2). Convolution is lowered to an interior/halo
// decomposition — all padding and tile-boundary handling is hoisted into the
// im2col packing stage as row-segment memset/memcpy — followed by a
// register-tiled, cache-blocked GEMM over the packed patches. Pooling splits
// each output row into border segments (reference-order scalar loop) and an
// interior fast path (branch-free, vectorised across output pixels).
// Fully-connected is a blocked GEMV whose 4-row blocks split across the
// intra-op hook like conv's GEMM tasks; concat is a straight memcpy; the
// elementwise ops are flat vectorisable loops. Scratch comes from an
// exec::Arena (see arena.h) so the steady-state compute path never mallocs.
//
// Lossless invariant: every kernel accumulates each output element in the EXACT
// tap order of the reference kernels (ops_reference.h) — blocking only adds
// independent accumulators, never reassociates one — so outputs are
// bitwise-identical to the original scalar loops, which the test suite pins.
#pragma once

#include <functional>

#include "dnn/layer.h"
#include "dnn/tensor.h"
#include "exec/weights.h"

namespace d3::exec {

class Arena;

// Intra-op parallelism hook: invoked as parallel_for(n, body), expected to run
// body(0..n-1) (in any order, possibly concurrently) and return only when all
// calls finished — satisfied by runtime::ThreadPool::parallel_for, and also
// how core::run_fused_tiles spreads VSM tiles. Kernels split work into blocks of
// *disjoint* output elements, each accumulated in reference order, so results
// are bitwise-identical for any schedule (and for serial execution).
using ParallelFor = std::function<void(std::size_t, const std::function<void(std::size_t)>&)>;

// Optional execution context threaded through the kernels.
struct OpContext {
  // Scratch arena for packed patches and staging buffers. nullptr: the
  // kernels use Arena::thread_local_arena(), which already gives each
  // executor/VSM-worker thread allocation-free steady state.
  Arena* arena = nullptr;
  // Intra-op work splitting. nullptr or empty function: serial.
  const ParallelFor* parallel_for = nullptr;
};

// Half-open rectangle in global feature-map coordinates.
struct Region {
  int x0 = 0;
  int y0 = 0;
  int x1 = 0;  // exclusive
  int y1 = 0;  // exclusive

  int width() const { return x1 - x0; }
  int height() const { return y1 - y0; }
  bool operator==(const Region&) const = default;
};

// A tile: tensor data plus where it sits in the full feature map.
struct Tile {
  dnn::Tensor data;
  int origin_x = 0;
  int origin_y = 0;
  // Spatial extent of the *full* feature map this tile was cut from.
  int full_w = 0;
  int full_h = 0;

  static Tile whole(dnn::Tensor t) {
    const int h = t.shape().h;
    const int w = t.shape().w;
    return Tile{std::move(t), 0, 0, w, h};
  }
};

// Row-wise memcpy between a full CHW feature map and a region-sized CHW buffer
// (each (channel, row) of a region is contiguous on both sides). `buf` holds
// map.shape().c * region.height() * region.width() floats. The caller
// guarantees the region lies inside the map. Shared by tile crop (map -> buf)
// and tile gather/assembly (buf -> map).
void copy_region_from_map(const dnn::Tensor& map, const Region& region, float* buf);
void copy_region_to_map(const float* buf, const Region& region, dnn::Tensor& map);

// --- Region-aware window ops -------------------------------------------------

// Convolution: computes output rows/cols `out` (global output coordinates) of a
// conv layer whose full output spatial size is out_full_w x out_full_h. Reads the
// input tile; padding per spec.window. Result tile origin = (out.x0, out.y0).
Tile conv2d_region(const Tile& input, const dnn::LayerSpec& spec, const LayerWeights& w,
                   Region out, int out_full_w, int out_full_h, const OpContext& ctx = {});

// Max/avg pooling over a region (avg divides by the full window area including
// padding, position-independently).
Tile pool_region(const Tile& input, const dnn::LayerSpec& spec, Region out, int out_full_w,
                 int out_full_h);

// Elementwise ops keep the tile geometry.
Tile relu_region(Tile input);
Tile batch_norm_region(Tile input, const LayerWeights& w);

// --- Whole-tensor ops (reference executor) -----------------------------------

dnn::Tensor conv2d(const dnn::Tensor& input, const dnn::LayerSpec& spec,
                   const LayerWeights& w, const OpContext& ctx = {});
dnn::Tensor pool2d(const dnn::Tensor& input, const dnn::LayerSpec& spec);
dnn::Tensor global_avg_pool(const dnn::Tensor& input);
dnn::Tensor fully_connected(const dnn::Tensor& input, const dnn::LayerSpec& spec,
                            const LayerWeights& w, const OpContext& ctx = {});
dnn::Tensor relu(const dnn::Tensor& input);
dnn::Tensor batch_norm(const dnn::Tensor& input, const LayerWeights& w);
// Move-aware overloads: operate in place on the argument's storage instead of
// deep-copying. Callers that discard the input (layer chains) pass an rvalue.
dnn::Tensor relu(dnn::Tensor&& input);
dnn::Tensor batch_norm(dnn::Tensor&& input, const LayerWeights& w);
dnn::Tensor concat(const std::vector<const dnn::Tensor*>& inputs);
dnn::Tensor add(const std::vector<const dnn::Tensor*>& inputs);
dnn::Tensor softmax(const dnn::Tensor& input);

}  // namespace d3::exec
