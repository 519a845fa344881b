#include "exec/ops.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <stdexcept>
#include <string>

#include "exec/arena.h"

namespace d3::exec {

namespace {

void require(bool ok, const std::string& what) {
  if (!ok) throw std::invalid_argument(what);
}

// Floor/ceil division for possibly-negative numerators (d > 0).
int div_floor(int a, int d) { return a >= 0 ? a / d : -((-a + d - 1) / d); }
int div_ceil(int a, int d) { return a >= 0 ? (a + d - 1) / d : -(-a / d); }

void validate_out_region(const Region& out, int out_full_w, int out_full_h) {
  require(out.x0 >= 0 && out.y0 >= 0 && out.x1 <= out_full_w && out.y1 <= out_full_h &&
              out.width() > 0 && out.height() > 0,
          "region op: bad output region");
}

// Non-owning view of an input positioned in its full feature map: lets the
// whole-tensor wrappers run the region kernels directly on the caller's
// storage (Tile holds its Tensor by value, so going through Tile::whole would
// deep-copy the input first).
struct InView {
  const dnn::Tensor& data;
  int origin_x = 0;
  int origin_y = 0;
  int full_w = 0;
  int full_h = 0;

  static InView of(const Tile& t) {
    return {t.data, t.origin_x, t.origin_y, t.full_w, t.full_h};
  }
  static InView whole(const dnn::Tensor& t) {
    return {t, 0, 0, t.shape().w, t.shape().h};
  }
};

// 1-D extent of the in-image input coordinates a window op touches: the
// smallest and largest g = o*stride - pad + k (o in [o0, o1), k in [0, kernel))
// with 0 <= g < full. Returns false when no in-image coordinate is touched on
// this axis.
bool touched_extent(int o0, int o1, int kernel, int stride, int pad, int full, int* lo,
                    int* hi) {
  int mn = std::numeric_limits<int>::max();
  int mx = std::numeric_limits<int>::min();
  for (int k = 0; k < kernel; ++k) {
    const int off = k - pad;
    const int o_lo = std::max(o0, div_ceil(-off, stride));
    if (o_lo < o1) mn = std::min(mn, o_lo * stride + off);
    const int o_hi = std::min(o1 - 1, div_floor(full - 1 - off, stride));
    if (o_hi >= o0) mx = std::max(mx, o_hi * stride + off);
  }
  if (mn > mx) return false;
  *lo = mn;
  *hi = mx;
  return true;
}

// Hoisted form of the per-tap tile-coverage test the reference kernels perform
// inside read_global: the reference touches exactly the product of the touched
// x and y coordinate sets, and a tile is a contiguous rectangle, so covering
// the touched extents is equivalent to covering every touched coordinate.
// Throws the same std::logic_error an incorrect tile plan produced before,
// just before any packing instead of mid-loop.
void check_receptive_field(const InView& in, const dnn::Window& win, const Region& out) {
  int lo_x = 0, hi_x = -1, lo_y = 0, hi_y = -1;
  if (!touched_extent(out.x0, out.x1, win.kernel_w, win.stride_w, win.pad_w, in.full_w, &lo_x,
                      &hi_x))
    return;
  if (!touched_extent(out.y0, out.y1, win.kernel_h, win.stride_h, win.pad_h, in.full_h, &lo_y,
                      &hi_y))
    return;
  const int tile_h = in.data.shape().h;
  const int tile_w = in.data.shape().w;
  if (lo_x < in.origin_x || hi_x >= in.origin_x + tile_w || lo_y < in.origin_y ||
      hi_y >= in.origin_y + tile_h) {
    const int gx = lo_x < in.origin_x ? lo_x : hi_x;
    const int gy = lo_y < in.origin_y ? lo_y : hi_y;
    throw std::logic_error("region op: tile does not cover required receptive field at (" +
                           std::to_string(gx) + "," + std::to_string(gy) + ")");
  }
}

// --- Convolution: im2col packing + cache-blocked GEMM ------------------------
//
// The packed patch matrix P is taps x npix row-major: row t = (ic, ky, kx) in
// the reference tap order, column = output pixel (row-major over the region).
// All padding and tile-boundary handling lives here as row-segment
// memset/memcpy — the interior is branch-free bulk copies — so the GEMM below
// sees a dense problem. Out-of-image coordinates become 0.0f, which is exactly
// the `filter * 0.0f` contribution the reference kernel adds for pad taps.
void pack_patches(const InView& in, const dnn::Window& win, const Region& out, float* pack) {
  const dnn::Shape& ts = in.data.shape();
  const int ow = out.width();
  const std::size_t npix = static_cast<std::size_t>(ow) * out.height();
  const float* src = in.data.data();
  std::size_t t = 0;
  for (int ic = 0; ic < ts.c; ++ic) {
    const float* plane = src + static_cast<std::size_t>(ic) * ts.h * ts.w;
    for (int ky = 0; ky < win.kernel_h; ++ky) {
      for (int kx = 0; kx < win.kernel_w; ++kx, ++t) {
        float* row = pack + t * npix;
        const int off = kx - win.pad_w;
        for (int oy = out.y0; oy < out.y1; ++oy) {
          float* dst = row + static_cast<std::size_t>(oy - out.y0) * ow;
          const int gy = oy * win.stride_h - win.pad_h + ky;
          if (gy < 0 || gy >= in.full_h) {
            std::memset(dst, 0, static_cast<std::size_t>(ow) * sizeof(float));
            continue;
          }
          // In-image ox range for this kx (clamped to the region).
          const int ox_lo = std::clamp(div_ceil(-off, win.stride_w), out.x0, out.x1);
          const int ox_hi =
              std::clamp(div_floor(in.full_w - 1 - off, win.stride_w) + 1, out.x0, out.x1);
          if (ox_lo > out.x0)
            std::memset(dst, 0, static_cast<std::size_t>(ox_lo - out.x0) * sizeof(float));
          if (ox_hi < out.x1)
            std::memset(dst + (std::max(ox_hi, out.x0) - out.x0), 0,
                        static_cast<std::size_t>(out.x1 - std::max(ox_hi, out.x0)) *
                            sizeof(float));
          if (ox_lo < ox_hi) {
            const float* s = plane +
                             static_cast<std::size_t>(gy - in.origin_y) * ts.w +
                             (ox_lo * win.stride_w + off - in.origin_x);
            float* d = dst + (ox_lo - out.x0);
            const int n = ox_hi - ox_lo;
            if (win.stride_w == 1) {
              std::memcpy(d, s, static_cast<std::size_t>(n) * sizeof(float));
            } else {
              for (int i = 0; i < n; ++i) d[i] = s[static_cast<std::size_t>(i) * win.stride_w];
            }
          }
        }
      }
    }
  }
}

// Register-tile shape: kMr output channels x kNr output pixels of independent
// accumulators. kKc taps per k-block keeps the packed slab (kKc * kNr floats =
// 16 KiB) L1-resident while a whole channel block streams over it; kMc output
// channels per task bounds the weight working set (kMc * kKc floats = 64 KiB)
// to L2 and doubles as the intra-op parallel grain.
constexpr int kMr = 4;
constexpr int kNr = 16;
constexpr std::size_t kKc = 256;
constexpr int kMc = 64;
// Below this many MACs, intra-op parallelism costs more than it saves.
constexpr std::int64_t kParallelMacThreshold = 1 << 20;

// Continues the accumulation of a full kMr x kNr output block over taps
// [t0, t1). Every output element owns one accumulator whose additions run in
// ascending tap order — k-blocking resumes the same chain (first block starts
// from the bias, exactly like the reference) — so the result is
// bitwise-identical to the scalar loops while the kNr-wide inner loop
// vectorises (independent chains, no reassociation).
template <int Mn, int Nn>
void micro_full(const float* a, std::size_t taps, const float* p, std::size_t npix,
                std::size_t t0, std::size_t t1, bool first, const float* bias, float* c) {
  float acc[Mn][Nn];
  for (int m = 0; m < Mn; ++m)
    for (int j = 0; j < Nn; ++j) acc[m][j] = first ? bias[m] : c[m * npix + j];
  for (std::size_t t = t0; t < t1; ++t) {
    const float* prow = p + t * npix;
    for (int m = 0; m < Mn; ++m) {
      const float am = a[m * taps + t];
      for (int j = 0; j < Nn; ++j) acc[m][j] += am * prow[j];
    }
  }
  for (int m = 0; m < Mn; ++m)
    for (int j = 0; j < Nn; ++j) c[m * npix + j] = acc[m][j];
}

// Same contract for the ragged edges of the output (runtime mn x nn).
void micro_edge(const float* a, std::size_t taps, const float* p, std::size_t npix,
                std::size_t t0, std::size_t t1, bool first, const float* bias, float* c, int mn,
                int nn) {
  float acc[kMr][kNr];
  for (int m = 0; m < mn; ++m)
    for (int j = 0; j < nn; ++j) acc[m][j] = first ? bias[m] : c[m * npix + j];
  for (std::size_t t = t0; t < t1; ++t) {
    const float* prow = p + t * npix;
    for (int m = 0; m < mn; ++m) {
      const float am = a[m * taps + t];
      for (int j = 0; j < nn; ++j) acc[m][j] += am * prow[j];
    }
  }
  for (int m = 0; m < mn; ++m)
    for (int j = 0; j < nn; ++j) c[m * npix + j] = acc[m][j];
}

// One task's rectangle of the output: channels [m0, m1), pixels [j0, j1).
void gemm_rect(const float* a, const float* bias, const float* p, std::size_t taps,
               std::size_t npix, int m0, int m1, std::size_t j0, std::size_t j1, float* c) {
  for (std::size_t jb = j0; jb < j1; jb += kNr) {
    const int nn = static_cast<int>(std::min<std::size_t>(kNr, j1 - jb));
    for (std::size_t t0 = 0; t0 < taps; t0 += kKc) {
      const std::size_t t1 = std::min(taps, t0 + kKc);
      const bool first = t0 == 0;
      for (int m = m0; m < m1; m += kMr) {
        const int mn = std::min(kMr, m1 - m);
        const float* am = a + static_cast<std::size_t>(m) * taps;
        float* cm = c + static_cast<std::size_t>(m) * npix + jb;
        if (mn == kMr && nn == kNr)
          micro_full<kMr, kNr>(am, taps, p + jb, npix, t0, t1, first, bias + m, cm);
        else
          micro_edge(am, taps, p + jb, npix, t0, t1, first, bias + m, cm, mn, nn);
      }
    }
  }
}

// C[oc][pix] = bias[oc] + sum_t A[oc][t] * P[t][pix]. Tasks are disjoint
// output rectangles (channel blocks x pixel chunks), so any parallel schedule
// produces the same bits as the serial loop.
void gemm(const float* a, const float* bias, const float* p, std::size_t taps,
          std::size_t npix, int out_c, float* c, const ParallelFor* parallel) {
  const std::int64_t macs = static_cast<std::int64_t>(taps) * npix * out_c;
  const bool par = parallel && *parallel && macs >= kParallelMacThreshold;
  const std::size_t n_m = static_cast<std::size_t>((out_c + kMc - 1) / kMc);
  std::size_t j_chunk = npix;
  std::size_t n_j = 1;
  if (par && n_m < 8) {
    // Few channel blocks: split pixels (kNr-aligned) until there is enough
    // parallel grain. Serial execution keeps one chunk for maximal locality.
    const std::size_t want = (8 + n_m - 1) / n_m;
    n_j = std::clamp<std::size_t>(npix / (4 * kNr), 1, want);
    j_chunk = (npix / n_j + kNr - 1) / kNr * kNr;
    n_j = (npix + j_chunk - 1) / j_chunk;
  }
  const std::size_t n_tasks = n_m * n_j;
  const auto run_rect = [&](std::size_t idx) {
    const int m0 = static_cast<int>(idx / n_j) * kMc;
    const int m1 = std::min(out_c, m0 + kMc);
    const std::size_t j0 = (idx % n_j) * j_chunk;
    const std::size_t j1 = std::min(npix, j0 + j_chunk);
    gemm_rect(a, bias, p, taps, npix, m0, m1, j0, j1, c);
  };
  if (par && n_tasks > 1) {
    (*parallel)(n_tasks, run_rect);
  } else {
    for (std::size_t i = 0; i < n_tasks; ++i) run_rect(i);
  }
}

// Shared by the region op and the whole-tensor wrapper (which passes a
// non-owning whole-image view instead of copying the input into a Tile).
dnn::Tensor conv2d_impl(const InView& input, const dnn::LayerSpec& spec, const LayerWeights& w,
                        Region out, int out_full_w, int out_full_h, const OpContext& ctx) {
  require(spec.kind == dnn::LayerKind::kConv, "conv2d_region: not a conv spec");
  validate_out_region(out, out_full_w, out_full_h);
  const dnn::Window& win = spec.window;
  const int in_c = input.data.shape().c;
  const int out_c = spec.out_channels;
  const std::size_t taps =
      static_cast<std::size_t>(win.kernel_w) * win.kernel_h * static_cast<std::size_t>(in_c);
  require(w.weights.size() == taps * static_cast<std::size_t>(out_c),
          "conv2d_region: weight size mismatch for '" + spec.name + "'");
  require(w.bias.size() == static_cast<std::size_t>(out_c),
          "conv2d_region: bias size mismatch for '" + spec.name + "'");
  check_receptive_field(input, win, out);

  dnn::Tensor result(dnn::Shape{out_c, out.height(), out.width()});
  const std::size_t npix = static_cast<std::size_t>(out.width()) * out.height();
  Arena& arena = ctx.arena ? *ctx.arena : Arena::thread_local_arena();
  ArenaScope scope(arena);
  float* pack = arena.floats(taps * npix);
  pack_patches(input, win, out, pack);
  gemm(w.weights.data(), w.bias.data(), pack, taps, npix, out_c, result.data(),
       ctx.parallel_for);
  return result;
}

dnn::Tensor pool_impl(const InView& input, const dnn::LayerSpec& spec, Region out,
                      int out_full_w, int out_full_h) {
  const bool is_max = spec.kind == dnn::LayerKind::kMaxPool;
  require(is_max || spec.kind == dnn::LayerKind::kAvgPool, "pool_region: not a pool spec");
  validate_out_region(out, out_full_w, out_full_h);
  const dnn::Window& win = spec.window;
  const int channels = input.data.shape().c;
  const float pad_value = is_max ? -std::numeric_limits<float>::infinity() : 0.0f;
  const float window_area = static_cast<float>(win.kernel_w) * win.kernel_h;
  check_receptive_field(input, win, out);

  dnn::Tensor result(dnn::Shape{channels, out.height(), out.width()});

  const dnn::Shape& ts = input.data.shape();
  const int tw = ts.w;
  const int th = ts.h;
  const int ow = out.width();
  const int oh = out.height();
  const float* src = input.data.data();
  float* dst = result.data();

  // Interior outputs: window fully in-image, so no pad taps exist and the fast
  // path below needs no per-tap coordinate tests. Border outputs run the
  // reference-order scalar loop (pads included in the exact tap positions).
  const int ix0 = std::max(out.x0, div_ceil(win.pad_w, win.stride_w));
  const int ix1 =
      std::min(out.x1, div_floor(input.full_w - win.kernel_w + win.pad_w, win.stride_w) + 1);
  const int iy0 = std::max(out.y0, div_ceil(win.pad_h, win.stride_h));
  const int iy1 =
      std::min(out.y1, div_floor(input.full_h - win.kernel_h + win.pad_h, win.stride_h) + 1);

  const auto border_output = [&](int c, int oy, int ox) {
    float acc = is_max ? -std::numeric_limits<float>::infinity() : 0.0f;
    for (int ky = 0; ky < win.kernel_h; ++ky) {
      const int gy = oy * win.stride_h - win.pad_h + ky;
      for (int kx = 0; kx < win.kernel_w; ++kx) {
        const int gx = ox * win.stride_w - win.pad_w + kx;
        float v;
        if (gy < 0 || gy >= input.full_h || gx < 0 || gx >= input.full_w)
          v = pad_value;
        else
          v = src[(static_cast<std::size_t>(c) * th + (gy - input.origin_y)) * tw +
                  (gx - input.origin_x)];
        acc = is_max ? std::max(acc, v) : acc + v;
      }
    }
    dst[(static_cast<std::size_t>(c) * oh + (oy - out.y0)) * ow + (ox - out.x0)] =
        is_max ? acc : acc / window_area;
  };

  const auto interior_row = [&](int c, int oy, int lo, int hi) {
    float* d = dst + (static_cast<std::size_t>(c) * oh + (oy - out.y0)) * ow + (lo - out.x0);
    const int n = hi - lo;
    for (int j = 0; j < n; ++j) d[j] = is_max ? -std::numeric_limits<float>::infinity() : 0.0f;
    for (int ky = 0; ky < win.kernel_h; ++ky) {
      const int gy = oy * win.stride_h - win.pad_h + ky;
      const float* srow =
          src + (static_cast<std::size_t>(c) * th + (gy - input.origin_y)) * tw;
      for (int kx = 0; kx < win.kernel_w; ++kx) {
        const float* s = srow + (lo * win.stride_w - win.pad_w + kx - input.origin_x);
        if (win.stride_w == 1) {
          if (is_max)
            for (int j = 0; j < n; ++j) d[j] = std::max(d[j], s[j]);
          else
            for (int j = 0; j < n; ++j) d[j] += s[j];
        } else {
          if (is_max)
            for (int j = 0; j < n; ++j)
              d[j] = std::max(d[j], s[static_cast<std::size_t>(j) * win.stride_w]);
          else
            for (int j = 0; j < n; ++j) d[j] += s[static_cast<std::size_t>(j) * win.stride_w];
        }
      }
    }
    if (!is_max)
      for (int j = 0; j < n; ++j) d[j] = d[j] / window_area;
  };

  for (int c = 0; c < channels; ++c) {
    for (int oy = out.y0; oy < out.y1; ++oy) {
      int lo = out.x1, hi = out.x1;
      if (oy >= iy0 && oy < iy1) {
        lo = std::clamp(ix0, out.x0, out.x1);
        hi = std::clamp(ix1, lo, out.x1);
      }
      for (int ox = out.x0; ox < lo; ++ox) border_output(c, oy, ox);
      if (hi > lo) interior_row(c, oy, lo, hi);
      for (int ox = hi; ox < out.x1; ++ox) border_output(c, oy, ox);
    }
  }
  return result;
}

}  // namespace

void copy_region_from_map(const dnn::Tensor& map, const Region& region, float* buf) {
  const dnn::Shape& s = map.shape();
  const std::size_t rw = static_cast<std::size_t>(region.width());
  const float* src = map.data();
  for (int c = 0; c < s.c; ++c)
    for (int y = region.y0; y < region.y1; ++y)
      std::memcpy(buf + (static_cast<std::size_t>(c) * region.height() + (y - region.y0)) * rw,
                  src + (static_cast<std::size_t>(c) * s.h + y) * s.w + region.x0,
                  rw * sizeof(float));
}

void copy_region_to_map(const float* buf, const Region& region, dnn::Tensor& map) {
  const dnn::Shape& s = map.shape();
  const std::size_t rw = static_cast<std::size_t>(region.width());
  float* dst = map.data();
  for (int c = 0; c < s.c; ++c)
    for (int y = region.y0; y < region.y1; ++y)
      std::memcpy(dst + (static_cast<std::size_t>(c) * s.h + y) * s.w + region.x0,
                  buf + (static_cast<std::size_t>(c) * region.height() + (y - region.y0)) * rw,
                  rw * sizeof(float));
}

Tile conv2d_region(const Tile& input, const dnn::LayerSpec& spec, const LayerWeights& w,
                   Region out, int out_full_w, int out_full_h, const OpContext& ctx) {
  Tile result;
  result.data = conv2d_impl(InView::of(input), spec, w, out, out_full_w, out_full_h, ctx);
  result.origin_x = out.x0;
  result.origin_y = out.y0;
  result.full_w = out_full_w;
  result.full_h = out_full_h;
  return result;
}

Tile pool_region(const Tile& input, const dnn::LayerSpec& spec, Region out, int out_full_w,
                 int out_full_h) {
  Tile result;
  result.data = pool_impl(InView::of(input), spec, out, out_full_w, out_full_h);
  result.origin_x = out.x0;
  result.origin_y = out.y0;
  result.full_w = out_full_w;
  result.full_h = out_full_h;
  return result;
}

Tile relu_region(Tile input) {
  float* p = input.data.data();
  const std::size_t n = input.data.size();
  for (std::size_t i = 0; i < n; ++i) p[i] = std::max(0.0f, p[i]);
  return input;
}

Tile batch_norm_region(Tile input, const LayerWeights& w) {
  const dnn::Shape& s = input.data.shape();
  require(w.bn_scale.size() == static_cast<std::size_t>(s.c) &&
              w.bn_shift.size() == static_cast<std::size_t>(s.c),
          "batch_norm_region: parameter size mismatch");
  const std::size_t hw = static_cast<std::size_t>(s.h) * s.w;
  float* p = input.data.data();
  for (int c = 0; c < s.c; ++c) {
    const float scale = w.bn_scale[static_cast<std::size_t>(c)];
    const float shift = w.bn_shift[static_cast<std::size_t>(c)];
    float* q = p + static_cast<std::size_t>(c) * hw;
    for (std::size_t i = 0; i < hw; ++i) q[i] = q[i] * scale + shift;
  }
  return input;
}

namespace {

dnn::Shape window_output_shape(const dnn::Tensor& input, const dnn::LayerSpec& spec) {
  return infer_output_shape(spec, {input.shape()});
}

}  // namespace

dnn::Tensor conv2d(const dnn::Tensor& input, const dnn::LayerSpec& spec, const LayerWeights& w,
                   const OpContext& ctx) {
  const dnn::Shape out = window_output_shape(input, spec);
  return conv2d_impl(InView::whole(input), spec, w, Region{0, 0, out.w, out.h}, out.w, out.h,
                     ctx);
}

dnn::Tensor pool2d(const dnn::Tensor& input, const dnn::LayerSpec& spec) {
  const dnn::Shape out = window_output_shape(input, spec);
  return pool_impl(InView::whole(input), spec, Region{0, 0, out.w, out.h}, out.w, out.h);
}

dnn::Tensor global_avg_pool(const dnn::Tensor& input) {
  const dnn::Shape& s = input.shape();
  dnn::Tensor out(dnn::Shape{s.c, 1, 1});
  const float area = static_cast<float>(s.h) * static_cast<float>(s.w);
  const std::size_t hw = static_cast<std::size_t>(s.h) * s.w;
  const float* p = input.data();
  for (int c = 0; c < s.c; ++c) {
    const float* q = p + static_cast<std::size_t>(c) * hw;
    float acc = 0.0f;
    for (std::size_t i = 0; i < hw; ++i) acc += q[i];
    out.at(c, 0, 0) = acc / area;
  }
  return out;
}

namespace {

// Output rows [o0, o1) of the blocked GEMV: four rows share each streamed pass
// over the input, so the input vector is loaded once per block instead of once
// per output. Each output keeps its own ascending-index accumulation chain
// (bitwise-identical to the reference row loop), so rows may be split across
// threads in any way that keeps o0 a multiple of 4.
void gemv_rows(const float* weights, const float* bias, const float* x, std::size_t in_n,
               std::size_t o0, std::size_t o1, float* out) {
  std::size_t o = o0;
  for (; o + 4 <= o1; o += 4) {
    const float* r0 = weights + o * in_n;
    const float* r1 = r0 + in_n;
    const float* r2 = r1 + in_n;
    const float* r3 = r2 + in_n;
    float a0 = bias[o];
    float a1 = bias[o + 1];
    float a2 = bias[o + 2];
    float a3 = bias[o + 3];
    for (std::size_t i = 0; i < in_n; ++i) {
      const float v = x[i];
      a0 += r0[i] * v;
      a1 += r1[i] * v;
      a2 += r2[i] * v;
      a3 += r3[i] * v;
    }
    out[o] = a0;
    out[o + 1] = a1;
    out[o + 2] = a2;
    out[o + 3] = a3;
  }
  for (; o < o1; ++o) {
    const float* row = weights + o * in_n;
    float acc = bias[o];
    for (std::size_t i = 0; i < in_n; ++i) acc += row[i] * x[i];
    out[o] = acc;
  }
}

}  // namespace

dnn::Tensor fully_connected(const dnn::Tensor& input, const dnn::LayerSpec& spec,
                            const LayerWeights& w, const OpContext& ctx) {
  require(spec.kind == dnn::LayerKind::kFullyConnected, "fully_connected: bad spec");
  const std::size_t in_n = input.size();
  const std::size_t out_n = static_cast<std::size_t>(spec.out_features);
  require(w.weights.size() == in_n * out_n, "fully_connected: weight size mismatch");
  require(w.bias.size() == out_n, "fully_connected: bias size mismatch");
  dnn::Tensor out(dnn::Shape{spec.out_features, 1, 1});
  const float* weights = w.weights.data();
  const float* x = input.data();
  const std::int64_t macs = static_cast<std::int64_t>(in_n * out_n);
  const ParallelFor* parallel = ctx.parallel_for;
  if (!parallel || !*parallel || macs < kParallelMacThreshold) {
    gemv_rows(weights, w.bias.data(), x, in_n, 0, out_n, out.data());
    return out;
  }
  // Tasks of whole 4-row blocks, each worth at least kParallelMacThreshold
  // MACs; the last task also takes the ragged tail (out_n % 4 rows).
  const std::size_t blocks = out_n / 4;
  const std::size_t want = static_cast<std::size_t>(macs / kParallelMacThreshold);
  const std::size_t rows = std::max<std::size_t>(1, (blocks + want - 1) / want) * 4;
  const std::size_t n_tasks = (out_n + rows - 1) / rows;
  (*parallel)(n_tasks, [&](std::size_t t) {
    gemv_rows(weights, w.bias.data(), x, in_n, t * rows, std::min(out_n, (t + 1) * rows),
              out.data());
  });
  return out;
}

dnn::Tensor relu(dnn::Tensor&& input) {
  float* p = input.data();
  const std::size_t n = input.size();
  for (std::size_t i = 0; i < n; ++i) p[i] = std::max(0.0f, p[i]);
  return std::move(input);
}

dnn::Tensor relu(const dnn::Tensor& input) { return relu(dnn::Tensor(input)); }

dnn::Tensor batch_norm(dnn::Tensor&& input, const LayerWeights& w) {
  Tile t = batch_norm_region(Tile::whole(std::move(input)), w);
  return std::move(t.data);
}

dnn::Tensor batch_norm(const dnn::Tensor& input, const LayerWeights& w) {
  return batch_norm(dnn::Tensor(input), w);
}

dnn::Tensor concat(const std::vector<const dnn::Tensor*>& inputs) {
  require(inputs.size() >= 2, "concat: needs >= 2 inputs");
  const int h = inputs[0]->shape().h;
  const int w = inputs[0]->shape().w;
  int total_c = 0;
  for (const auto* t : inputs) {
    require(t->shape().h == h && t->shape().w == w, "concat: spatial mismatch");
    total_c += t->shape().c;
  }
  dnn::Tensor out(dnn::Shape{total_c, h, w});
  // CHW layout makes each input one contiguous block of the output.
  float* dst = out.data();
  for (const auto* t : inputs) {
    std::memcpy(dst, t->data(), t->size() * sizeof(float));
    dst += t->size();
  }
  return out;
}

dnn::Tensor add(const std::vector<const dnn::Tensor*>& inputs) {
  require(inputs.size() >= 2, "add: needs >= 2 inputs");
  dnn::Tensor out = *inputs[0];
  float* d = out.data();
  const std::size_t n = out.size();
  for (std::size_t i = 1; i < inputs.size(); ++i) {
    require(inputs[i]->shape() == out.shape(), "add: shape mismatch");
    const float* s = inputs[i]->data();
    for (std::size_t j = 0; j < n; ++j) d[j] += s[j];
  }
  return out;
}

dnn::Tensor softmax(const dnn::Tensor& input) {
  dnn::Tensor out = input;
  float max_v = out[0];
  for (std::size_t i = 1; i < out.size(); ++i) max_v = std::max(max_v, out[i]);
  float sum = 0.0f;
  for (std::size_t i = 0; i < out.size(); ++i) {
    out[i] = std::exp(out[i] - max_v);
    sum += out[i];
  }
  for (std::size_t i = 0; i < out.size(); ++i) out[i] /= sum;
  return out;
}

}  // namespace d3::exec
