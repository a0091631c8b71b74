#ifndef PNM_CORE_INFER_SIMD_HPP
#define PNM_CORE_INFER_SIMD_HPP

/// \file infer_simd.hpp
/// \brief Multi-sample (sample-blocked) CSR layer kernels with runtime ISA
///        dispatch — the data-parallel engine under batched inference.
///
/// The single-sample engine (qmlp.cpp) walks each CSR row once per sample:
/// every nonzero weight is re-loaded `n_samples` times per accuracy pass.
/// Blocking kSampleBlock samples together inverts that: one walk over the
/// row visits each weight once and accumulates kSampleBlock samples, so the
/// weight streams through the cache exactly once per block and the per-lane
/// arithmetic becomes straight-line data parallelism an ISA can vectorize.
///
/// Layout (SoA across the block): activations of a block are stored
/// feature-major, lane-minor — feature f of lane j lives at
/// `x[f * kSampleBlock + j]`.  Loading the kSampleBlock activations of one
/// input column is therefore a contiguous load (no gather), which is what
/// makes the AVX2/NEON kernels profitable.
///
/// Lane width: each QuantizedMlp picks 32- or 64-bit lanes once, when it
/// is built, from its exact, overflow-checked accumulator ranges (see
/// QuantizedMlp::lane_bits).  A model whose every bias, running
/// partial-sum bound and product |w| * x_max fits int32 runs the 32-bit
/// kernels: the scalar one and the AVX2/NEON ones (one 32-bit multiply and
/// add per weight and lane).  Any other model runs the portable int64
/// kernel on every ISA.
///
/// Bit-exactness *by construction*: every lane executes exactly the
/// operation sequence of the single-sample int64 kernel — same term order
/// (CSR order), same magnitude-truncate-then-sign semantics for
/// acc_shift > 0, same arithmetic bias shift, same ReLU clamp.  In 32-bit
/// lanes no intermediate value leaves int32, so each operation yields the
/// int64 kernel's value.  No reassociation; the cross-engine tests assert
/// equality, they do not tolerate it.
///
/// Dispatch: `active_isa()` picks the best kernel compiled in *and*
/// supported by the running CPU (AVX2 on x86-64, NEON on aarch64), with an
/// always-compiled scalar fallback.  Setting `PNM_FORCE_SCALAR=1` in the
/// environment pins the scalar kernel (read once, cached) — CI runs the
/// whole suite both ways so both dispatch paths stay green.

#include <cstddef>
#include <cstdint>

namespace pnm::simd {

/// Samples per block.  Fixed and ISA-independent so the blocked dataset
/// layout, every kernel, and every stored golden value agree; 8 int32
/// lanes fill one 256-bit AVX2 register and two 128-bit NEON registers.
inline constexpr std::size_t kSampleBlock = 8;

/// Blocks that share each weight visit in a whole-dataset pass
/// (QuantizedMlp::accuracy) in 32-bit lanes.  A kernel call costs a fixed
/// amount per CSR row on top of its per-weight work, so feeding 32 samples
/// per visit instead of 8 spreads that cost; 4 blocks keep the
/// accumulators in 4 AVX2 or 8 NEON registers.
inline constexpr std::size_t kPassBlocks = 4;

/// Instruction sets a layer-block kernel exists for.
enum class Isa {
  kScalar,  ///< portable C++ (always available; also the PNM_FORCE_SCALAR pin)
  kAvx2,    ///< x86-64 AVX2 (256-bit, runtime-detected)
  kNeon,    ///< aarch64 Advanced SIMD (baseline on AArch64)
};

/// Stable lowercase name for bench/report JSON ("scalar", "avx2", "neon").
const char* isa_name(Isa isa);

/// True when a kernel for `isa` is compiled in and the running CPU can
/// execute it.  kScalar is always true.
bool isa_available(Isa isa);

/// Best available ISA on this machine, ignoring the environment override.
Isa best_isa();

/// The ISA the engine dispatches to: best_isa(), unless PNM_FORCE_SCALAR=1
/// pins kScalar.  Read once and cached for the process lifetime.
Isa active_isa();

/// One quantized layer applied to `blocks` sample blocks at once, over
/// lanes of type `Lane` (std::int32_t or std::int64_t), flattened to raw
/// pointers so the kernel translation units need no qmlp.hpp dependency.
/// `x` and `out` use the blocked layout described in the file comment with
/// blocks * kSampleBlock lanes per feature; `out` must hold out_features *
/// blocks * kSampleBlock values and not alias `x`.
template <class Lane>
struct LayerBlockArgs {
  const Lane* x;                  ///< blocked input activations
  Lane* out;                      ///< blocked output activations
  const std::int64_t* bias;       ///< per-row bias codes (un-shifted)
  const std::int32_t* w_val;      ///< signed codes (s == 0 fast path)
  const std::int32_t* w_mag;      ///< magnitudes (s > 0 truncating path)
  const std::uint8_t* w_neg;      ///< 1 where the code is negative
  const std::uint32_t* w_col;     ///< input column per nonzero
  const std::size_t* row_offset;  ///< CSR offsets, out_features + 1 entries
  std::size_t out_features = 0;
  std::size_t blocks = 1;         ///< 1 or kPassBlocks blocks per weight visit
  int acc_shift = 0;              ///< product/bias truncation (0 = exact MAC)
  bool relu = false;              ///< clamp negative accumulators to zero
};

/// A 32-bit layer kernel: applies one layer to 1 or kPassBlocks blocks of
/// a model whose QuantizedMlp::lane_bits() is 32.
using LayerBlockFn = void (*)(const LayerBlockArgs<std::int32_t>&);

/// The 32-bit kernel for `isa`, or nullptr when isa_available(isa) is
/// false.  layer_block_kernel(active_isa()) never returns nullptr.
LayerBlockFn layer_block_kernel(Isa isa);

/// The portable int64 kernel, which every ISA runs for a model whose
/// ranges need 64-bit lanes.
void layer_block_int64(const LayerBlockArgs<std::int64_t>& a);

}  // namespace pnm::simd

#endif  // PNM_CORE_INFER_SIMD_HPP
