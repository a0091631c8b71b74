#include "pnm/core/infer_simd.hpp"

#include <cstdlib>
#include <cstring>

namespace pnm::simd {

// Kernels compiled in their own TUs (infer_simd_avx2.cpp needs -mavx2 and
// must not leak those codegen flags into the portable code).  Each symbol
// exists only on its architecture; the references below are guarded the
// same way, so the link never dangles.
#if defined(__x86_64__)
void layer_block_avx2(const LayerBlockArgs<std::int32_t>& a);
#endif
#if defined(__aarch64__)
void layer_block_neon(const LayerBlockArgs<std::int32_t>& a);
#endif

namespace {

/// Portable reference kernel over W lanes of type Lane.  The j-loop is
/// the single-sample kernel's body repeated per lane: identical term order
/// and truncation semantics, so lane j reproduces sample j bit-for-bit.
/// In 32-bit lanes the model's lane rule keeps every product and partial
/// sum inside int32, so this is plain C++ with no wraparound.  The fixed
/// inner trip count and contiguous lane loads let the compiler
/// auto-vectorize it.
template <class Lane, std::size_t W>
void layer_lanes(const LayerBlockArgs<Lane>& a) {
  const int s = a.acc_shift;
  for (std::size_t r = 0; r < a.out_features; ++r) {
    Lane acc[W];
    const auto b = static_cast<Lane>(a.bias[r] >> s);
    for (std::size_t j = 0; j < W; ++j) acc[j] = b;
    if (s == 0) {
      for (std::size_t k = a.row_offset[r]; k < a.row_offset[r + 1]; ++k) {
        const Lane w = a.w_val[k];
        const Lane* lane = a.x + a.w_col[k] * W;
        for (std::size_t j = 0; j < W; ++j) acc[j] += w * lane[j];
      }
    } else {
      for (std::size_t k = a.row_offset[r]; k < a.row_offset[r + 1]; ++k) {
        const Lane mag = a.w_mag[k];
        const bool neg = a.w_neg[k] != 0;
        const Lane* lane = a.x + a.w_col[k] * W;
        for (std::size_t j = 0; j < W; ++j) {
          const Lane t = (mag * lane[j]) >> s;
          acc[j] += neg ? -t : t;
        }
      }
    }
    Lane* out = a.out + r * W;
    for (std::size_t j = 0; j < W; ++j) out[j] = (a.relu && acc[j] < 0) ? 0 : acc[j];
  }
}

template <class Lane>
void layer_block_scalar(const LayerBlockArgs<Lane>& a) {
  if (a.blocks == kPassBlocks) {
    layer_lanes<Lane, kPassBlocks * kSampleBlock>(a);
  } else {
    layer_lanes<Lane, kSampleBlock>(a);
  }
}

bool force_scalar_env() {
  const char* v = std::getenv("PNM_FORCE_SCALAR");
  return v != nullptr && std::strcmp(v, "0") != 0 && std::strcmp(v, "") != 0;
}

}  // namespace

const char* isa_name(Isa isa) {
  switch (isa) {
    case Isa::kAvx2:
      return "avx2";
    case Isa::kNeon:
      return "neon";
    case Isa::kScalar:
      break;
  }
  return "scalar";
}

bool isa_available(Isa isa) {
  switch (isa) {
    case Isa::kScalar:
      return true;
    case Isa::kAvx2:
#if defined(__x86_64__)
      return __builtin_cpu_supports("avx2") != 0;
#else
      return false;
#endif
    case Isa::kNeon:
#if defined(__aarch64__)
      return true;  // Advanced SIMD is baseline on AArch64
#else
      return false;
#endif
  }
  return false;
}

Isa best_isa() {
  if (isa_available(Isa::kAvx2)) return Isa::kAvx2;
  if (isa_available(Isa::kNeon)) return Isa::kNeon;
  return Isa::kScalar;
}

Isa active_isa() {
  static const Isa isa = force_scalar_env() ? Isa::kScalar : best_isa();
  return isa;
}

LayerBlockFn layer_block_kernel(Isa isa) {
  if (!isa_available(isa)) return nullptr;
  switch (isa) {
    case Isa::kAvx2:
#if defined(__x86_64__)
      return &layer_block_avx2;
#else
      return nullptr;
#endif
    case Isa::kNeon:
#if defined(__aarch64__)
      return &layer_block_neon;
#else
      return nullptr;
#endif
    case Isa::kScalar:
      break;
  }
  return &layer_block_scalar<std::int32_t>;
}

void layer_block_int64(const LayerBlockArgs<std::int64_t>& a) { layer_block_scalar(a); }

}  // namespace pnm::simd
