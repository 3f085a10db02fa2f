#include "core/simd.hpp"

#include <cstdlib>
#include <cstring>

namespace ir::core::simd {

const char* to_string(Mode mode) {
  switch (mode) {
    case Mode::kScalar: return "scalar";
    case Mode::kAvx2: return "avx2";
  }
  return "?";
}

bool compiled_with_avx2() {
#if IR_SIMD_ENABLED
  return true;
#else
  return false;
#endif
}

namespace {

/// Environment mask: IR_SIMD=scalar|off|0 pins the portable path (the
/// dispatch-seam ctest and A/B benchmarking use this); IR_SIMD=avx2 merely
/// *allows* AVX2 — it never overrides a missing CPU capability.
[[maybe_unused]] bool env_masks_simd() {  // unused when IR_SIMD=OFF
  const char* value = std::getenv("IR_SIMD");
  if (value == nullptr) return false;
  return std::strcmp(value, "scalar") == 0 || std::strcmp(value, "off") == 0 ||
         std::strcmp(value, "OFF") == 0 || std::strcmp(value, "0") == 0;
}

Mode resolve_mode() {
#if IR_SIMD_ENABLED
  if (env_masks_simd()) return Mode::kScalar;
#if defined(__GNUC__) || defined(__clang__)
  if (__builtin_cpu_supports("avx2")) return Mode::kAvx2;
#endif
  return Mode::kScalar;
#else
  return Mode::kScalar;
#endif
}

}  // namespace

Mode active_mode() {
  // Magic-static: resolved once, thread-safe, stable for the process.
  static const Mode mode = resolve_mode();
  return mode;
}

namespace detail {

void add_rows_u64_scalar(const std::uint64_t* a, const std::uint64_t* b,
                         std::uint64_t* out, std::size_t count) {
  for (std::size_t i = 0; i < count; ++i) out[i] = a[i] + b[i];
}

void gather_add_u64_scalar(const std::uint64_t* val, const std::uint32_t* dst,
                           const std::uint32_t* src, std::uint64_t* out,
                           std::size_t count) {
  for (std::size_t k = 0; k < count; ++k) out[k] = val[src[k]] + val[dst[k]];
}

void jump_round_u64_scalar(std::uint64_t* val, std::size_t stride,
                           const std::uint32_t* dst, const std::uint32_t* src,
                           std::uint64_t* scratch, std::size_t width,
                           std::size_t lanes) {
  for (std::size_t k = 0; k < width; ++k) {
    const std::uint64_t* a = val + std::size_t{src[k]} * stride;
    const std::uint64_t* b = val + std::size_t{dst[k]} * stride;
    std::uint64_t* out = scratch + k * lanes;
    for (std::size_t lane = 0; lane < lanes; ++lane) out[lane] = a[lane] + b[lane];
  }
  for (std::size_t k = 0; k < width; ++k) {
    std::memcpy(val + std::size_t{dst[k]} * stride, scratch + k * lanes,
                lanes * sizeof(std::uint64_t));
  }
}

}  // namespace detail

void add_rows_u64(const std::uint64_t* a, const std::uint64_t* b, std::uint64_t* out,
                  std::size_t count) {
#if IR_SIMD_ENABLED
  if (active_mode() == Mode::kAvx2) {
    detail::add_rows_u64_avx2(a, b, out, count);
    return;
  }
#endif
  detail::add_rows_u64_scalar(a, b, out, count);
}

void gather_add_u64(const std::uint64_t* val, const std::uint32_t* dst,
                    const std::uint32_t* src, std::uint64_t* out, std::size_t count) {
#if IR_SIMD_ENABLED
  if (active_mode() == Mode::kAvx2) {
    detail::gather_add_u64_avx2(val, dst, src, out, count);
    return;
  }
#endif
  detail::gather_add_u64_scalar(val, dst, src, out, count);
}

void jump_round_u64(std::uint64_t* val, std::size_t stride, const std::uint32_t* dst,
                    const std::uint32_t* src, std::uint64_t* scratch,
                    std::size_t width, std::size_t lanes) {
#if IR_SIMD_ENABLED
  if (active_mode() == Mode::kAvx2) {
    detail::jump_round_u64_avx2(val, stride, dst, src, scratch, width, lanes);
    return;
  }
#endif
  detail::jump_round_u64_scalar(val, stride, dst, src, scratch, width, lanes);
}

}  // namespace ir::core::simd
