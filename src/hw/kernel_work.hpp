// Description of a unit of computational work submitted to a device model.
#pragma once

#include <cstdint>
#include <string>

namespace greencap::hw {

enum class Precision : std::uint8_t { kSingle, kDouble };

[[nodiscard]] inline const char* to_string(Precision p) {
  return p == Precision::kSingle ? "single" : "double";
}

/// Kernel families with distinct device affinities. GPUs are excellent at
/// the bulk Level-3 BLAS updates but comparatively poor at the small
/// factorization panel (POTRF diagonal tile), which is what puts the
/// Cholesky critical path on the CPU in practice (paper section III-C).
enum class KernelClass : std::uint8_t {
  kGemm,
  kSyrk,
  kTrsm,
  kPotrf,
  kGetrf,
  kQrPanel,  ///< GEQRT/TSQRT: Householder panel factorization
  kQrApply,  ///< UNMQR/TSMQR: blocked reflector application (GEMM-like)
  kGeneric,
};

[[nodiscard]] const char* to_string(KernelClass k);

/// A kernel invocation as seen by the hardware models.
struct KernelWork {
  KernelClass klass = KernelClass::kGeneric;
  Precision precision = Precision::kDouble;
  /// Useful floating-point operations performed by the kernel.
  double flops = 0.0;
  /// Characteristic problem dimension (tile order nb for BLAS kernels).
  /// Drives the GPU occupancy/saturation model: small tiles underfill the
  /// device, yielding both lower throughput and lower power draw.
  double work_dim = 0.0;

  [[nodiscard]] std::string to_string() const;
};

}  // namespace greencap::hw
