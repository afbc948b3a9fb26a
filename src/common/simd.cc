#include "common/simd.h"

#include "common/simd_internal.h"

namespace gsr::simd {

namespace internal {
std::atomic<const KernelTable*> active_table{nullptr};
}  // namespace internal

namespace {

KernelLevel DetectMaxLevel() {
#if GSR_SIMD_ENABLED && (defined(__GNUC__) || defined(__clang__))
  if (__builtin_cpu_supports("avx2")) return KernelLevel::kAvx2;
#endif
  return KernelLevel::kScalar;
}

}  // namespace

KernelLevel MaxSupportedLevel() {
  static const KernelLevel level = DetectMaxLevel();
  return level;
}

const KernelTable& Table(KernelLevel level) {
  // Requests above what the build/CPU supports clamp down, never up.
  if (level > MaxSupportedLevel()) level = MaxSupportedLevel();
#if GSR_SIMD_ENABLED
  if (level == KernelLevel::kAvx2) return internal::kAvx2Table;
#endif
  return internal::kScalarTable;
}

KernelLevel ActiveLevel() { return Kernels().level; }

KernelLevel SetKernelLevel(KernelLevel level) {
  const KernelTable& table = Table(level);
  internal::active_table.store(&table, std::memory_order_release);
  return table.level;
}

bool SetKernelLevelFromString(std::string_view name) {
  if (name == "scalar") {
    SetKernelLevel(KernelLevel::kScalar);
  } else if (name == "avx2") {
    SetKernelLevel(KernelLevel::kAvx2);
  } else if (name == "native") {
    SetKernelLevel(MaxSupportedLevel());
  } else {
    return false;
  }
  return true;
}

const char* KernelLevelName(KernelLevel level) {
  switch (level) {
    case KernelLevel::kScalar:
      return "scalar";
    case KernelLevel::kAvx2:
      return "avx2";
  }
  return "unknown";
}

namespace internal {

const KernelTable& ResolveAndInstallDefault() {
  // First probe in this process: run at the strongest level the CPU
  // supports. Concurrent first probes race benignly — every contender
  // installs the same table.
  SetKernelLevel(MaxSupportedLevel());
  return *active_table.load(std::memory_order_acquire);
}

}  // namespace internal

}  // namespace gsr::simd
