#include "ctfl/util/cpu_features.h"

#include <atomic>
#include <cstdlib>

#include "ctfl/util/logging.h"

#if defined(__aarch64__) && defined(__linux__)
#include <sys/auxv.h>
#ifndef HWCAP_ASIMD
#define HWCAP_ASIMD (1 << 1)
#endif
#endif

namespace ctfl {
namespace {

#if defined(__x86_64__) || defined(__i386__)
constexpr bool kX86 = true;
#else
constexpr bool kX86 = false;
#endif
#if defined(__aarch64__)
constexpr bool kAarch64 = true;
#else
constexpr bool kAarch64 = false;
#endif

bool RuntimeSupports(TraceIsa isa) {
  switch (isa) {
    case TraceIsa::kScalar:
      return true;
#if defined(__x86_64__) || defined(__i386__)
    case TraceIsa::kAvx2:
      // The tier's training units use FMA (nn/logic_kernel.h).
      return __builtin_cpu_supports("avx2") && __builtin_cpu_supports("fma");
    case TraceIsa::kAvx512:
      return __builtin_cpu_supports("avx512f");
#endif
#if defined(__aarch64__)
    case TraceIsa::kNeon:
#if defined(__linux__)
      return (getauxval(AT_HWCAP) & HWCAP_ASIMD) != 0;
#else
      return true;  // Advanced SIMD is mandatory on aarch64.
#endif
#endif
    default:
      return false;
  }
}

// -1 = no override; otherwise the TraceIsa enumerator forced by
// SetTraceIsa. Relaxed ordering suffices: the value is a plain selector
// read at kernel-dispatch time, never part of an acquire/release pair.
std::atomic<int> g_isa_override{-1};

TraceIsa ResolveDefault() {
  const char* env = std::getenv("CTFL_TRACE_ISA");
  if (env != nullptr && *env != '\0') {
    const Result<TraceIsa> parsed = ParseTraceIsa(env);
    if (parsed.ok() && TraceIsaAvailable(*parsed)) return *parsed;
    CTFL_LOG(Warning) << "CTFL_TRACE_ISA='" << env
                      << "' is not an available ISA tier; using "
                      << TraceIsaName(BestAvailableTraceIsa());
  }
  return BestAvailableTraceIsa();
}

}  // namespace

const char* TraceIsaName(TraceIsa isa) {
  switch (isa) {
    case TraceIsa::kScalar:
      return "scalar";
    case TraceIsa::kNeon:
      return "neon";
    case TraceIsa::kAvx2:
      return "avx2";
    case TraceIsa::kAvx512:
      return "avx512";
  }
  return "scalar";
}

Result<TraceIsa> ParseTraceIsa(const std::string& name) {
  if (name == "scalar") return TraceIsa::kScalar;
  if (name == "neon") return TraceIsa::kNeon;
  if (name == "avx2") return TraceIsa::kAvx2;
  if (name == "avx512") return TraceIsa::kAvx512;
  return Status::InvalidArgument("unknown trace ISA '" + name +
                                 "' (expected scalar|neon|avx2|avx512)");
}

bool TraceIsaCompiled(TraceIsa isa) {
  switch (isa) {
    case TraceIsa::kScalar:
      return true;
    case TraceIsa::kNeon:
      return kAarch64;
    case TraceIsa::kAvx2:
    case TraceIsa::kAvx512:
      return kX86;
  }
  return false;
}

bool TraceIsaAvailable(TraceIsa isa) {
  return TraceIsaCompiled(isa) && RuntimeSupports(isa);
}

TraceIsa BestAvailableTraceIsa() {
  for (TraceIsa isa : {TraceIsa::kAvx512, TraceIsa::kAvx2, TraceIsa::kNeon}) {
    if (TraceIsaAvailable(isa)) return isa;
  }
  return TraceIsa::kScalar;
}

std::vector<TraceIsa> AvailableTraceIsas() {
  std::vector<TraceIsa> out{TraceIsa::kScalar};
  for (TraceIsa isa : {TraceIsa::kNeon, TraceIsa::kAvx2, TraceIsa::kAvx512}) {
    if (TraceIsaAvailable(isa)) out.push_back(isa);
  }
  return out;
}

TraceIsa CurrentTraceIsa() {
  const int forced = g_isa_override.load(std::memory_order_relaxed);
  if (forced >= 0) return static_cast<TraceIsa>(forced);
  static const TraceIsa resolved = ResolveDefault();
  return resolved;
}

Status SetTraceIsa(TraceIsa isa) {
  if (!TraceIsaAvailable(isa)) {
    std::string available;
    for (TraceIsa tier : AvailableTraceIsas()) {
      if (!available.empty()) available += "|";
      available += TraceIsaName(tier);
    }
    return Status::InvalidArgument(
        std::string("trace ISA '") + TraceIsaName(isa) +
        "' is not available on this machine (available: " + available + ")");
  }
  g_isa_override.store(static_cast<int>(isa), std::memory_order_relaxed);
  return Status::OK();
}

}  // namespace ctfl
