#ifndef CTFL_UTIL_CPU_FEATURES_H_
#define CTFL_UTIL_CPU_FEATURES_H_

// Runtime ISA detection + process-wide SIMD-tier selection for the
// tracing kernel (kernel/trace_kernel.h, DESIGN.md §10) and the grafted
// training step's units (nn/logic_kernel.h, DESIGN.md §16.2).
//
// The blocked Eq. 4 kernel and the training step each ship one
// translation unit per SIMD tier, all compiled into the binary; which one
// runs is decided *once* per process, never per call:
//
//   1. an explicit SetTraceIsa() override (the --trace-isa flag), else
//   2. the CTFL_TRACE_ISA environment variable (scalar|avx2|avx512|neon;
//      ignored with a warning when the tier is unavailable), else
//   3. the best tier the running CPU supports (cpuid on x86, auxval on
//      aarch64).
//
// Every tier produces bit-identical match decisions, stats and trained
// parameters (DESIGN.md §10.3, §16.3), so the selection is a pure
// implementation knob: it is excluded from config digests and run
// fingerprints exactly like the thread-count knobs of §9. The tracer takes
// its tier from TracerConfig::isa (CurrentTraceIsa() by default); the
// training step reads CurrentTraceIsa() itself.

#include <cstdint>
#include <string>
#include <vector>

#include "ctfl/util/result.h"

namespace ctfl {

/// SIMD tier of the blocked tracing kernel. Order is meaningful: higher
/// enumerators are wider/faster tiers, and BestAvailableTraceIsa() picks
/// the largest available one.
enum class TraceIsa : uint8_t {
  kScalar = 0,  ///< portable uint64 lane loop (always available)
  kNeon = 1,    ///< aarch64 Advanced SIMD, 2 x f64 lanes
  kAvx2 = 2,    ///< x86-64 AVX2 with FMA, 4 x f64 lanes
  kAvx512 = 3,  ///< x86-64 AVX-512F, 8 x f64 lanes + mask registers
};

/// Stable lowercase name ("scalar", "neon", "avx2", "avx512") — the
/// --trace-isa / CTFL_TRACE_ISA vocabulary and the label exported through
/// STATS, RunReport, Prometheus, and the bench context.
const char* TraceIsaName(TraceIsa isa);

/// Parses a TraceIsaName() string. Rejects "auto" — ApplyTraceIsaFlag
/// resolves it to runtime dispatch (the flag default).
Result<TraceIsa> ParseTraceIsa(const std::string& name);

/// True when this binary carries a kernel for the tier (compile-time:
/// NEON only on aarch64, AVX tiers only on x86-64).
bool TraceIsaCompiled(TraceIsa isa);

/// True when the tier is compiled in *and* the running CPU supports it
/// (kAvx2 needs both AVX2 and FMA). kScalar is always available.
bool TraceIsaAvailable(TraceIsa isa);

/// The widest available tier on this machine.
TraceIsa BestAvailableTraceIsa();

/// All available tiers, ascending (always starts with kScalar) — the
/// bench suite registers one kernel variant per entry.
std::vector<TraceIsa> AvailableTraceIsas();

/// The process-wide tier: SetTraceIsa override if any, else CTFL_TRACE_ISA
/// (resolved once, first call), else BestAvailableTraceIsa().
TraceIsa CurrentTraceIsa();

/// Forces the process-wide tier (the --trace-isa flag). Fails without
/// side effects when the tier is unavailable on this machine.
Status SetTraceIsa(TraceIsa isa);

/// Applies a --trace-isa value: "auto" (or empty) keeps runtime dispatch,
/// a tier name pins the process-wide tier through SetTraceIsa.
Status ApplyTraceIsaFlag(const std::string& name);

}  // namespace ctfl

#endif  // CTFL_UTIL_CPU_FEATURES_H_
