//===- ScheduleVerifier.h - The N.5D schedule prover ------------*- C++ -*-===//
//
// Part of the AN5D reproduction project, under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The one static prover of the blocked N.5D schedule (paper Section 4).
/// Before any kernel is compiled, it proves on a lowered ScheduleIR — the
/// exact object the emulator and both codegen backends render — that
///
///   1. every global-buffer load/store and every register-ring access of
///      the emitted kernels is in bounds for ALL problem extents above
///      the schedule's minimum, and each tier reads only what its
///      producer holds valid (the bT x radius halo chain, tier by tier,
///      on the blocked and streaming axes);
///   2. the 2*rad+1 ring outlives every consumed sub-plane (no producer
///      overwrites a slot its consumer has not read yet);
///   3. tiers run in wavefront order (no tier reads a sub-plane its
///      producer has not written by that streaming step);
///   4. the concurrently scheduled blocks and stream chunks (the emitted
///      `omp for` / CUDA grid) write disjoint, gap-free regions; and
///   5. given a problem, the Section 4.3.1 host time-block schedule holds
///      its postconditions and issues only degrees the IR lowers.
///
/// Bounds are affine in the per-axis extent E: `Coeff*E + Offset`
/// (SymBound). An inequality `a <= b` holds for every E >= MinExtent iff
/// the difference has a non-negative extent coefficient AND is
/// non-negative at E = MinExtent, so one check covers the whole extent
/// family — exactly what a clamp such as
/// `min(ChunkHi-1+LoadStreamReach, E-1+GridHalo)` needs.
///
/// Every defect is an Error-severity AnalysisFinding under an append-only
/// AN5D-A2xx ID (pass "schedule-prover"):
///
///   AN5D-A201  stream-axis load outside the allocated halo
///   AN5D-A202  blocked-axis load outside the allocated halo
///   AN5D-A203  grid halo smaller than the widest tap offset on an axis
///   AN5D-A204  ring too shallow for a consumed sub-plane's lifetime
///   AN5D-A205  tier consumes a sub-plane its producer has not written
///   AN5D-A206  ring lane underflow (load-span halo too small)
///   AN5D-A207  ring lane overflow (span exceeds the loaded block)
///   AN5D-A208  store width exceeds the computed width
///   AN5D-A209  retired (was the tiling Warn; now A213 / A214)
///   AN5D-A210  schedule structurally malformed
///   AN5D-A211  halo policy inconsistent with the blocked-axis set
///   AN5D-A212  tier reads outside its producer tier's valid region
///   AN5D-A213  concurrent blocks or chunks write overlapping cells
///   AN5D-A214  concurrent blocks or chunks leave cells unwritten
///   AN5D-A215  host time-block schedule breaks a postcondition
///   AN5D-A216  the halo consumes the block (compute width < 1)
///
/// Thread caps are deliberately out of scope: they are a hardware limit,
/// not a schedule-safety property (see BlockConfig::isFeasible). The IR's
/// fields are mutable so tests can corrupt one invariant at a time and
/// assert the ID that catches it.
///
//===----------------------------------------------------------------------===//

#ifndef AN5D_ANALYSIS_SCHEDULEVERIFIER_H
#define AN5D_ANALYSIS_SCHEDULEVERIFIER_H

#include "analysis/passes/AnalysisPass.h"
#include "schedule/ScheduleIR.h"

#include <vector>

namespace an5d {

/// An affine bound in one axis extent E: value(E) = ExtentCoeff*E + Offset.
struct SymBound {
  long long ExtentCoeff = 0;
  long long Offset = 0;

  long long value(long long Extent) const {
    return ExtentCoeff * Extent + Offset;
  }
};

/// True iff A <= B for every extent E >= MinExtent: the difference B - A
/// must grow (or stay flat) with E and already hold at the minimum.
inline bool provedLE(SymBound A, SymBound B, long long MinExtent) {
  long long DCoeff = B.ExtentCoeff - A.ExtentCoeff;
  long long DAtMin = B.value(MinExtent) - A.value(MinExtent);
  return DCoeff >= 0 && DAtMin >= 0;
}

/// Proves \p IR against buffers allocated with \p AllocHalo cells per side
/// (the Grid layout allocates radius), for every per-axis extent >=
/// \p MinExtent, appending one finding per violated invariant to
/// \p Report. When \p Problem is non-null, also checks the host time-block
/// schedule for Problem->TimeSteps (A215).
void proveSchedule(const ScheduleIR &IR, long long AllocHalo,
                   const ProblemSize *Problem, AnalysisReport &Report,
                   long long MinExtent = 1);

/// The prover's verdict as a standalone call.
struct ScheduleVerifyResult {
  std::vector<AnalysisFinding> Violations; ///< Error findings; empty = safe.

  bool proven() const { return Violations.empty(); }
};

/// Proves \p IR against an allocation of IR.Radius cells per side (and
/// the host schedule of \p Problem when non-null).
ScheduleVerifyResult verifyScheduleIR(const ScheduleIR &IR,
                                      const ProblemSize *Problem = nullptr);

/// The pass adapter: proves Input.Schedule against an allocation halo of
/// Program->radius(), plus Input.Problem's host schedule when set. Silent
/// when the input carries no schedule.
class ScheduleProverPass : public AnalysisPass {
public:
  const char *name() const override { return "schedule-prover"; }
  void run(const AnalysisInput &Input, AnalysisReport &Report) const override;
};

} // namespace an5d

#endif // AN5D_ANALYSIS_SCHEDULEVERIFIER_H
