//===- ThreadCensus.h - Thread classification and traffic totals -*- C++ -*-===//
//
// Part of the AN5D reproduction project, under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The discrete thread/operation counting underlying the performance model
/// (Section 5). Threads are classified as out-of-bound, boundary, redundant
/// or valid; from per-dimension lane counts this module derives the total
/// number of thread-operations performing computation, global memory reads
/// and writes, and shared memory reads and writes for one kernel invocation
/// (one temporal block of bT time-steps over the whole grid).
///
/// The counting mirrors the blocked executor exactly: per chunk of the
/// streaming dimension, tier T in 1..bT computes interior planes in
/// [c0-(bT-T)*rad, c1-1+(bT-T)*rad], and within each thread-block the
/// tier-T valid region shrinks by T*rad per side (Section 4.1).
///
//===----------------------------------------------------------------------===//

#ifndef AN5D_MODEL_THREADCENSUS_H
#define AN5D_MODEL_THREADCENSUS_H

#include "ir/StencilProgram.h"
#include "model/BlockConfig.h"

namespace an5d {

/// Thread-operation totals for one kernel invocation (one temporal block).
struct ThreadCensus {
  /// Thread-operations issuing a global-memory read (tier-0 loads of
  /// interior and boundary cells).
  long long GmReadOps = 0;

  /// Thread-operations issuing a global-memory write (tier-bT stores of
  /// compute-region cells); equals the grid cell count.
  long long GmWriteOps = 0;

  /// Cell updates evaluated, including redundant halo recomputation and
  /// stream-division overlap.
  long long ComputeOps = 0;

  /// Thread-plane shared-memory store slots: every thread of every block
  /// stores once per processed sub-plane for tiers 0..bT-1, out-of-bound
  /// threads included (Section 5).
  long long SmWriteOps = 0;

  /// Total thread-blocks launched (the paper's n'tb).
  long long NumThreadBlocks = 0;

  /// Redundantly computed cell updates (ComputeOps minus useful updates).
  long long redundantComputeOps(long long UsefulPerInvocation) const {
    return ComputeOps - UsefulPerInvocation;
  }
};

/// Counts one invocation of degree \p Config.BT over \p Problem.
/// \pre Config.isFeasible(Program.radius(), INT_MAX).
ThreadCensus computeThreadCensus(const StencilProgram &Program,
                                 const BlockConfig &Config,
                                 const ProblemSize &Problem);

/// Global-memory traffic in bytes implied by \p Census.
long long censusGmemBytes(const ThreadCensus &Census,
                          const StencilProgram &Program);

/// Shared-memory traffic in bytes implied by \p Census, using the Table 2
/// practical per-thread read counts and Table 1 store-per-cell counts.
long long censusSmemBytes(const ThreadCensus &Census,
                          const StencilProgram &Program);

/// Floating-point operations implied by \p Census.
long long censusFlops(const ThreadCensus &Census,
                      const StencilProgram &Program);

} // namespace an5d

#endif // AN5D_MODEL_THREADCENSUS_H
