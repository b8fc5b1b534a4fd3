//===- ParallelFor.h - Atomic-index worker pool -----------------*- C++ -*-===//
//
// Part of the AN5D reproduction project, under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The one worker pool of the library: a small set of std::thread workers
/// that pull indices off an atomic counter. The tuner's simulated sweep
/// and the native sweep's compile stage both fan out through it.
///
/// Determinism is the caller's contract: a body that writes only its own
/// pre-allocated slot produces the same result for every worker count, so
/// ordering-sensitive reductions stay serial in the caller.
///
//===----------------------------------------------------------------------===//

#ifndef AN5D_SUPPORT_PARALLELFOR_H
#define AN5D_SUPPORT_PARALLELFOR_H

#include <cstddef>
#include <functional>

namespace an5d {

/// Resolves a requested worker count: values >= 1 pass through; 0 (the
/// "auto" default of TuneOptions::Threads) maps to the hardware
/// concurrency, clamped to [1, 8] — sweep items are microseconds-sized,
/// so a small pool saturates long before the core count on big machines.
int resolveSweepThreads(int Requested);

/// Calls \p Body(I) exactly once for every I in [0, \p Count), spread over
/// min(resolveSweepThreads(\p Threads), \p Count) workers. The calling
/// thread is one of them, so a single worker runs inline. Returns after
/// every call finished. If a call throws, the items not yet started are
/// skipped and the first exception is rethrown here after every worker
/// has joined.
void parallelFor(std::size_t Count, int Threads,
                 const std::function<void(std::size_t)> &Body);

} // namespace an5d

#endif // AN5D_SUPPORT_PARALLELFOR_H
