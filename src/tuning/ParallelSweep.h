//===- ParallelSweep.h - Parallel measured-performance sweep ----*- C++ -*-===//
//
// Part of the AN5D reproduction project, under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The measured-sweep stage of the Section 6.3 tuning flow as a parallel
/// subsystem: a flat list of (configuration, problem-size) candidates is
/// dispatched across a small pool of std::thread workers that pull items
/// off an atomic work index and run simulateMeasured for each.
///
/// simulateMeasured (and the whole model stack underneath it) is a pure
/// function of its arguments, and every candidate writes only its own
/// pre-allocated result slot, so the sweep output is bit-identical for any
/// worker count — the thread count is purely a wall-clock knob. All
/// ordering-sensitive reductions (argmax over candidates) happen serially
/// in the caller over the deterministic result array.
///
//===----------------------------------------------------------------------===//

#ifndef AN5D_TUNING_PARALLELSWEEP_H
#define AN5D_TUNING_PARALLELSWEEP_H

#include "analysis/passes/ResourceEstimator.h"
#include "ir/StencilProgram.h"
#include "model/BlockConfig.h"
#include "model/GpuSpec.h"
#include "schedule/ScheduleIR.h"
#include "sim/MeasuredSimulator.h"

#include <cstddef>
#include <vector>

namespace an5d {

/// One work item of a measured sweep: a fully specified configuration
/// (register cap included) paired with an index into the sweep's
/// problem-size list.
struct SweepCandidate {
  BlockConfig Config;
  std::size_t ProblemIndex = 0;

  /// The candidate's lowered schedule, when the producer already lowered
  /// it (the tuner lowers once per candidate, gates that IR and hands it
  /// down to the native backend). Left default-constructed — an
  /// empty StencilName marks it absent — by callers that only fill
  /// Config; consumers that need the IR lower it themselves then. When
  /// set, Schedule.Config must equal Config.
  ScheduleIR Schedule;

  /// Static resource features of this candidate (ring bytes, working
  /// sets, tape FLOPs, arithmetic intensity), filled by producers that
  /// ran the analysis pipeline — the tuner estimates every candidate it
  /// lowers. Valid == false when no producer estimated.
  ResourceEstimate Resources;
};

/// Which measurement source the tuning flow's second stage runs the
/// candidates through.
enum class MeasurementBackend {
  /// The calibrated MeasuredSimulator below (default): models the paper's
  /// GPUs, microseconds per candidate, fully parallel.
  Simulated,
  /// Real JIT-compiled OpenMP kernels timed on the host CPU
  /// (runtime/NativeMeasurement.h): compilation fans out over the same
  /// thread pool, the timed runs are serialized so candidates do not
  /// contend for cores.
  Native,
};

/// Resolves a requested worker count: values >= 1 pass through; 0 (the
/// "auto" default of TuneOptions) maps to the hardware concurrency,
/// clamped to [1, 8] — the sweep items are microseconds-sized, so a small
/// pool saturates long before the core count on big machines.
int resolveSweepThreads(int Requested);

/// Runs simulateMeasured for every candidate, fanning the items out over
/// \p Threads workers (see resolveSweepThreads for 0). Results are indexed
/// exactly like \p Candidates; each candidate's ProblemIndex must address
/// \p Problems. The result is bit-identical for every thread count.
std::vector<MeasuredResult>
parallelMeasuredSweep(const StencilProgram &Program, const GpuSpec &Spec,
                      const std::vector<SweepCandidate> &Candidates,
                      const std::vector<ProblemSize> &Problems, int Threads);

} // namespace an5d

#endif // AN5D_TUNING_PARALLELSWEEP_H
