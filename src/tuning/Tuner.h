//===- Tuner.h - Model-guided parameter tuning (Section 6.3) ----*- C++ -*-===//
//
// Part of the AN5D reproduction project, under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The model-guided tuning flow of Section 6.3 for one problem size, in
/// two stages:
///
///  1. Enumerate/prune: walk the parameter grid for the stencil's
///     dimensionality (bT in [1,16] for 1D/2D, [1,8] for 3D; bS in
///     {64,128,256,512} for 2D, {16x16, 32x16, 32x32, 64x16} for 3D, none
///     for 1D pure streaming; hSN in {off,128,256,512,1024} for 1D,
///     {256,512,1024} for 2D, {128,256} for 3D), drop register-infeasible
///     points, rank the rest with the Section 5 performance model, and
///     lower + gate each of the top-K (one ScheduleIR per candidate).
///
///  2. Measured sweep: "run" every gated candidate through the
///     measured-performance simulator under each register cap of
///     RegisterCapMenu, fanned out over the worker pool
///     (support/ParallelFor.h), and keep the fastest. The sweep is
///     bit-identical for every thread count. The native backend compiles
///     and times the gated IRs themselves instead.
///
/// TuneOptions carries the knobs (top-K, worker threads, backend) and is
/// threaded through an5dc --tune and examples/tuning_explorer.
///
//===----------------------------------------------------------------------===//

#ifndef AN5D_TUNING_TUNER_H
#define AN5D_TUNING_TUNER_H

#include "ir/StencilProgram.h"
#include "model/BlockConfig.h"
#include "model/GpuSpec.h"
#include "model/PerformanceModel.h"
#include "runtime/NativeMeasurement.h"
#include "sim/MeasuredSimulator.h"

#include <array>
#include <cstddef>
#include <vector>

namespace an5d {

/// The ranking key derived from a model score: the GFLOP/s value rounded
/// to float precision (~7 significant digits), so scores that differ only
/// by FP noise compare equal — exactly — and fall through to the field
/// tie-break. Exposed so tests can assert the tie-break with the same
/// predicate the sort uses.
double quantizedModelScore(double Gflops);

/// The register caps (0 = uncapped) the simulated sweep measures every
/// gated candidate under, Section 6.3.
inline constexpr std::array<int, 4> RegisterCapMenu = {0, 32, 64, 96};

/// Which measurement source the tuning flow's second stage runs the
/// candidates through.
enum class MeasurementBackend {
  /// The calibrated MeasuredSimulator (default): models the paper's GPUs,
  /// microseconds per candidate, fanned out over the worker pool.
  Simulated,
  /// Real JIT-compiled OpenMP kernels timed on the host CPU
  /// (runtime/NativeMeasurement.h): compilation fans out over the same
  /// worker pool, the timed runs are serialized so candidates do not
  /// contend for cores.
  Native,
};

/// Runs simulateMeasured for every configuration in \p Configs (register
/// cap included) at \p Problem, fanned out over \p Threads workers (see
/// resolveSweepThreads for 0). Results are indexed exactly like
/// \p Configs and are bit-identical for every thread count.
std::vector<MeasuredResult>
parallelMeasuredSweep(const StencilProgram &Program, const GpuSpec &Spec,
                      const std::vector<BlockConfig> &Configs,
                      const ProblemSize &Problem, int Threads);

/// One model-ranked candidate.
struct RankedConfig {
  BlockConfig Config;
  ModelBreakdown Model;
};

/// The tuner's final verdict for one stencil on one device.
struct TuneOutcome {
  bool Feasible = false;
  BlockConfig Best;            ///< Includes the chosen register cap.
  MeasuredResult BestMeasured; ///< Simulated "Tuned" performance.
  std::vector<RankedConfig> TopByModel;

  /// Sweep candidates whose measurement failed outright (native backend:
  /// kernel did not compile/load or rejected the run) — distinct from
  /// model-infeasible candidates, which are silently pruned. A non-zero
  /// count with Feasible == false usually means a broken host toolchain,
  /// not an untunable stencil; an5dc surfaces it on stderr.
  std::size_t MeasurementFailures = 0;
  std::string FirstFailureReason; ///< Representative failure (e.g. the
                                  ///< compiler log of the first one).
  /// Normalized classification of FirstFailureReason (None when no
  /// measurement failed); an5dc renders the warning label from this
  /// instead of re-parsing the free-form string.
  MeasureFailureKind FirstFailureKind = MeasureFailureKind::None;

  /// Model-ranked candidates the pre-JIT gate (the standard analysis
  /// pipeline, analysis/passes/AnalysisPass.h) rejected with an Error
  /// finding before any kernel was compiled — distinct from
  /// model-infeasible candidates (silently pruned in stage 1) and from
  /// MeasurementFailures (the backend tried and failed). The count is
  /// split by the family of the first Error finding: VerifierRejections
  /// for A2xx schedule findings, AnalysisRejections for A1xx tape
  /// findings. Non-zero means the feasibility model and the gate
  /// disagree; the cross-check suite keeps both at zero for every
  /// enumerated configuration.
  std::size_t VerifierRejections = 0;
  std::size_t AnalysisRejections = 0;
  std::string FirstRejectionReason; ///< Representative Error finding.
};

/// Knobs of the Section 6.3 search.
struct TuneOptions {
  /// Model-ranked candidates that advance to the measured sweep. The
  /// paper measures the top five serially; with the parallel sweep the
  /// default widens to 16 so several block-shape families reach the
  /// measured stage even when near-tied model scores make the head of the
  /// ranking homogeneous (the model slightly favors wide blocks whose
  /// measured occupancy disappoints).
  std::size_t TopK = 16;

  /// Worker threads for the simulated sweep and the native compile stage;
  /// 0 picks one per hardware thread (capped at 8). Any value yields
  /// bit-identical results (the native backend parallelizes only
  /// compilation, never timing).
  int Threads = 0;

  /// Measurement source of stage 2. Native skips RegisterCapMenu —
  /// -maxrregcount is a CUDA knob with no CPU analogue, so cap variants
  /// would compile and time the same kernel repeatedly. All
  /// dimensionalities run real kernels (1D streams through the
  /// chunk-parallel kernel).
  MeasurementBackend Backend = MeasurementBackend::Simulated;

  /// Compile/cache/timing knobs of the Native backend.
  NativeMeasureOptions Native;
};

/// Model-guided configuration search for one device.
class Tuner {
public:
  explicit Tuner(GpuSpec Spec) : Spec(std::move(Spec)) {}

  const GpuSpec &spec() const { return Spec; }

  /// The raw parameter grid for \p Program's dimensionality (no pruning,
  /// RegisterCap unset).
  std::vector<BlockConfig> enumerateConfigs(const StencilProgram &Program)
      const;

  /// Stage 1: evaluates the model over the pruned grid and returns the
  /// best \p TopK candidates in descending model performance. Scores
  /// compare through quantizedModelScore with a total order over the
  /// configuration fields as tie-break, so the ranking is deterministic
  /// across compilers and FP flags.
  std::vector<RankedConfig> rankByModel(const StencilProgram &Program,
                                        const ProblemSize &Problem,
                                        std::size_t TopK) const;

  /// Full tuning flow for \p Problem: rank, gate the top-K, sweep them
  /// (under each cap of RegisterCapMenu when simulated) across
  /// Options.Threads workers, return the fastest measured configuration.
  /// Bit-identical for every thread count.
  TuneOutcome tune(const StencilProgram &Program, const ProblemSize &Problem,
                   const TuneOptions &Options = TuneOptions()) const;

  /// The Sconf configuration of Section 6.3 (STENCILGEN's kernel
  /// parameters): bT=4, hSN=128, bS=32 for 2D / 32x32 for 3D, with the
  /// streaming division disabled for 3D stencils. For 1D (which the paper
  /// does not evaluate) this is the pure-streaming analogue bT=4, hSN=128.
  static BlockConfig sconf(const StencilProgram &Program);

private:
  GpuSpec Spec;
};

} // namespace an5d

#endif // AN5D_TUNING_TUNER_H
