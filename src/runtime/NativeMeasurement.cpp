//===- NativeMeasurement.cpp - Real measured sweep on compiled kernels -------===//
//
// Part of the AN5D reproduction project, under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "runtime/NativeMeasurement.h"

#include "obs/Metrics.h"
#include "obs/Trace.h"
#include "sim/Grid.h"
#include "support/ParallelFor.h"

#include <algorithm>
#include <chrono>
#include <limits>
#include <memory>
#include <thread>

namespace an5d {

ProblemSize nativeMeasurementProblem(int NumDims) {
  ProblemSize Problem;
  if (NumDims == 2) {
    Problem.Extents = {512, 512};
    Problem.TimeSteps = 32;
  } else if (NumDims == 3) {
    Problem.Extents = {64, 64, 64};
    Problem.TimeSteps = 8;
  } else {
    Problem.Extents = {65536};
    Problem.TimeSteps = 64;
  }
  return Problem;
}

template <typename T>
KernelTiming timeNativeKernel(const NativeExecutor &Executor,
                              const ProblemSize &Problem, int Radius,
                              int Repeats, int Threads) {
  // Pin explicitly: with no request (Threads == 0) pin to the machine's
  // hardware concurrency, not to the kernel's current default — the
  // latter is whatever ambient OMP_NUM_THREADS initialized the pool to,
  // and measurements must not float with the caller's environment. The
  // previous pool size is restored on exit: the OpenMP ICV is
  // process-wide, so leaving the pin in place would silently change the
  // thread count of any later kernel run in this process (e.g. an5dc
  // --tune --measure native followed by --run-native).
  int Ambient = Executor.kernelMaxThreads();
  int Pin = Threads;
  if (Pin <= 0)
    Pin = static_cast<int>(std::thread::hardware_concurrency());
  if (Pin <= 0)
    Pin = Ambient; // no concurrency info: freeze the pool as-is
  Executor.pinKernelThreads(Pin);
  struct RestorePool {
    const NativeExecutor &Executor;
    int Threads;
    ~RestorePool() { Executor.pinKernelThreads(Threads); }
  } Restore{Executor, Ambient};

  KernelTiming Timing;
  // Read back rather than echo the request: a kernel built without
  // OpenMP ignores the pin and stays at 1.
  Timing.ThreadsUsed = Executor.kernelMaxThreads();

  Grid<T> Pristine(Problem.Extents, Radius);
  fillGridDeterministic(Pristine, 42);
  Grid<T> Buf0 = Pristine, Buf1 = Pristine;
  double Best = std::numeric_limits<double>::infinity();
  int TimedRepeats = std::max(1, Repeats);
  for (int Rep = -1; Rep < TimedRepeats; ++Rep) {
    copyGrid(Pristine, Buf0);
    copyGrid(Pristine, Buf1);
    // The span's clock reads happen strictly outside the Start..now
    // window below, so enabling tracing widens the span, not the number.
    obs::TraceSpan RepSpan(Rep < 0 ? "measure.warmup" : "measure.repeat");
    auto Start = std::chrono::steady_clock::now();
    int Rc = Executor.runRaw(Buf0.data(), Buf1.data(),
                             Problem.Extents.data(),
                             static_cast<int>(Problem.Extents.size()),
                             Problem.TimeSteps);
    double Seconds = std::chrono::duration<double>(
                         std::chrono::steady_clock::now() - Start)
                         .count();
    if (Rc != 0) {
      Timing.Rc = Rc;
      return Timing;
    }
    if (Rep < 0)
      continue; // warmup run: correct but untimed
    Best = std::min(Best, Seconds);
  }
  // Metric bumps live after the timed loop — one batch per call, never
  // inside a measured window.
  obs::count("measure.warmups");
  obs::count("measure.repeats", TimedRepeats);
  if (Best < MinMeasurableSeconds)
    obs::count("measure.clamps");
  Timing.Seconds = std::max(Best, MinMeasurableSeconds);
  obs::observe("measure.run_seconds", Timing.Seconds,
               obs::runSecondsBuckets());
  return Timing;
}

template KernelTiming timeNativeKernel<float>(const NativeExecutor &,
                                              const ProblemSize &, int, int,
                                              int);
template KernelTiming timeNativeKernel<double>(const NativeExecutor &,
                                               const ProblemSize &, int, int,
                                               int);

std::vector<MeasuredResult>
nativeMeasuredSweep(const StencilProgram &Program,
                    const std::vector<ScheduleIR> &Schedules,
                    const ProblemSize &Problem,
                    const NativeMeasureOptions &Options, int Threads,
                    KernelCache *Cache) {
  std::vector<MeasuredResult> Results(Schedules.size());
  if (Schedules.empty())
    return Results;
  obs::count("sweep.candidates", static_cast<long long>(Schedules.size()));

  std::unique_ptr<KernelCache> OwnedCache;
  if (!Cache) {
    OwnedCache = std::make_unique<KernelCache>(Options.Runtime.CacheDir);
    Cache = OwnedCache.get();
  }

  // Stage 1: compile every kernel across the pool. Executors land in
  // their own pre-allocated slot, so the stage is race-free; the shared
  // cache deduplicates identical sources (e.g. register-cap variants)
  // behind its own lock.
  std::vector<std::unique_ptr<NativeExecutor>> Executors(Schedules.size());
  parallelFor(Schedules.size(), Threads, [&](std::size_t Item) {
    obs::gaugeSet("sweep.queue_depth",
                  static_cast<long long>(Schedules.size() - Item - 1));
    obs::TraceSpan Span("sweep.compile");
    if (Span.active())
      Span.attr("config", Schedules[Item].Config.toString());
    Executors[Item] = std::make_unique<NativeExecutor>(
        Program, Schedules[Item], Options.Runtime, Cache);
  });

  // Stage 2: serial timing, one kernel at a time (measurements must not
  // contend with each other for cores).
  double FlopsPerCell =
      static_cast<double>(Program.flopsPerCell().total());
  double CellUpdates = static_cast<double>(Problem.cellCount()) *
                       static_cast<double>(Problem.TimeSteps);
  for (std::size_t I = 0; I < Schedules.size(); ++I) {
    NativeExecutor *Executor = Executors[I].get();
    if (!Executor || !Executor->ok()) {
      // Not an infeasible configuration: record why the kernel never ran
      // so the tuner can surface compile failures distinctly.
      Results[I].FailureReason =
          Executor ? Executor->error() : "kernel was never built";
      Results[I].FailureKind = Executor ? MeasureFailureKind::BuildFailed
                                        : MeasureFailureKind::NeverBuilt;
      continue;
    }
    obs::TraceSpan CandidateSpan("measure.candidate");
    if (CandidateSpan.active())
      CandidateSpan.attr("config", Schedules[I].Config.toString());
    KernelTiming Timing =
        Program.elemType() == ScalarType::Float
            ? timeNativeKernel<float>(*Executor, Problem, Program.radius(),
                                      Options.Repeats,
                                      Options.Runtime.Threads)
            : timeNativeKernel<double>(*Executor, Problem, Program.radius(),
                                       Options.Repeats,
                                       Options.Runtime.Threads);
    if (Timing.Rc != 0) {
      Results[I].FailureReason =
          "kernel rejected the run (code " + std::to_string(Timing.Rc) +
          ": " + NativeExecutor::describeRunCode(Timing.Rc) + ")";
      Results[I].FailureKind = MeasureFailureKind::RunRejected;
      continue;
    }
    MeasuredResult &Out = Results[I];
    Out.Feasible = true;
    Out.MeasuredTimeSeconds = Timing.Seconds;
    Out.MeasuredGflops = FlopsPerCell * CellUpdates / Timing.Seconds / 1e9;
  }

  // One failure-kind counter bump per failed result, in one place: the
  // metrics exactly mirror what the tuner's reduction will count into
  // TuneOutcome::MeasurementFailures.
  for (const MeasuredResult &Result : Results)
    if (Result.FailureKind != MeasureFailureKind::None)
      obs::count(measureFailureMetricName(Result.FailureKind));
  return Results;
}

} // namespace an5d
