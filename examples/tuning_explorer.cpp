//===- tuning_explorer.cpp - Explore the Section 6.3 search space ------------===//
//
// Part of the AN5D reproduction project, under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Interactive-style explorer: pick a benchmark (argv[1], default
/// star2d1r; Table 3 names plus the 1D extras), a device (argv[2]:
/// v100|p100), a precision (argv[3]: float|double) and a measured-sweep
/// thread count (argv[4], default 0 = auto); the tool prints the
/// model-ranked top five configurations with full roofline breakdowns and
/// the simulated "Tuned" measurement — the per-stencil slice of Table 5.
/// The sweep result is bit-identical for every thread count.
///
//===----------------------------------------------------------------------===//

#include "sim/MeasuredSimulator.h"
#include "stencils/Benchmarks.h"
#include "support/ParallelFor.h"
#include "tuning/Tuner.h"

#include <cstdio>
#include <cstdlib>
#include <cstring>

using namespace an5d;

int main(int argc, char **argv) {
  std::string Name = argc > 1 ? argv[1] : "star2d1r";
  bool UseP100 = argc > 2 && std::strcmp(argv[2], "p100") == 0;
  bool UseDouble = argc > 3 && std::strcmp(argv[3], "double") == 0;
  TuneOptions Tuning;
  Tuning.Threads = argc > 4 ? std::atoi(argv[4]) : 0;

  auto Program = makeBenchmarkStencil(
      Name, UseDouble ? ScalarType::Double : ScalarType::Float);
  if (!Program) {
    std::fprintf(stderr, "unknown benchmark '%s'; known names:\n",
                 Name.c_str());
    for (const std::string &N : benchmarkStencilNames())
      std::fprintf(stderr, "  %s\n", N.c_str());
    for (const std::string &N : extraStencilNames())
      std::fprintf(stderr, "  %s\n", N.c_str());
    return 1;
  }

  GpuSpec Spec = UseP100 ? GpuSpec::teslaP100() : GpuSpec::teslaV100();
  ProblemSize Problem = ProblemSize::paperDefault(Program->numDims());
  std::printf("%s on %s, %s, problem %s\n\n", Program->toString().c_str(),
              Spec.Name.c_str(),
              UseDouble ? "double" : "float",
              Problem.toString().c_str());

  Tuner T(Spec);
  auto Ranked = T.rankByModel(*Program, Problem, 5);
  std::printf("top-5 configurations by model (Section 6.3 flow):\n");
  for (std::size_t I = 0; I < Ranked.size(); ++I) {
    const RankedConfig &R = Ranked[I];
    std::printf("  #%zu %-28s %s\n", I + 1, R.Config.toString().c_str(),
                R.Model.toString().c_str());
    std::printf("      traffic/invocation: gmem %.1f MiB, smem %.1f MiB, "
                "redundant compute %.1f%%\n",
                static_cast<double>(censusGmemBytes(
                    R.Model.CensusPerInvocation, *Program)) /
                    (1 << 20),
                static_cast<double>(censusSmemBytes(
                    R.Model.CensusPerInvocation, *Program)) /
                    (1 << 20),
                100.0 *
                    static_cast<double>(
                        R.Model.CensusPerInvocation.redundantComputeOps(
                            Problem.cellCount() * R.Config.BT)) /
                    static_cast<double>(
                        R.Model.CensusPerInvocation.ComputeOps));
  }

  TuneOutcome Outcome = T.tune(*Program, Problem, Tuning);
  if (!Outcome.Feasible) {
    std::printf("\nno feasible configuration found\n");
    return 1;
  }
  std::printf("\nmeasured sweep: top-%zu x %zu register caps on %d "
              "thread(s)\n",
              Tuning.TopK, RegisterCapMenu.size(),
              resolveSweepThreads(Tuning.Threads));
  std::printf("\ntuned pick: %s\n  model %.0f GFLOP/s -> simulated "
              "measurement %.0f GFLOP/s (accuracy %.0f%%)\n",
              Outcome.Best.toString().c_str(),
              Outcome.BestMeasured.Model.Gflops,
              Outcome.BestMeasured.MeasuredGflops,
              100.0 * Outcome.BestMeasured.modelAccuracy());
  return 0;
}
