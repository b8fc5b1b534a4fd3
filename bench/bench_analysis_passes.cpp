//===- bench_analysis_passes.cpp - Static analysis pipeline cost --------------===//
//
// Part of the AN5D reproduction project, under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// Google-benchmark timings of the static analysis pipeline
/// (analysis/passes/): one full standardPipeline() run over a lowered
/// schedule, and the tuner-gate workload — analyzing every enumerated
/// feasible configuration of a stencil, the exact set the pre-JIT gate
/// walks on each tune. The per-candidate cost bounds how much static
/// checking a tuning session can afford before it starts competing with
/// the measured sweep itself; tools/bench_emulator.sh dumps the results
/// to BENCH_analysis.json to track the trajectory PR over PR.
///
/// Lowering is done in setup (it is the scheduler's cost, benched
/// elsewhere); the timed region is analysis only. Every analyzed
/// schedule must come back clean — a non-zero error count aborts the
/// bench rather than recording the cost of a broken pipeline.
///
//===----------------------------------------------------------------------===//

#include "analysis/passes/AnalysisPass.h"
#include "schedule/ScheduleIR.h"
#include "stencils/Benchmarks.h"
#include "tuning/Tuner.h"

#include <benchmark/benchmark.h>

#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <vector>

using namespace an5d;

namespace {

/// Pre-lowered analysis workload for one stencil: the program plus every
/// feasible enumerated schedule (what the tuner's pre-JIT gate walks).
struct Workload {
  std::unique_ptr<StencilProgram> Program;
  std::vector<ScheduleIR> Schedules;
};

Workload makeWorkload(const std::string &Name) {
  Workload W;
  W.Program = makeBenchmarkStencil(Name, ScalarType::Float);
  Tuner T(GpuSpec::teslaV100());
  for (const BlockConfig &Config : T.enumerateConfigs(*W.Program)) {
    if (!Config.isFeasible(W.Program->radius(),
                           GpuSpec::teslaV100().MaxThreadsPerBlock))
      continue;
    W.Schedules.push_back(lowerSchedule(*W.Program, Config));
  }
  if (W.Schedules.empty()) {
    std::fprintf(stderr, "bench_analysis_passes: no feasible config for %s\n",
                 Name.c_str());
    std::abort();
  }
  return W;
}

void requireClean(const AnalysisReport &Report, const std::string &Name) {
  if (Report.errorCount() == 0)
    return;
  std::fprintf(stderr, "bench_analysis_passes: %s analyzed dirty:\n%s\n",
               Name.c_str(), Report.toString().c_str());
  std::abort();
}

/// One standardPipeline() run over the stencil's first feasible schedule:
/// the an5dc --analyze hot path.
void runPipelineBench(benchmark::State &State, const std::string &Name) {
  Workload W = makeWorkload(Name);
  AnalysisPassManager Manager = AnalysisPassManager::standardPipeline();
  AnalysisInput Input;
  Input.Program = W.Program.get();
  Input.Schedule = &W.Schedules.front();

  std::size_t Findings = 0;
  for (auto _ : State) {
    AnalysisReport Report = Manager.run(Input);
    requireClean(Report, Name);
    Findings = Report.Findings.size();
    benchmark::DoNotOptimize(Report.Findings.data());
  }

  State.SetItemsProcessed(State.iterations());
  State.counters["findings"] =
      benchmark::Counter(static_cast<double>(Findings));
}

/// The tuner-gate workload: every enumerated feasible configuration of
/// the stencil analyzed back to back. items/s is candidates per second.
void runSweepGateBench(benchmark::State &State, const std::string &Name) {
  Workload W = makeWorkload(Name);
  AnalysisPassManager Manager = AnalysisPassManager::standardPipeline();

  for (auto _ : State) {
    for (const ScheduleIR &IR : W.Schedules) {
      AnalysisInput Input;
      Input.Program = W.Program.get();
      Input.Schedule = &IR;
      AnalysisReport Report = Manager.run(Input);
      requireClean(Report, Name);
      benchmark::DoNotOptimize(Report.Findings.data());
    }
  }

  State.SetItemsProcessed(State.iterations() *
                          static_cast<long long>(W.Schedules.size()));
  State.counters["candidates"] =
      benchmark::Counter(static_cast<double>(W.Schedules.size()));
}

void registerBenches() {
  // One stencil per shape class: 1D streaming, 2D star/box/Jacobi, 3D
  // star — the same roster the tuner-throughput bench samples.
  static const char *Names[] = {"star1d1r", "star2d1r", "box2d2r", "j2d5pt",
                                "star3d2r"};
  for (const char *Name : Names) {
    benchmark::RegisterBenchmark(
        ("BM_AnalysisPipeline/" + std::string(Name)).c_str(),
        [Name](benchmark::State &State) { runPipelineBench(State, Name); })
        ->Unit(benchmark::kMicrosecond);
    benchmark::RegisterBenchmark(
        ("BM_AnalysisSweepGate/" + std::string(Name)).c_str(),
        [Name](benchmark::State &State) { runSweepGateBench(State, Name); })
        ->Unit(benchmark::kMillisecond);
  }
}

} // namespace

int main(int argc, char **argv) {
  registerBenches();
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv))
    return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
