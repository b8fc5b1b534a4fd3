//===- bench_tuner_throughput.cpp - Measured-sweep scaling --------------------===//
//
// Part of the AN5D reproduction project, under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// Google-benchmark timings of the tuner's simulated measured sweep
/// (parallelMeasuredSweep, tuning/Tuner.h) at 1/2/4/8 worker threads, over
/// the Table 3 2D benchmarks plus the 1D streaming path. Each sweep covers
/// the stencil's whole model-ranked grid (not just the tuner's top-K) x
/// RegisterCapMenu at the paper's problem size, so these numbers bound how
/// much of the search space one tuning session can afford.
///
/// The serial stage is timed once up front (best of 3) and every parallel
/// case reports the live ratio as the "sweep_speedup_x" counter; the
/// candidate count rides along as "candidates". tools/bench_emulator.sh
/// dumps the results to BENCH_tuner.json to track the trajectory PR over
/// PR. The sweep result itself is bit-identical for every thread count
/// (tests/ParallelSweepTest.cpp enforces this); only wall-clock changes.
///
//===----------------------------------------------------------------------===//

#include "stencils/Benchmarks.h"
#include "tuning/Tuner.h"

#include <benchmark/benchmark.h>

#include <chrono>
#include <limits>
#include <map>
#include <memory>
#include <string>

using namespace an5d;

namespace {

/// Every model-ranked configuration of the grid x RegisterCapMenu.
std::vector<BlockConfig> fullGridConfigs(const StencilProgram &Program,
                                         const Tuner &T,
                                         const ProblemSize &Problem) {
  std::vector<BlockConfig> Configs;
  for (const RankedConfig &Ranked : T.rankByModel(
           Program, Problem, std::numeric_limits<std::size_t>::max()))
    for (int Cap : RegisterCapMenu) {
      Configs.push_back(Ranked.Config);
      Configs.back().RegisterCap = Cap;
    }
  return Configs;
}

/// Best-of-3 wall time of one serial sweep, for the speedup counter.
double timeSerialSweepNs(const StencilProgram &Program, const GpuSpec &Spec,
                         const std::vector<BlockConfig> &Configs,
                         const ProblemSize &Problem) {
  double Best = 0;
  for (int Rep = 0; Rep < 3; ++Rep) {
    auto Start = std::chrono::steady_clock::now();
    auto Results =
        parallelMeasuredSweep(Program, Spec, Configs, Problem, 1);
    benchmark::DoNotOptimize(Results.data());
    double Ns = static_cast<double>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now() - Start)
            .count());
    if (Rep == 0 || Ns < Best)
      Best = Ns;
  }
  return Best;
}

void runSweepBench(benchmark::State &State, const std::string &Name) {
  int Threads = static_cast<int>(State.range(0));
  auto Program = makeBenchmarkStencil(Name, ScalarType::Float);
  GpuSpec Spec = GpuSpec::teslaV100();
  Tuner T(Spec);
  ProblemSize Problem = ProblemSize::paperDefault(Program->numDims());
  std::vector<BlockConfig> Configs = fullGridConfigs(*Program, T, Problem);

  // The serial baseline is identical for every thread-count case of one
  // stencil; time it once and share it across the Args (benchmark cases
  // run sequentially, so the cache needs no locking).
  static std::map<std::string, double> SerialNsByName;
  auto Cached = SerialNsByName.find(Name);
  if (Cached == SerialNsByName.end())
    Cached = SerialNsByName
                 .emplace(Name, timeSerialSweepNs(*Program, Spec, Configs,
                                                  Problem))
                 .first;
  double SerialNs = Cached->second;

  double SweepNs = 0;
  for (auto _ : State) {
    auto Start = std::chrono::steady_clock::now();
    auto Results =
        parallelMeasuredSweep(*Program, Spec, Configs, Problem, Threads);
    auto End = std::chrono::steady_clock::now();
    SweepNs += std::chrono::duration<double, std::nano>(End - Start).count();
    benchmark::DoNotOptimize(Results.data());
  }

  State.SetItemsProcessed(State.iterations() *
                          static_cast<long long>(Configs.size()));
  State.counters["candidates"] =
      benchmark::Counter(static_cast<double>(Configs.size()));
  State.counters["threads"] =
      benchmark::Counter(static_cast<double>(Threads));
  State.counters["serial_ms"] = benchmark::Counter(SerialNs / 1e6);
  State.counters["sweep_speedup_x"] =
      SweepNs > 0
          ? SerialNs * static_cast<double>(State.iterations()) / SweepNs
          : 0;
}

void registerBenches() {
  // Table 3's 2D rows (a star, a box, the Fig. 4 Jacobi and the
  // non-associative gradient) plus the fixed 1D streaming path.
  static const char *Names[] = {"star2d1r", "box2d2r", "j2d5pt",
                                "gradient2d", "star1d1r"};
  for (const char *Name : Names) {
    auto *Bench = benchmark::RegisterBenchmark(
        ("BM_MeasuredSweep/" + std::string(Name)).c_str(),
        [Name](benchmark::State &State) { runSweepBench(State, Name); });
    Bench->Arg(1)->Arg(2)->Arg(4)->Arg(8)->UseRealTime()
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
