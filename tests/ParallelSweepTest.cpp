//===- ParallelSweepTest.cpp - Worker pool and simulated-sweep determinism -===//
//
// Part of the AN5D reproduction project, under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "support/ParallelFor.h"

#include "stencils/Benchmarks.h"
#include "tuning/Tuner.h"

#include <gtest/gtest.h>

#include <atomic>
#include <limits>
#include <stdexcept>

using namespace an5d;

namespace {

/// Every model-ranked configuration of the grid (no top-K cut) x
/// RegisterCapMenu — the full-grid workload shared with
/// bench_tuner_throughput.
std::vector<BlockConfig> allConfigs(const StencilProgram &Program,
                                    const GpuSpec &Spec,
                                    const ProblemSize &Problem) {
  std::vector<BlockConfig> Configs;
  for (const RankedConfig &Ranked : Tuner(Spec).rankByModel(
           Program, Problem, std::numeric_limits<std::size_t>::max()))
    for (int Cap : RegisterCapMenu) {
      Configs.push_back(Ranked.Config);
      Configs.back().RegisterCap = Cap;
    }
  return Configs;
}

/// How often parallelFor called its body for each index of [0, Count).
std::vector<int> visitCounts(std::size_t Count, int Threads) {
  std::vector<std::atomic<int>> Visits(Count);
  parallelFor(Count, Threads, [&](std::size_t I) {
    Visits[I].fetch_add(1, std::memory_order_relaxed);
  });
  std::vector<int> Out;
  for (const std::atomic<int> &V : Visits)
    Out.push_back(V.load());
  return Out;
}

} // namespace

TEST(ParallelFor, EmptyRangeNeverCallsTheBody) {
  for (int Threads : {0, 1, 4}) {
    bool Called = false;
    parallelFor(0, Threads, [&](std::size_t) { Called = true; });
    EXPECT_FALSE(Called) << Threads << " threads";
  }
}

TEST(ParallelFor, MoreThreadsThanItemsVisitsEachItemOnce) {
  EXPECT_EQ(visitCounts(3, 64), std::vector<int>(3, 1));
  EXPECT_EQ(visitCounts(1, 8), std::vector<int>(1, 1));
}

TEST(ParallelFor, EveryIndexVisitedExactlyOnce) {
  for (int Threads : {1, 3, 8})
    EXPECT_EQ(visitCounts(1000, Threads), std::vector<int>(1000, 1))
        << Threads << " threads";
}

TEST(ParallelFor, BodyExceptionReachesTheCallerAfterJoin) {
  for (int Threads : {1, 4}) {
    std::atomic<int> Calls{0};
    EXPECT_THROW(parallelFor(100, Threads,
                             [&](std::size_t I) {
                               Calls.fetch_add(1);
                               if (I == 7)
                                 throw std::runtime_error("item 7");
                             }),
                 std::runtime_error)
        << Threads << " threads";
    EXPECT_GE(Calls.load(), 8) << "items before the throwing one ran";
    EXPECT_LE(Calls.load(), 100);
  }
}

TEST(ParallelSweep, EmptyCandidateListYieldsEmptyResults) {
  auto P = makeStarStencil(2, 1, ScalarType::Float);
  EXPECT_TRUE(parallelMeasuredSweep(*P, GpuSpec::teslaV100(), {},
                                    ProblemSize::paperDefault(2), 4)
                  .empty());
}

TEST(ParallelSweep, ThreadCountResolution) {
  EXPECT_EQ(resolveSweepThreads(1), 1);
  EXPECT_EQ(resolveSweepThreads(5), 5);
  EXPECT_EQ(resolveSweepThreads(12), 12) << "explicit counts pass through";
  int Auto = resolveSweepThreads(0);
  EXPECT_GE(Auto, 1);
  EXPECT_LE(Auto, 8) << "auto caps the pool at 8 workers";
}

TEST(ParallelSweep, ResultsBitIdenticalAcrossThreadCounts) {
  GpuSpec Spec = GpuSpec::teslaV100();
  for (const char *Name : {"star2d1r", "star1d1r", "j3d27pt"}) {
    auto P = makeBenchmarkStencil(Name, ScalarType::Float);
    ProblemSize Paper = ProblemSize::paperDefault(P->numDims());
    ProblemSize Small = Paper;
    for (long long &E : Small.Extents)
      E /= 4;
    for (const ProblemSize &Problem : {Paper, Small}) {
      std::vector<BlockConfig> Configs = allConfigs(*P, Spec, Problem);
      ASSERT_FALSE(Configs.empty()) << Name;

      std::vector<MeasuredResult> Serial =
          parallelMeasuredSweep(*P, Spec, Configs, Problem, 1);
      for (int Threads : {2, 3, 8}) {
        std::vector<MeasuredResult> Parallel =
            parallelMeasuredSweep(*P, Spec, Configs, Problem, Threads);
        ASSERT_EQ(Parallel.size(), Serial.size()) << Name;
        for (std::size_t I = 0; I < Serial.size(); ++I) {
          EXPECT_EQ(Parallel[I].Feasible, Serial[I].Feasible)
              << Name << " item " << I;
          EXPECT_EQ(Parallel[I].MeasuredGflops, Serial[I].MeasuredGflops)
              << Name << " item " << I << ": bitwise equality expected";
          EXPECT_EQ(Parallel[I].MeasuredTimeSeconds,
                    Serial[I].MeasuredTimeSeconds)
              << Name << " item " << I;
          EXPECT_EQ(Parallel[I].Model.Gflops, Serial[I].Model.Gflops)
              << Name << " item " << I;
        }
      }
    }
  }
}

TEST(ParallelSweep, MoreThreadsThanCandidatesIsSafe) {
  GpuSpec Spec = GpuSpec::teslaV100();
  auto P = makeStarStencil(2, 1, ScalarType::Float);
  ProblemSize Problem = ProblemSize::paperDefault(2);
  // The model's top three, uncapped: three items that all measure.
  std::vector<BlockConfig> Configs;
  for (const RankedConfig &Ranked : Tuner(Spec).rankByModel(*P, Problem, 3))
    Configs.push_back(Ranked.Config);
  ASSERT_EQ(Configs.size(), 3u);
  std::vector<MeasuredResult> Results =
      parallelMeasuredSweep(*P, Spec, Configs, Problem, 64);
  ASSERT_EQ(Results.size(), 3u);
  for (const MeasuredResult &R : Results)
    EXPECT_TRUE(R.Feasible);
}

TEST(ParallelSweep, MatchesDirectSimulateMeasured) {
  GpuSpec Spec = GpuSpec::teslaV100();
  auto P = makeJacobi2d5pt(ScalarType::Double);
  ProblemSize Problem = ProblemSize::paperDefault(2);
  std::vector<BlockConfig> Configs = allConfigs(*P, Spec, Problem);
  ASSERT_FALSE(Configs.empty());
  std::vector<MeasuredResult> Results =
      parallelMeasuredSweep(*P, Spec, Configs, Problem, 4);
  for (std::size_t I = 0; I < Configs.size(); I += 17) {
    MeasuredResult Direct = simulateMeasured(*P, Spec, Configs[I], Problem);
    EXPECT_EQ(Results[I].Feasible, Direct.Feasible) << I;
    EXPECT_EQ(Results[I].MeasuredGflops, Direct.MeasuredGflops) << I;
  }
}
