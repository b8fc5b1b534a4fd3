//===- CensusCrossCheckTest.cpp - Model census vs emulator counters ----------===//
//
// Part of the AN5D reproduction project, under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// The performance model's thread census (Section 5) and the blocked
/// executor are independent implementations of the same execution model.
/// These tests run one kernel invocation through the instrumented emulator
/// and demand that the analytic counts match the observed operation counts
/// *exactly* — global-memory reads, global-memory writes and stencil
/// evaluations — across shapes, degrees, block sizes and stream divisions.
///
//===----------------------------------------------------------------------===//

#include "model/ThreadCensus.h"
#include "sim/BlockedExecutor.h"
#include "sim/Grid.h"
#include "stencils/Benchmarks.h"

#include <gtest/gtest.h>

#include <climits>
#include <tuple>

using namespace an5d;

namespace {

/// Runs one invocation of degree Config.BT and returns the emulator's
/// counters.
BlockedExecStats runInstrumented(const StencilProgram &Program,
                                 const BlockConfig &Config,
                                 const ProblemSize &Problem) {
  Grid<float> In(Problem.Extents, Program.radius());
  Grid<float> Out(Problem.Extents, Program.radius());
  fillGridDeterministic(In, 3);
  copyGrid(In, Out);
  BlockedExecStats Stats;
  BlockedExecOptions Options;
  Options.Stats = &Stats;
  BlockedExecutor<float> Executor(Program, Config, Options);
  Executor.runKernelOnce(In, Out, Config.BT);
  return Stats;
}

} // namespace

using CrossParam = std::tuple<const char *, int, int, int>;

class CensusCrossCheck2d : public ::testing::TestWithParam<CrossParam> {};

TEST_P(CensusCrossCheck2d, EmulatorMatchesAnalyticCounts) {
  auto [Name, BT, BS, HS] = GetParam();
  auto Program = makeBenchmarkStencil(Name, ScalarType::Float);
  ASSERT_NE(Program, nullptr);
  BlockConfig Config;
  Config.BT = BT;
  Config.BS = {BS};
  Config.HS = HS;
  if (!Config.isFeasible(Program->radius(), INT_MAX))
    GTEST_SKIP() << "infeasible pairing in the sweep grid";
  ProblemSize Problem;
  Problem.Extents = {37, 29};
  Problem.TimeSteps = BT; // one invocation

  ThreadCensus Census = computeThreadCensus(*Program, Config, Problem);
  BlockedExecStats Stats = runInstrumented(*Program, Config, Problem);

  EXPECT_EQ(Stats.GmReadOps, Census.GmReadOps) << Config.toString();
  EXPECT_EQ(Stats.GmWriteOps, Census.GmWriteOps) << Config.toString();
  EXPECT_EQ(Stats.ComputeOps, Census.ComputeOps) << Config.toString();
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, CensusCrossCheck2d,
    ::testing::Combine(::testing::Values("star2d1r", "star2d2r", "box2d1r",
                                         "j2d9pt"),
                       ::testing::Values(1, 2, 4), ::testing::Values(28, 40),
                       ::testing::Values(0, 11, 16)));

using CrossParam3d = std::tuple<int, int>;

class CensusCrossCheck3d : public ::testing::TestWithParam<CrossParam3d> {};

TEST_P(CensusCrossCheck3d, EmulatorMatchesAnalyticCounts) {
  auto [BT, HS] = GetParam();
  auto Program = makeStarStencil(3, 1, ScalarType::Float);
  BlockConfig Config;
  Config.BT = BT;
  Config.BS = {2 * BT + 8, 2 * BT + 6};
  Config.HS = HS;
  ASSERT_TRUE(Config.isFeasible(Program->radius(), INT_MAX));
  ProblemSize Problem;
  Problem.Extents = {13, 12, 11};
  Problem.TimeSteps = BT;

  ThreadCensus Census = computeThreadCensus(*Program, Config, Problem);
  BlockedExecStats Stats = runInstrumented(*Program, Config, Problem);

  EXPECT_EQ(Stats.GmReadOps, Census.GmReadOps) << Config.toString();
  EXPECT_EQ(Stats.GmWriteOps, Census.GmWriteOps) << Config.toString();
  EXPECT_EQ(Stats.ComputeOps, Census.ComputeOps) << Config.toString();
}

INSTANTIATE_TEST_SUITE_P(Sweep, CensusCrossCheck3d,
                         ::testing::Combine(::testing::Values(1, 2, 3),
                                            ::testing::Values(0, 5, 7)));

TEST(CensusCrossCheck, BoxStencil3d) {
  auto Program = makeBoxStencil(3, 1, ScalarType::Float);
  BlockConfig Config;
  Config.BT = 2;
  Config.BS = {12, 10};
  Config.HS = 6;
  ProblemSize Problem;
  Problem.Extents = {15, 11, 13};
  Problem.TimeSteps = 2;
  ThreadCensus Census = computeThreadCensus(*Program, Config, Problem);
  BlockedExecStats Stats = runInstrumented(*Program, Config, Problem);
  EXPECT_EQ(Stats.GmReadOps, Census.GmReadOps);
  EXPECT_EQ(Stats.GmWriteOps, Census.GmWriteOps);
  EXPECT_EQ(Stats.ComputeOps, Census.ComputeOps);
}

TEST(CensusCrossCheck, FourthOrderStencil) {
  auto Program = makeStarStencil(2, 4, ScalarType::Float);
  BlockConfig Config;
  Config.BT = 2;
  Config.BS = {40};
  Config.HS = 9;
  ProblemSize Problem;
  Problem.Extents = {23, 21};
  Problem.TimeSteps = 2;
  ThreadCensus Census = computeThreadCensus(*Program, Config, Problem);
  BlockedExecStats Stats = runInstrumented(*Program, Config, Problem);
  EXPECT_EQ(Stats.GmReadOps, Census.GmReadOps);
  EXPECT_EQ(Stats.GmWriteOps, Census.GmWriteOps);
  EXPECT_EQ(Stats.ComputeOps, Census.ComputeOps);
}
