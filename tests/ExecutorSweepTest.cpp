//===- ExecutorSweepTest.cpp - Property sweeps over the blocked executor -----===//
//
// Part of the AN5D reproduction project, under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// Parameterized property sweeps: blocked == reference (bitwise) across the
/// cross product of stencil shape, temporal degree, block size, stream
/// division and grid alignment. Grids are intentionally chosen so that
/// block/chunk boundaries land both aligned and unaligned.
///
//===----------------------------------------------------------------------===//

#include "sim/BlockedExecutor.h"
#include "sim/Grid.h"
#include "sim/ReferenceExecutor.h"
#include "stencils/Benchmarks.h"

#include "ExtentSweepCases.h"

#include <gtest/gtest.h>

#include <climits>
#include <tuple>

using namespace an5d;

namespace {

template <typename T>
bool blockedMatchesReference(const StencilProgram &Program,
                             const BlockConfig &Config,
                             std::vector<long long> Extents,
                             long long TimeSteps, bool Poison) {
  int Halo = Program.radius();
  Grid<T> Ref0(Extents, Halo), Ref1(Extents, Halo);
  fillGridDeterministic(Ref0, 99);
  copyGrid(Ref0, Ref1);
  Grid<T> Blk0 = Ref0, Blk1 = Ref0;

  referenceRun<T>(Program, {&Ref0, &Ref1}, TimeSteps);
  BlockedExecOptions Options;
  Options.PoisonHalos = Poison;
  blockedRun<T>(Program, Config, {&Blk0, &Blk1}, TimeSteps, Options);

  const Grid<T> &Want = TimeSteps % 2 == 0 ? Ref0 : Ref1;
  const Grid<T> &Got = TimeSteps % 2 == 0 ? Blk0 : Blk1;
  return Want.raw() == Got.raw() && !interiorHasNaN(Got);
}

} // namespace

//===----------------------------------------------------------------------===//
// 2D sweep: (stencil name, bT, bS, hS)
//===----------------------------------------------------------------------===//

using Sweep2dParam = std::tuple<const char *, int, int, int>;

class BlockedSweep2d : public ::testing::TestWithParam<Sweep2dParam> {};

TEST_P(BlockedSweep2d, MatchesReference) {
  auto [Name, BT, BS, HS] = GetParam();
  auto Program = makeBenchmarkStencil(Name, ScalarType::Float);
  ASSERT_NE(Program, nullptr);
  BlockConfig Config;
  Config.BT = BT;
  Config.BS = {BS};
  Config.HS = HS;
  if (!Config.isFeasible(Program->radius(), INT_MAX))
    GTEST_SKIP() << "infeasible pairing in the sweep grid";
  // 41 x 35: prime-ish extents so nothing divides evenly.
  EXPECT_TRUE(blockedMatchesReference<float>(*Program, Config, {41, 35},
                                             /*TimeSteps=*/11,
                                             /*Poison=*/false))
      << Name << " " << Config.toString();
}

INSTANTIATE_TEST_SUITE_P(
    ShapesAndDegrees, BlockedSweep2d,
    ::testing::Combine(
        ::testing::Values("star2d1r", "star2d2r", "box2d1r", "j2d5pt",
                          "j2d9pt-gol", "gradient2d"),
        ::testing::Values(1, 2, 3, 5), ::testing::Values(24, 40),
        ::testing::Values(0, 13)));

//===----------------------------------------------------------------------===//
// 2D high-order/high-degree sweep with halo poisoning
//===----------------------------------------------------------------------===//

using PoisonParam = std::tuple<const char *, int>;

class PoisonSweep2d : public ::testing::TestWithParam<PoisonParam> {};

TEST_P(PoisonSweep2d, PoisonNeverReachesValidCells) {
  auto [Name, BT] = GetParam();
  auto Program = makeBenchmarkStencil(Name, ScalarType::Float);
  ASSERT_NE(Program, nullptr);
  BlockConfig Config;
  Config.BT = BT;
  Config.BS = {Program->radius() * 2 * BT + 8};
  Config.HS = 9;
  ASSERT_TRUE(Config.isFeasible(Program->radius(), INT_MAX));
  EXPECT_TRUE(blockedMatchesReference<float>(*Program, Config, {23, 19},
                                             /*TimeSteps=*/7,
                                             /*Poison=*/true))
      << Name << " bT=" << BT;
}

INSTANTIATE_TEST_SUITE_P(
    Degrees, PoisonSweep2d,
    ::testing::Combine(::testing::Values("star2d1r", "star2d3r", "box2d2r",
                                         "j2d9pt"),
                       ::testing::Values(1, 2, 4)));

//===----------------------------------------------------------------------===//
// 3D sweep
//===----------------------------------------------------------------------===//

using Sweep3dParam = std::tuple<const char *, int, int>;

class BlockedSweep3d : public ::testing::TestWithParam<Sweep3dParam> {};

TEST_P(BlockedSweep3d, MatchesReference) {
  auto [Name, BT, HS] = GetParam();
  auto Program = makeBenchmarkStencil(Name, ScalarType::Float);
  ASSERT_NE(Program, nullptr);
  BlockConfig Config;
  Config.BT = BT;
  int Span = Program->radius() * 2 * BT + 6;
  Config.BS = {Span, Span + 2};
  Config.HS = HS;
  ASSERT_TRUE(Config.isFeasible(Program->radius(), INT_MAX));
  EXPECT_TRUE(blockedMatchesReference<float>(*Program, Config, {13, 12, 11},
                                             /*TimeSteps=*/5,
                                             /*Poison=*/false))
      << Name << " " << Config.toString();
}

INSTANTIATE_TEST_SUITE_P(
    ShapesAndDegrees, BlockedSweep3d,
    ::testing::Combine(::testing::Values("star3d1r", "star3d2r", "box3d1r",
                                         "j3d27pt"),
                       ::testing::Values(1, 2, 3), ::testing::Values(0, 5)));

//===----------------------------------------------------------------------===//
// Double-precision spot sweep
//===----------------------------------------------------------------------===//

class DoubleSweep : public ::testing::TestWithParam<const char *> {};

TEST_P(DoubleSweep, MatchesReference) {
  auto Program = makeBenchmarkStencil(GetParam(), ScalarType::Double);
  ASSERT_NE(Program, nullptr);
  BlockConfig Config;
  Config.BT = 3;
  Config.BS = Program->numDims() == 2
                  ? std::vector<int>{Program->radius() * 6 + 10}
                  : std::vector<int>{Program->radius() * 6 + 8,
                                     Program->radius() * 6 + 8};
  Config.HS = 8;
  ASSERT_TRUE(Config.isFeasible(Program->radius(), INT_MAX));
  std::vector<long long> Extents =
      Program->numDims() == 2 ? std::vector<long long>{21, 18}
                              : std::vector<long long>{11, 10, 9};
  EXPECT_TRUE(blockedMatchesReference<double>(*Program, Config, Extents,
                                              /*TimeSteps=*/6,
                                              /*Poison=*/false))
      << GetParam();
}

INSTANTIATE_TEST_SUITE_P(Benchmarks, DoubleSweep,
                         ::testing::Values("j2d5pt", "j2d9pt", "gradient2d",
                                           "star3d1r", "box2d1r",
                                           "j3d27pt"));

//===----------------------------------------------------------------------===//
// Time-step parity sweep: every (IT, bT) combination small enough to run
//===----------------------------------------------------------------------===//

class ParitySweep : public ::testing::TestWithParam<int> {};

TEST_P(ParitySweep, AllTimeStepCounts) {
  int BT = GetParam();
  auto Program = makeJacobi2d5pt(ScalarType::Float);
  BlockConfig Config;
  Config.BT = BT;
  Config.BS = {2 * BT + 10};
  for (long long IT = 0; IT <= 9; ++IT) {
    EXPECT_TRUE(blockedMatchesReference<float>(*Program, Config, {17, 15},
                                               IT, /*Poison=*/false))
        << "IT=" << IT << " bT=" << BT;
  }
}

INSTANTIATE_TEST_SUITE_P(Degrees, ParitySweep,
                         ::testing::Values(1, 2, 3, 4, 5));

//===----------------------------------------------------------------------===//
// Awkward extents with poisoned rings and halos
//===----------------------------------------------------------------------===//

// The native kernel's awkward-extent cases (ExtentSweepCases.h), run
// through the emulator with PoisonHalos on: a ring cell no tier wrote or
// a carried halo value that fed a valid cell would leave NaN behind.
class EmulatorExtentSweep : public ::testing::TestWithParam<int> {};

template <typename T> void sweepEmulatorExtents(int NumDims) {
  const ExtentSweepCase Case = extentSweepCase(NumDims);
  auto Program = makeBenchmarkStencil(Case.Name, Case.Type);
  ASSERT_NE(Program, nullptr);
  for (std::size_t I = 0; I < Case.AxisExtents.size(); ++I)
    for (long long Steps : ExtentSweepSteps) {
      std::vector<long long> Extents = Case.extents(I, NumDims);
      EXPECT_TRUE(blockedMatchesReference<T>(*Program, Case.Config, Extents,
                                             Steps, /*Poison=*/true))
          << Case.Name << " extent run " << I << " x " << Steps << " steps";
    }
}

TEST_P(EmulatorExtentSweep, PoisonedMatchesReferenceAtAwkwardExtents) {
  if (extentSweepCase(GetParam()).Type == ScalarType::Double)
    sweepEmulatorExtents<double>(GetParam());
  else
    sweepEmulatorExtents<float>(GetParam());
}

INSTANTIATE_TEST_SUITE_P(Dims, EmulatorExtentSweep,
                         ::testing::Values(1, 2, 3));
