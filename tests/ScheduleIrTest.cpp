//===- ScheduleIrTest.cpp - Lowering and render-equivalence of ScheduleIR ----===//
//
// Part of the AN5D reproduction project, under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The schedule IR's contract with the rest of the system:
///
///  1. The IR's derived fields encode the paper's schedule (ring depth
///     2*rad+1, tier stream lag T*rad, shrinking reach, hS chunking, the
///     1D PinBoundaryOnly / >=2D CarryPreviousTier halo policies). That
///     lowering is total and that the gate accepts it exactly when
///     BlockConfig::isFeasible does is property-tested over every
///     enumerated configuration in AnalysisPassTest.cpp.
///  2. The lane-segment rule (blockSpan / tierLanes / tierPlanes) sorts
///     every lane of a block span exactly as the schedule needs: checked
///     lane by lane against the grid coordinates at awkward extents.
///  3. Render equivalence: the backends are pure renderers — feeding the
///     lowered IR into CppCodegen/CudaCodegen reproduces the checked-in
///     goldens byte for byte.
///
//===----------------------------------------------------------------------===//

#include "analysis/ScheduleVerifier.h"
#include "codegen/CppCodegen.h"
#include "codegen/CudaCodegen.h"
#include "schedule/ScheduleIR.h"
#include "stencils/Benchmarks.h"
#include "support/Support.h"

#include <gtest/gtest.h>

#include <fstream>
#include <sstream>

using namespace an5d;

namespace {

std::string readGolden(const std::string &FileName) {
  std::ifstream In(std::string(AN5D_GOLDEN_DIR) + "/" + FileName);
  EXPECT_TRUE(In.good()) << "missing golden file " << FileName;
  std::stringstream Buffer;
  Buffer << In.rdbuf();
  return Buffer.str();
}

} // namespace

//===----------------------------------------------------------------------===//
// Lowering: the IR's derived fields
//===----------------------------------------------------------------------===//

TEST(ScheduleIrLowering, SharedInvariantsMatchEveryInvocation) {
  auto Program = makeBenchmarkStencil("j2d9pt", ScalarType::Float);
  BlockConfig Config;
  Config.BT = 4;
  Config.BS = {128};
  Config.HS = 256;
  ScheduleIR IR = lowerSchedule(*Program, Config);
  EXPECT_EQ(IR.RingDepth, 2 * IR.Radius + 1);
  EXPECT_EQ(IR.GridHalo, IR.Radius);
  EXPECT_EQ(IR.HaloPolicy, ScheduleHaloPolicy::CarryPreviousTier);
  for (int Degree = 1; Degree <= Config.BT; ++Degree) {
    const InvocationSchedule &Inv = IR.at(Degree);
    EXPECT_EQ(Inv.Degree, Degree);
    EXPECT_EQ(Inv.RingDepth, IR.RingDepth);
    EXPECT_EQ(Inv.GridHalo, IR.GridHalo);
    EXPECT_EQ(Inv.HaloPolicy, IR.HaloPolicy);
    EXPECT_EQ(Inv.LoadSpanHalo, Degree * IR.Radius);
    EXPECT_EQ(Inv.LoadStreamReach, Degree * IR.Radius);
    ASSERT_EQ(static_cast<int>(Inv.Tiers.size()), Degree);
    for (const TierSchedule &Tier : Inv.Tiers) {
      EXPECT_EQ(Tier.StreamLag, Tier.Tier * IR.Radius);
      EXPECT_EQ(Tier.Reach, (Degree - Tier.Tier) * IR.Radius);
    }
    // Worksharing: blocks stride by exactly what they store (gap-free,
    // overlap-free by construction).
    EXPECT_EQ(Inv.BlockStride, Inv.StoreWidth);
    EXPECT_EQ(Inv.ChunkLength, Config.HS);
    EXPECT_EQ(Inv.ChunkStride, Config.HS);
  }
  EXPECT_EQ(&IR.full(), &IR.at(Config.BT));
}

TEST(ScheduleIrLowering, OneDStreamingLowersWithoutSpatialHalo) {
  auto Program = makeBenchmarkStencil("star1d2r", ScalarType::Float);
  BlockConfig Config;
  Config.BT = 3;
  Config.BS.clear(); // pure streaming
  Config.HS = 64;
  ScheduleIR IR = lowerSchedule(*Program, Config);
  EXPECT_EQ(IR.HaloPolicy, ScheduleHaloPolicy::PinBoundaryOnly);
  const InvocationSchedule &Full = IR.full();
  EXPECT_TRUE(Full.BS.empty());
  EXPECT_TRUE(Full.ComputeWidth.empty());
  EXPECT_TRUE(Full.BlockStride.empty());
  EXPECT_EQ(Full.ChunkLength, 64);
  EXPECT_EQ(Full.LoadStreamReach, 3 * 2);
  EXPECT_TRUE(verifyScheduleIR(IR).proven());
}

//===----------------------------------------------------------------------===//
// The lane-segment rule
//===----------------------------------------------------------------------===//

namespace {

/// Checks the spans and tier windows of one blocked axis of one block, in
/// the chunk [ChunkLo, ChunkHi) of a StreamExtent-long stream, against
/// the grid coordinate of every lane.
void checkAxis(const InvocationSchedule &Inv, int Axis, long long Origin,
               long long Extent, long long ChunkLo, long long ChunkHi,
               long long StreamExtent, const std::string &Where) {
  const long long Rad = Inv.Radius, Halo = Inv.GridHalo;
  const BlockSpan S = blockSpan(Inv, Axis, Origin, Extent);
  SCOPED_TRACE(Where + " axis " + std::to_string(Axis) + " origin " +
               std::to_string(Origin) + " extent " + std::to_string(Extent) +
               " chunk [" + std::to_string(ChunkLo) + ", " +
               std::to_string(ChunkHi) + ")");
  // The cut span starts inside the padded grid and ends where the loaded
  // span ends; the lane classes follow from each lane's coordinate.
  ASSERT_GE(S.Lo, -Halo);
  ASSERT_EQ(S.Lo + S.N, Origin - Inv.LoadSpanHalo + Inv.BS[Axis]);
  for (long long L = 0; L < S.N; ++L) {
    const long long X = S.Lo + L;
    EXPECT_EQ(L >= S.I0 && L < S.I1, X >= 0 && X < Extent) << "lane " << L;
    EXPECT_EQ(L < S.E1, X < Extent + Halo) << "lane " << L;
  }

  std::vector<PlaneWindow> Pl;
  std::vector<LaneRange> V;
  for (int T = 0; T <= Inv.Degree; ++T) {
    Pl.push_back(tierPlanes(Inv, T, ChunkLo, ChunkHi, StreamExtent));
    V.push_back(tierLanes(Inv, T, S));
  }
  for (int T = 1; T <= Inv.Degree; ++T) {
    const auto Ti = static_cast<std::size_t>(T);
    const LaneRange &Tv = V[Ti], &Pv = V[Ti - 1];
    const PlaneWindow &Tp = Pl[Ti], &Pp = Pl[Ti - 1];
    // 0 <= I0 <= V0 <= V1 <= I1 <= E1 <= N.
    EXPECT_LE(0, S.I0);
    EXPECT_LE(S.I0, Tv.V0) << "tier " << T;
    EXPECT_LE(Tv.V0, Tv.V1) << "tier " << T;
    EXPECT_LE(Tv.V1, S.I1) << "tier " << T;
    EXPECT_LE(S.I1, S.E1);
    EXPECT_LE(S.E1, S.N);
    // Every tap of a valid lane reads an existing lane the producer holds
    // at the current step: one it evaluated, a pinned boundary lane, or
    // (tier 1) any loaded lane.
    for (long long L = Tv.V0; L < Tv.V1; ++L)
      for (long long K = -Rad; K <= Rad; ++K) {
        const long long R = L + K;
        const bool Exists = R >= 0 && R < S.E1;
        const bool Interior = R >= S.I0 && R < S.I1;
        const bool Produced = T == 1 || (R >= Pv.V0 && R < Pv.V1);
        EXPECT_TRUE(Exists && (Produced || !Interior))
            << "tier " << T << " lane " << L << " reads lane " << R;
      }
    // The same for planes: an interior plane's stream taps fall in the
    // producer's window.
    for (long long P = std::max(Tp.PLo, 0LL);
         P <= std::min(Tp.PHi, StreamExtent - 1); ++P)
      EXPECT_TRUE(P - Rad >= Pp.PLo && P + Rad <= Pp.PHi)
          << "tier " << T << " plane " << P;
  }

  // The final tier evaluates exactly what the block stores: the chunk's
  // own planes and the interior lanes of the compute region.
  const LaneRange &F = V.back();
  EXPECT_EQ(Pl.back().PLo, ChunkLo);
  EXPECT_EQ(Pl.back().PHi, ChunkHi - 1);
  for (long long L = 0; L < S.N; ++L) {
    const long long X = S.Lo + L;
    const bool Stored = X >= 0 && X < Extent && X >= Origin &&
                        X < Origin + Inv.ComputeWidth[Axis];
    EXPECT_EQ(L >= F.V0 && L < F.V1, Stored) << "final tier lane " << L;
  }
}

} // namespace

// Every 2D/3D builtin at every degree of bT=4, on the first, a middle and
// the last block of extents 1, 2, a prime, < bS and bS -+ 1, in the
// first, a middle and the last chunk.
TEST(ScheduleIrSegments, LaneClassesMatchTheGridAtAwkwardExtents) {
  for (const std::string &Name : benchmarkStencilNames()) {
    auto Program = makeBenchmarkStencil(Name, ScalarType::Float);
    ASSERT_NE(Program, nullptr) << Name;
    const int Rad = Program->radius();
    BlockConfig Config;
    Config.BT = 4;
    for (int A = 0; A + 1 < Program->numDims(); ++A)
      Config.BS.push_back(8 * Rad + 5 + 2 * A);
    Config.HS = 5;
    const ScheduleIR IR = lowerSchedule(*Program, Config);
    const long long StreamExtent = 17;
    for (const InvocationSchedule &Inv : IR.Invocations)
      for (int A = 0; A + 1 < Program->numDims(); ++A) {
        const auto Axis = static_cast<std::size_t>(A);
        const long long BS = Inv.BS[Axis], Stride = Inv.BlockStride[Axis];
        for (long long Extent : {1LL, 2LL, 13LL, BS - 3, BS - 1, BS + 1}) {
          const long long Blocks = ceilDiv(Extent, Stride);
          for (long long B : {0LL, Blocks / 2, Blocks - 1})
            for (long long ChunkLo : {0LL, 5LL, 15LL})
              checkAxis(Inv, A, B * Stride, Extent, ChunkLo,
                        std::min(ChunkLo + Inv.ChunkLength, StreamExtent),
                        StreamExtent,
                        Name + " degree " + std::to_string(Inv.Degree));
        }
      }
  }
}

// An axis the block does not cut is one interior lane, valid at every
// tier, whatever the tier's reach.
TEST(ScheduleIrSegments, UnblockedAxisIsOneValidLane) {
  auto Program = makeBenchmarkStencil("star3d2r", ScalarType::Float);
  ASSERT_NE(Program, nullptr);
  BlockConfig Config;
  Config.BT = 3;
  Config.BS = {24, 24};
  Config.HS = 5;
  const ScheduleIR IR = lowerSchedule(*Program, Config);
  const InvocationSchedule &Inv = IR.full();
  const BlockSpan S = unblockedSpan();
  EXPECT_EQ(S.Lo, 0);
  EXPECT_EQ(S.N, 1);
  EXPECT_EQ(S.I0, 0);
  EXPECT_EQ(S.I1, 1);
  EXPECT_EQ(S.E1, 1);
  for (int T = 0; T <= Inv.Degree; ++T) {
    const LaneRange V = tierLanes(Inv, T, S);
    EXPECT_EQ(V.V0, 0) << "tier " << T;
    EXPECT_EQ(V.V1, 1) << "tier " << T;
  }
}

//===----------------------------------------------------------------------===//
// Render equivalence: backends are pure renderers of the one IR
//===----------------------------------------------------------------------===//

// Rendering the lowered IR reproduces the checked-in goldens byte for byte
// on both backends.
TEST(ScheduleIrRender, CppSourcesMatchGoldens) {
  auto P = makeJacobi2d5pt(ScalarType::Float);
  BlockConfig C;
  C.BT = 2;
  C.BS = {128};
  C.HS = 128;
  ScheduleIR IR = lowerSchedule(*P, C);
  EXPECT_EQ(generateCppKernelLibrary(*P, IR),
            readGolden("an5d_j2d5pt_omp.cpp.golden"));

  BlockConfig CheckConfig;
  CheckConfig.BT = 2;
  CheckConfig.BS = {32};
  CheckConfig.HS = 8;
  ProblemSize Problem;
  Problem.Extents = {40, 37};
  Problem.TimeSteps = 11;
  ScheduleIR CheckIr = lowerSchedule(*P, CheckConfig);
  EXPECT_EQ(generateCppCheckProgram(*P, CheckIr, Problem),
            readGolden("an5d_j2d5pt_check.cpp.golden"));
}

TEST(ScheduleIrRender, CudaSourcesMatchGoldens) {
  auto P = makeJacobi2d5pt(ScalarType::Float);
  BlockConfig C;
  C.BT = 2;
  C.BS = {128};
  C.HS = 128;
  ScheduleIR IR = lowerSchedule(*P, C);
  GeneratedCuda FromIr = generateCuda(*P, IR);
  EXPECT_EQ(FromIr.KernelSource, readGolden("an5d_j2d5pt_bt2.cu.golden"));
  EXPECT_EQ(FromIr.HostSource,
            readGolden("an5d_j2d5pt_bt2_host.cpp.golden"));
}

TEST(ScheduleIrRender, OneDCudaRendersFromTheStreamingIr) {
  auto P = makeBenchmarkStencil("star1d1r", ScalarType::Float);
  BlockConfig C;
  C.BT = 2;
  C.BS.clear();
  C.HS = 32;
  ScheduleIR IR = lowerSchedule(*P, C);
  EXPECT_EQ(generateCuda(*P, IR).KernelSource,
            readGolden("an5d_star1d1r_bt2.cu.golden"));
}

// Every 1D builtin renders through generateCuda — the acceptance test of
// closing the 1D CUDA hole (goldens pin the exact bytes in
// GoldenCudaTest; here the property is totality across configurations).
TEST(ScheduleIrRender, GenerateCudaAcceptsEvery1dBuiltin) {
  for (const char *Name :
       {"star1d1r", "star1d2r", "star1d3r", "star1d4r", "box1d1r",
        "box1d2r", "box1d3r", "box1d4r", "j1d3pt"}) {
    auto Program = makeBenchmarkStencil(Name, ScalarType::Float);
    ASSERT_NE(Program, nullptr) << Name;
    ASSERT_EQ(Program->numDims(), 1) << Name;
    for (int BT : {1, 2, 4}) {
      for (int HS : {0, 32}) {
        BlockConfig C;
        C.BT = BT;
        C.BS.clear();
        C.HS = HS;
        GeneratedCuda Code =
            generateCuda(*Program, lowerSchedule(*Program, C));
        EXPECT_NE(Code.KernelSource.find("extern \"C\" __global__"),
                  std::string::npos)
            << Name << " " << C.toString();
        EXPECT_NE(Code.HostSource.find("an5d_schedule"), std::string::npos)
            << Name << " " << C.toString();
      }
    }
  }
}
