//===- ThreadCensus.cpp - Thread classification and traffic totals ----------===//
//
// Part of the AN5D reproduction project, under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "model/ThreadCensus.h"

#include "model/SharedMemoryModel.h"
#include "support/Support.h"

#include <algorithm>
#include <climits>

namespace an5d {

/// Length of the intersection of [ALo, AHi) with [BLo, BHi).
static long long overlapLength(long long ALo, long long AHi, long long BLo,
                               long long BHi) {
  long long Lo = std::max(ALo, BLo);
  long long Hi = std::min(AHi, BHi);
  return Hi > Lo ? Hi - Lo : 0;
}

namespace {

/// Per-blocked-dimension lane totals, summed over all blocks of that
/// dimension.
struct DimCounts {
  long long NumBlocks = 0;
  long long AllLanes = 0;    ///< nthr lanes per block, all blocks.
  long long InGridLanes = 0; ///< Lanes over interior+boundary cells.
  /// ValidLanes[T] (T in 0..bT): lanes inside the tier-T valid region and
  /// the grid interior.
  std::vector<long long> ValidLanes;
};

} // namespace

static DimCounts countDim(long long Extent, int BlockSize, int BT,
                          int Radius) {
  DimCounts Counts;
  long long Halo = static_cast<long long>(BT) * Radius;
  long long ComputeWidth = BlockSize - 2 * Halo;
  assert(ComputeWidth >= 1 && "infeasible block configuration");
  Counts.NumBlocks = ceilDiv(Extent, ComputeWidth);
  Counts.AllLanes = Counts.NumBlocks * BlockSize;
  Counts.ValidLanes.assign(static_cast<std::size_t>(BT) + 1, 0);

  for (long long B = 0; B < Counts.NumBlocks; ++B) {
    long long Origin = B * ComputeWidth;
    long long SpanLo = Origin - Halo;
    long long SpanHi = SpanLo + BlockSize;
    // Lanes over cells that exist in memory: interior plus one radius of
    // boundary cells on each side.
    Counts.InGridLanes += overlapLength(SpanLo, SpanHi, -Radius,
                                        Extent + Radius);
    for (int T = 0; T <= BT; ++T) {
      long long Shrink = static_cast<long long>(BT - T) * Radius;
      long long ValidLo = Origin - Shrink;
      long long ValidHi = Origin + ComputeWidth + Shrink;
      Counts.ValidLanes[static_cast<std::size_t>(T)] +=
          overlapLength(ValidLo, ValidHi, 0, Extent);
    }
  }
  return Counts;
}

ThreadCensus computeThreadCensus(const StencilProgram &Program,
                                 const BlockConfig &Config,
                                 const ProblemSize &Problem) {
  // The census counts the schedule, which has no threads-per-block limit.
  assert(Config.isFeasible(Program.radius(), INT_MAX) &&
         "census requires a feasible configuration");
  assert(static_cast<int>(Problem.Extents.size()) == Program.numDims() &&
         "problem dimensionality mismatch");
  assert(Problem.Extents.size() == Config.BS.size() + 1 &&
         "config must provide one block size per non-streaming dimension");

  int Radius = Program.radius();
  int BT = Config.BT;
  long long StreamExtent = Problem.Extents[0];

  // Per-dimension lane counts for the blocked dimensions.
  std::vector<DimCounts> Dims;
  for (std::size_t D = 0; D < Config.BS.size(); ++D)
    Dims.push_back(countDim(Problem.Extents[D + 1], Config.BS[D], BT,
                            Radius));

  long long BlocksPerChunk = 1;
  long long InGridProduct = 1;
  // Lanes per block are uniform (BlockSize), so summing over block tuples
  // factorizes into the product of per-dimension totals.
  long long AllLanesTotal = 1;
  for (const DimCounts &C : Dims) {
    BlocksPerChunk *= C.NumBlocks;
    InGridProduct *= C.InGridLanes;
    AllLanesTotal *= C.AllLanes;
  }

  // Valid-lane products per tier.
  std::vector<long long> ValidProduct(static_cast<std::size_t>(BT) + 1, 1);
  for (int T = 0; T <= BT; ++T)
    for (const DimCounts &C : Dims)
      ValidProduct[static_cast<std::size_t>(T)] *=
          C.ValidLanes[static_cast<std::size_t>(T)];

  // Streaming chunks.
  long long ChunkLength =
      Config.HS > 0 ? static_cast<long long>(Config.HS) : StreamExtent;
  long long NumChunks = ceilDiv(StreamExtent, ChunkLength);

  ThreadCensus Census;
  Census.NumThreadBlocks = NumChunks * BlocksPerChunk;

  for (long long Chunk = 0; Chunk < NumChunks; ++Chunk) {
    long long C0 = Chunk * ChunkLength;
    long long C1 = std::min(C0 + ChunkLength, StreamExtent);

    // Tier-0 loads: planes [C0 - bT*rad, C1-1 + bT*rad] clamped to the
    // cells that exist ([-rad, L+rad)).
    long long LoadPlanes =
        overlapLength(C0 - static_cast<long long>(BT) * Radius,
                      C1 + static_cast<long long>(BT) * Radius, -Radius,
                      StreamExtent + Radius);
    Census.GmReadOps += LoadPlanes * InGridProduct;

    // Tier-0 shared-memory staging: every thread stores each loaded plane.
    Census.SmWriteOps += LoadPlanes * AllLanesTotal;

    for (int T = 1; T <= BT; ++T) {
      long long Reach = static_cast<long long>(BT - T) * Radius;
      // Interior planes this tier computes (redundant planes included).
      long long ComputePlanes =
          overlapLength(C0 - Reach, C1 + Reach, 0, StreamExtent);
      Census.ComputeOps +=
          ComputePlanes * ValidProduct[static_cast<std::size_t>(T)];
      // Tiers 0..bT-1 stage their results in shared memory; the final tier
      // writes straight to global memory (Fig. 5).
      if (T < BT)
        Census.SmWriteOps += ComputePlanes * AllLanesTotal;
    }

    // Tier-bT stores: compute-region cells of the chunk's own planes.
    long long StorePlanes = C1 - C0;
    long long StoreProduct = 1;
    for (std::size_t D = 0; D < Dims.size(); ++D)
      StoreProduct *= Problem.Extents[D + 1];
    Census.GmWriteOps += StorePlanes * StoreProduct;
  }

  return Census;
}

long long censusGmemBytes(const ThreadCensus &Census,
                          const StencilProgram &Program) {
  return (Census.GmReadOps + Census.GmWriteOps) * Program.wordSize();
}

long long censusSmemBytes(const ThreadCensus &Census,
                          const StencilProgram &Program) {
  long long ReadOps =
      Census.ComputeOps * smemReadsPerThreadPractical(Program);
  long long WriteOps = Census.SmWriteOps * smemStoresPerCell(Program);
  return (ReadOps + WriteOps) * Program.wordSize();
}

long long censusFlops(const ThreadCensus &Census,
                      const StencilProgram &Program) {
  return Census.ComputeOps * Program.flopsPerCell().total();
}

} // namespace an5d
