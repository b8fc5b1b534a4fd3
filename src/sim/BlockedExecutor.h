//===- BlockedExecutor.h - Functional N.5D blocking emulation ---*- C++ -*-===//
//
// Part of the AN5D reproduction project, under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A CPU emulation of the exact execution model AN5D's generated CUDA
/// kernels implement (Section 4.1), rendered from the lowered
/// schedule/ScheduleIR — the executor consumes the same schedule object
/// the codegen backends print and the verifier proves:
///
///  * one thread-block per spatial block of bS lanes (compute region
///    bS - 2*bT*rad plus halo), streaming over dimension 0;
///  * bT computational streams (tiers); tier T at streaming step s
///    processes sub-plane s - T*rad, so each tier lags its producer by one
///    stencil radius;
///  * per tier, a ring of 2*rad+1 sub-planes (the register-held window);
///  * halo lanes overwrite with the previous tier's value (the paper's
///    "original values" rule that avoids branching);
///  * boundary sub-planes and boundary lanes stay pinned to the input's
///    boundary conditions (the spare-register trick of Section 4.1);
///  * optional division of the streaming dimension into hSN-long chunks
///    with redundant leading/trailing planes (Section 4.2.3);
///  * host-side temporal block scheduling with the parity adjustment of
///    Section 4.3.1.
///
/// Each block sorts its lanes per tier exactly as the emitted kernel does,
/// through the one rule of schedule/ScheduleIR.h: blockSpan cuts each
/// blocked axis of the span to the padded grid and splits it into pinned
/// and interior lanes, tierPlanes gives each tier its plane window and
/// tierLanes its valid lanes (the interior lanes beyond them carry the
/// producer's value). Cell evaluation runs through the compiled flat tape of
/// ir/ExprPlan.h: each tap collapses to one flat ring offset
/// (slot(plane + tap_stream_offset) * laneCount + tap_lane_offset),
/// re-linearized once per sub-plane and shared by every lane, so the
/// innermost lane loops do no recursion, name resolution or allocation.
/// The tape performs the arithmetic of the recursive evalExpr walk, so a
/// correct schedule reproduces the naive reference (ReferenceExecutor,
/// either engine) bit for bit.
///
/// The PoisonHalos option fills each block's rings with quiet NaNs and
/// writes NaNs instead of the halo-overwrite values; since neither a
/// carried halo value nor a ring cell no tier wrote may feed a valid
/// computation, results must still match the reference exactly (failure
/// injection for tests).
///
//===----------------------------------------------------------------------===//

#ifndef AN5D_SIM_BLOCKEDEXECUTOR_H
#define AN5D_SIM_BLOCKEDEXECUTOR_H

#include "ir/ExprPlan.h"
#include "ir/StencilProgram.h"
#include "model/BlockConfig.h"
#include "schedule/ScheduleIR.h"
#include "sim/Grid.h"
#include "sim/TimeBlockScheduler.h"
#include "support/Support.h"

#include <algorithm>
#include <array>
#include <climits>
#include <cmath>
#include <limits>

namespace an5d {

/// Operation counters filled by the emulator when requested; comparable
/// one-to-one with the analytic ThreadCensus of the performance model
/// (the cross-check lives in tests/CensusCrossCheckTest.cpp).
struct BlockedExecStats {
  long long GmReadOps = 0;  ///< Loads of existing (interior+boundary) cells.
  long long GmWriteOps = 0; ///< Compute-region stores.
  long long ComputeOps = 0; ///< Stencil evaluations, redundancy included.
};

/// Behavioral switches for the blocked emulation.
struct BlockedExecOptions {
  /// Fill the rings with NaN canaries per block and write NaNs into halo
  /// lanes instead of the halo-overwrite values. Valid outputs must stay
  /// NaN-free.
  bool PoisonHalos = false;

  /// When set, the emulator accumulates operation counts here.
  BlockedExecStats *Stats = nullptr;
};

/// Emulates AN5D's blocked execution of one stencil.
template <typename T> class BlockedExecutor {
public:
  /// Renders a pre-lowered schedule (callers that already lowered — the
  /// tuner, the sweep — hand the IR down instead of re-lowering).
  BlockedExecutor(const StencilProgram &Program, ScheduleIR Schedule,
                  BlockedExecOptions Options = {})
      : IR(std::move(Schedule)), Options(Options),
        RingDepth(static_cast<int>(IR.RingDepth)), Tape(Program.plan()) {
    const BlockConfig &Config = IR.Config;
    // A CPU rendering has no threads-per-block limit: only the schedule
    // condition (bT >= 1, a compute region on every axis) applies.
    assert(Config.isFeasible(IR.Radius, INT_MAX) &&
           "infeasible block configuration");
    assert(static_cast<int>(Config.BS.size()) == Program.numDims() - 1 &&
           "one block size per non-streaming dimension required");

    // A tap's lane-offset component is constant per configuration (ring
    // rows are BS[last] lanes apart); only the ring slot of its stream
    // offset varies at run time (per sub-plane).
    const std::vector<std::vector<int>> &Taps = Program.plan().taps();
    for (const std::vector<int> &Tap : Taps) {
      long long Lane = 0;
      for (std::size_t D = 0; D < Config.BS.size(); ++D)
        Lane = Lane * Config.BS[D] + Tap[D + 1];
      TapLane.push_back(Lane);
    }
    TapOffsets.assign(Taps.size(), 0);
  }

  /// Lowers (\p Program, \p Config) through the shared lowerSchedule
  /// entry point and renders the resulting IR.
  BlockedExecutor(const StencilProgram &Program, const BlockConfig &Config,
                  BlockedExecOptions Options = {})
      : BlockedExecutor(Program, lowerSchedule(Program, Config), Options) {}

  /// The lowered schedule this executor renders.
  const ScheduleIR &schedule() const { return IR; }

  /// Advances \p TimeSteps steps. \p Buffers[0] holds the input at t=0; on
  /// return the result is in Buffers[TimeSteps % 2], exactly as the
  /// original double-buffered loop would leave it.
  void run(std::array<Grid<T> *, 2> Buffers, long long TimeSteps) {
    int InputIndex = 0;
    for (int Degree : scheduleTimeBlocks(TimeSteps, IR.Config.BT)) {
      runInvocation(*Buffers[InputIndex], *Buffers[1 - InputIndex], Degree);
      InputIndex = 1 - InputIndex;
    }
  }

  /// Runs exactly one kernel call of \p Degree combined steps (bypasses
  /// the host-side scheduler); used by the census cross-check tests.
  void runKernelOnce(const Grid<T> &In, Grid<T> &Out, int Degree) {
    runInvocation(In, Out, Degree);
  }

private:
  /// The lowered schedule; every structural quantity the executor uses
  /// (ring depth, compute widths, chunking, tier lags and reaches) is
  /// read from here, never re-derived.
  ScheduleIR IR;
  BlockedExecOptions Options;
  int RingDepth;
  CompiledTape<T> Tape;
  /// Per-tap lane-offset component (constant per configuration).
  std::vector<long long> TapLane;
  /// Per-tap flat ring offsets, re-linearized per sub-plane.
  std::vector<long long> TapOffsets;
  /// Per-tier ring buffers, reused across blocks.
  std::vector<std::vector<T>> Rings;

  static T poisonValue() {
    return std::numeric_limits<T>::quiet_NaN();
  }

  /// One kernel call: one temporal block of \p Degree steps over the whole
  /// grid, reading \p In and writing \p Out. The per-degree plan —
  /// compute widths, block strides, chunk decomposition — comes straight
  /// from the lowered IR.
  void runInvocation(const Grid<T> &In, Grid<T> &Out, int Degree) {
    const InvocationSchedule &Inv = IR.at(Degree);
    const std::vector<long long> &Extents = In.extents();
    long long StreamExtent = Extents[0];
    int NumBlockedDims = static_cast<int>(Inv.BS.size());

    std::vector<long long> NumBlocks(NumBlockedDims);
    for (int D = 0; D < NumBlockedDims; ++D) {
      assert(Inv.ComputeWidth[static_cast<std::size_t>(D)] >= 1 &&
             "degree too large for block size");
      NumBlocks[D] =
          ceilDiv(Extents[static_cast<std::size_t>(D) + 1],
                  Inv.BlockStride[static_cast<std::size_t>(D)]);
    }

    long long ChunkLength =
        Inv.ChunkLength > 0 ? Inv.ChunkLength : StreamExtent;
    long long ChunkStride =
        Inv.ChunkStride > 0 ? Inv.ChunkStride : StreamExtent;
    long long NumChunks = ceilDiv(StreamExtent, ChunkStride);

    // Iterate the worksharing decomposition the IR describes: all
    // (chunk, block-tuple) pairs; blocks are independent.
    std::vector<long long> BlockIndex(static_cast<std::size_t>(NumBlockedDims),
                                      0);
    for (long long Chunk = 0; Chunk < NumChunks; ++Chunk) {
      long long ChunkLo = Chunk * ChunkStride;
      long long ChunkHi = std::min(ChunkLo + ChunkLength, StreamExtent);
      std::fill(BlockIndex.begin(), BlockIndex.end(), 0);
      while (true) {
        std::vector<long long> Origins(static_cast<std::size_t>(
            NumBlockedDims));
        for (int D = 0; D < NumBlockedDims; ++D)
          Origins[static_cast<std::size_t>(D)] =
              BlockIndex[static_cast<std::size_t>(D)] *
              Inv.BlockStride[static_cast<std::size_t>(D)];
        runBlock(In, Out, Inv, ChunkLo, ChunkHi, Origins);

        int D = NumBlockedDims - 1;
        while (D >= 0) {
          if (++BlockIndex[static_cast<std::size_t>(D)] < NumBlocks[D])
            break;
          BlockIndex[static_cast<std::size_t>(D)] = 0;
          --D;
        }
        if (D < 0)
          break;
      }
    }
  }

  /// Streams one thread-block through one chunk, laid out as the emitted
  /// kernel lays it out: lanes run along the last blocked axis, rows along
  /// the first in 3D, each axis cut to the padded grid (blockSpan), and
  /// every tier runs over its plane window (tierPlanes) and valid rows and
  /// lanes (tierLanes). Loads, pins and carries are contiguous row copies and
  /// evaluations run over whole lane ranges.
  void runBlock(const Grid<T> &In, Grid<T> &Out,
                const InvocationSchedule &Inv, long long ChunkLo,
                long long ChunkHi, const std::vector<long long> &Origins) {
    const int Degree = Inv.Degree;
    const std::vector<long long> &Extents = In.extents();
    const long long StreamExtent = Extents[0];
    const int NumBlockedDims = static_cast<int>(Inv.BS.size());
    const int Halo = In.halo();
    const T *GridIn = In.data();
    T *GridOut = Out.data();

    auto SpanOf = [&](int Axis) {
      return blockSpan(Inv, Axis, Origins[static_cast<std::size_t>(Axis)],
                       Extents[static_cast<std::size_t>(Axis) + 1]);
    };
    const BlockSpan Rows = NumBlockedDims == 2 ? SpanOf(0) : unblockedSpan();
    const BlockSpan Lanes =
        NumBlockedDims >= 1 ? SpanOf(NumBlockedDims - 1) : unblockedSpan();
    // Row strides of the padded grid and of a ring sub-plane, and the
    // offset of lane (0, 0) within a padded plane.
    const long long GridRow = NumBlockedDims == 2 ? In.stride(1) : 0;
    const long long RingRow = NumBlockedDims == 2 ? Inv.BS[1] : 0;
    long long SpanBase = NumBlockedDims >= 1 ? Lanes.Lo + Halo : 0;
    if (NumBlockedDims == 2)
      SpanBase += (Rows.Lo + Halo) * GridRow;
    const long long StreamStride = In.stride(0);
    auto PlaneOf = [&](auto *Grid, long long Plane) {
      return Grid + (Plane + Halo) * StreamStride + SpanBase;
    };

    // Per tier (0 is the load stage): the plane window and the valid rows
    // and lanes.
    std::vector<PlaneWindow> Planes;
    std::vector<LaneRange> ValidRows, ValidLanes;
    for (int Tier = 0; Tier <= Degree; ++Tier) {
      Planes.push_back(tierPlanes(Inv, Tier, ChunkLo, ChunkHi, StreamExtent));
      ValidRows.push_back(tierLanes(Inv, Tier, Rows));
      ValidLanes.push_back(tierLanes(Inv, Tier, Lanes));
    }

    // Like the kernel, the emulator never clears its rings: every cell a
    // tier reads was written earlier in the same block (prover rules
    // A204/A205). Poisoning fills them with NaN, so a read of a cell no
    // tier wrote reaches the output.
    long long LaneCount = 1;
    for (long long B : Inv.BS)
      LaneCount *= B;
    const auto RingCells = static_cast<std::size_t>(RingDepth * LaneCount);
    Rings.resize(static_cast<std::size_t>(Degree));
    for (std::vector<T> &Ring : Rings) {
      Ring.resize(RingCells);
      if (Options.PoisonHalos)
        std::fill(Ring.begin(), Ring.end(), poisonValue());
    }
    auto RingSlot = [&](long long Plane) {
      long long M = Plane % RingDepth;
      return (M < 0 ? M + RingDepth : M) * LaneCount;
    };
    const std::vector<std::vector<int>> &Taps = Tape.taps();
    auto LinearizeTaps = [&](long long Plane) {
      for (std::size_t K = 0; K < Taps.size(); ++K)
        TapOffsets[K] = RingSlot(Plane + Taps[K][0]) + TapLane[K];
    };

    // Streaming schedule: at step s, tier T processes plane
    // s - StreamLag_T (the IR's per-tier lags). The window opens early
    // enough for the tier-0 preload and closes once the final tier has
    // drained its lag.
    const long long SBegin = ChunkLo - Inv.LoadStreamReach;
    const long long SEnd = ChunkHi - 1 + Inv.Tiers.back().StreamLag;
    for (long long S = SBegin; S <= SEnd; ++S) {
      // Tier 0: load the existing cells of plane S into the tier-0 ring.
      if (S >= Planes[0].PLo && S <= Planes[0].PHi) {
        T *Dst = Rings[0].data() + RingSlot(S);
        const T *Src = PlaneOf(GridIn, S);
        for (long long J = 0; J < Rows.E1; ++J)
          std::copy(Src + J * GridRow, Src + J * GridRow + Lanes.E1,
                    Dst + J * RingRow);
        if (Options.Stats)
          Options.Stats->GmReadOps += Rows.E1 * Lanes.E1;
      }

      // Tiers 1..Degree; the final tier stores straight to the output.
      for (const TierSchedule &TS : Inv.Tiers) {
        const auto Tier = static_cast<std::size_t>(TS.Tier);
        const LaneRange &RV = ValidRows[Tier], &LV = ValidLanes[Tier];
        const long long Plane = S - TS.StreamLag;
        if (Plane < Planes[Tier].PLo || Plane > Planes[Tier].PHi)
          continue;
        const bool Final = TS.Tier == Degree;
        const T *Prev = Rings[Tier - 1].data();
        const T *Pin = PlaneOf(GridIn, Plane);
        T *Dst = Final ? PlaneOf(GridOut, Plane)
                       : Rings[Tier].data() + RingSlot(Plane);
        const long long DstRow = Final ? GridRow : RingRow;
        // Boundary sub-planes stay pinned to the input (never the final
        // tier, whose window is the chunk's own planes).
        const bool Boundary = Plane < 0 || Plane >= StreamExtent;
        if (!Boundary) {
          LinearizeTaps(Plane);
          for (long long J = RV.V0; J < RV.V1; ++J)
            for (long long L = LV.V0; L < LV.V1; ++L)
              Dst[J * DstRow + L] =
                  Tape.eval(Prev + J * RingRow + L, TapOffsets.data());
          if (Options.Stats) {
            const long long Cells = (RV.V1 - RV.V0) * (LV.V1 - LV.V0);
            Options.Stats->ComputeOps += Cells;
            if (Final)
              Options.Stats->GmWriteOps += Cells;
          }
        }
        if (Final)
          continue;

        // Boundary lanes (and every lane of a boundary sub-plane or a
        // boundary row) stay pinned to the input; the other interior
        // lanes outside the valid range carry the producer's value (the
        // halo overwrite of Section 4.1), or a canary under poisoning.
        // These refreshes are not GmReadOps: the census charges boundary
        // values to the tier-0 load (the spare-register trick of 4.1).
        const T *Carry = Prev + RingSlot(Plane);
        for (long long J = 0; J < Rows.E1; ++J) {
          T *Row = Dst + J * RingRow;
          const T *PinRow = Pin + J * GridRow;
          const T *CarryRow = Carry + J * RingRow;
          const bool Pinned = Boundary || J < Rows.I0 || J >= Rows.I1;
          auto Keep = [&](long long Lo, long long Hi) {
            if (Pinned)
              std::copy(PinRow + Lo, PinRow + Hi, Row + Lo);
            else if (Options.PoisonHalos)
              std::fill(Row + Lo, Row + Hi, poisonValue());
            else
              std::copy(CarryRow + Lo, CarryRow + Hi, Row + Lo);
          };
          std::copy(PinRow, PinRow + Lanes.I0, Row);
          if (!Boundary && J >= RV.V0 && J < RV.V1) {
            Keep(Lanes.I0, LV.V0);
            Keep(LV.V1, Lanes.I1);
          } else {
            Keep(Lanes.I0, Lanes.I1);
          }
          std::copy(PinRow + Lanes.I1, PinRow + Lanes.E1, Row + Lanes.I1);
        }
      }
    }
  }
};

/// Convenience wrapper: construct an executor and run it.
template <typename T>
void blockedRun(const StencilProgram &Program, const BlockConfig &Config,
                std::array<Grid<T> *, 2> Buffers, long long TimeSteps,
                BlockedExecOptions Options = {}) {
  BlockedExecutor<T> Executor(Program, Config, Options);
  Executor.run(Buffers, TimeSteps);
}

/// True if any interior cell of \p G is NaN (poison-leak detector).
template <typename T> bool interiorHasNaN(const Grid<T> &G) {
  std::vector<long long> Coords(static_cast<std::size_t>(G.numDims()), 0);
  const std::vector<long long> &Extents = G.extents();
  while (true) {
    if (std::isnan(static_cast<double>(G.at(Coords))))
      return true;
    int D = G.numDims() - 1;
    while (D >= 0) {
      if (++Coords[static_cast<std::size_t>(D)] <
          Extents[static_cast<std::size_t>(D)])
        break;
      Coords[static_cast<std::size_t>(D)] = 0;
      --D;
    }
    if (D < 0)
      return false;
  }
}

} // namespace an5d

#endif // AN5D_SIM_BLOCKEDEXECUTOR_H
