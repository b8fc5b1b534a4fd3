//===- ExtentSweepCases.h - Awkward extents shared by the sweeps -*- C++ -*-===//
//
// Part of the AN5D reproduction project, under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The awkward-extent cases both the native kernel (NativeExtentSweep) and
/// the poisoned blocked emulator (EmulatorExtentSweep) are swept over, so
/// the two renderings of the lane-segment rule meet the same grids: one
/// configuration per dimensionality, extents 1 and 2, primes, fewer than
/// bS, bS -+ 1 and not a multiple of hS, and step counts around bT = 3.
///
//===----------------------------------------------------------------------===//

#ifndef AN5D_TESTS_EXTENTSWEEPCASES_H
#define AN5D_TESTS_EXTENTSWEEPCASES_H

#include "ir/StencilProgram.h"
#include "model/BlockConfig.h"

#include <cstddef>
#include <vector>

namespace an5d {

/// Step counts around the temporal tile bT = 3: none, one, fewer than
/// bT, odd and above bT, and a remainder block after two full ones.
inline const long long ExtentSweepSteps[] = {0, 1, 2, 5, 7};

struct ExtentSweepCase {
  const char *Name;
  ScalarType Type;
  BlockConfig Config;
  /// Values every axis takes in turn.
  std::vector<long long> AxisExtents;

  /// The extents of run \p I: the other axes cycle through the same list,
  /// so every value meets every axis.
  std::vector<long long> extents(std::size_t I, int NumDims) const {
    std::vector<long long> Extents;
    for (int D = 0; D < NumDims; ++D)
      Extents.push_back(AxisExtents[(I + static_cast<std::size_t>(D) * 3) %
                                    AxisExtents.size()]);
    return Extents;
  }
};

/// The case of a \p NumDims stencil (1, 2 or 3).
inline ExtentSweepCase extentSweepCase(int NumDims) {
  BlockConfig Config;
  Config.BT = 3;
  if (NumDims == 1) {
    // Radius 2, hS=7: extents smaller than one radius, primes, hS -+ 1
    // and lengths that leave a partial last chunk.
    Config.HS = 7;
    return {"star1d2r", ScalarType::Float, Config, {1, 2, 13, 6, 8, 23, 50}};
  }
  if (NumDims == 2) {
    // bS=16 (compute width 10 at full degree), hS=5.
    Config.BS = {16};
    Config.HS = 5;
    return {"j2d5pt", ScalarType::Float, Config, {1, 2, 13, 9, 15, 17, 23}};
  }
  // Double, bS=12x11, hS=4.
  Config.BS = {12, 11};
  Config.HS = 4;
  return {"star3d1r", ScalarType::Double, Config, {1, 2, 7, 5, 11, 13, 10}};
}

} // namespace an5d

#endif // AN5D_TESTS_EXTENTSWEEPCASES_H
