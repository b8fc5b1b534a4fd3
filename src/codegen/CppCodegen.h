//===- CppCodegen.h - Portable C++ backend ----------------------*- C++ -*-===//
//
// Part of the AN5D reproduction project, under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Generates portable C++ translations of the blocked N.5D schedule for one
/// stencil and configuration — 1D (pure streaming: empty bS, one lane per
/// hS chunk, OpenMP worksharing over chunks), 2D and 3D — in two modes
/// sharing one blocked-invocation body (tier pipeline, halo overwrite,
/// boundary pinning, stream division, host-side temporal scheduling):
///
///  * **Self-check program** (generateCppCheckProgram): a standalone `main`
///    with a naive reference and a bitwise self-check, baking the problem
///    size into the program. `main` exits 0 printing "AN5D-CHECK OK" only
///    if the blocked result matches the reference bit for bit. An
///    integration test compiles and runs it with the host compiler.
///
///  * **Kernel library** (generateCppKernelLibrary): a shared-library
///    translation unit exporting the `extern "C"` entry point
///    `an5d_run(buf0, buf1, extents, timeSteps)` plus metadata query
///    symbols (see runtime/NativeExecutor.h for the ABI contract). Grid
///    extents and the step count are runtime arguments; the configuration
///    and stencil are baked in. The (chunk x block) pair loop is an OpenMP
///    worksharing loop when compiled with -fopenmp. This is what the
///    native runtime (src/runtime/) compiles, caches and loads. The TU
///    includes only <omp.h> (and <cmath> when the stencil calls a math
///    function), references nothing from the C++ runtime library, and
///    holds no mutable file-scope state: extents are locals, and
///    `an5d_run` allocates the degree list and one flat ring per thread
///    with size-checked `__builtin_malloc` before it opens its one
///    parallel region, so the entry is reentrant and an allocation
///    failure returns a code instead of throwing across the C ABI.
///
/// The invocation body renders the IR's per-degree tables. Tier 1 reads
/// the input rows directly; tiers 1..bT-1 keep their sub-planes in the
/// per-thread ring, whose slot rotates once per streaming step (no modulo
/// per read). Per tier and sub-plane, integer clamps split the lanes once
/// into pinned (outside the grid interior: copied from the input), carry
/// (interior but outside the tier's valid region: copied from the
/// producer) and valid segments; the valid segment is an `omp simd` loop
/// reading one named pointer per tap row (`P0[l]`, `P1[l - 1]`, ...); in
/// 1D a ring tier stores each sub-plane twice, so one window pointer
/// reads every tap as `w[ds]`. The final tier evaluates only the cells it
/// stores. Ring cells are never
/// cleared: the prover (A204/A205) shows every cell a tier reads was
/// written earlier in the same block.
///
/// Both modes emit exactly the per-cell arithmetic of the in-process
/// evaluators (same expression tree, float literals round-tripped through
/// float precision in kernel mode), so a kernel compiled with
/// -ffp-contract=off reproduces ReferenceExecutor bit for bit.
///
//===----------------------------------------------------------------------===//

#ifndef AN5D_CODEGEN_CPPCODEGEN_H
#define AN5D_CODEGEN_CPPCODEGEN_H

#include "ir/StencilProgram.h"
#include "model/BlockConfig.h"
#include "schedule/ScheduleIR.h"

#include <string>

namespace an5d {

/// Renders the self-checking C++ program from a lowered schedule.
/// \p Problem fixes the grid extents and time-step count baked into the
/// program.
std::string generateCppCheckProgram(const StencilProgram &Program,
                                    const ScheduleIR &Schedule,
                                    const ProblemSize &Problem);

/// Renders the callable OpenMP kernel library from a lowered schedule:
/// the translation unit the native runtime compiles into a shared
/// object. Extents and time-steps are parameters of the exported
/// `an5d_run`.
std::string generateCppKernelLibrary(const StencilProgram &Program,
                                     const ScheduleIR &Schedule);

/// The current `an5d_*` ABI version emitted into kernel libraries and
/// checked by the loader before calling into one.
constexpr int CppKernelAbiVersion = 1;

} // namespace an5d

#endif // AN5D_CODEGEN_CPPCODEGEN_H
