//===- NativeExecutor.h - Compiled-kernel stencil execution -----*- C++ -*-===//
//
// Part of the AN5D reproduction project, under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Runs a stencil through a JIT-compiled native kernel instead of the
/// in-process emulators: generateCppKernelLibrary emits the blocked N.5D
/// schedule as an OpenMP translation unit, NativeCompiler builds it into a
/// shared object (through the persistent KernelCache), DynamicKernel loads
/// it, and run() presents the same interface as referenceRun /
/// BlockedExecutor::run — Buffers[0] holds the input at t=0, the result of
/// step N lands in Buffers[N % 2], and the output matches the in-process
/// executors bit for bit (the kernels are compiled with -ffp-contract=off
/// and exact-float literals; the equivalence suite in
/// tests/NativeRuntimeTest.cpp pins this on every built-in benchmark).
///
/// ## Kernel ABI (CppKernelAbiVersion = 1)
///
///   int an5d_abi_version(void);
///   const char *an5d_stencil_name(void);  // e.g. "j2d5pt"
///   const char *an5d_config(void);        // BlockConfig::toString()
///   int an5d_num_dims(void);              // 1, 2 or 3
///   int an5d_radius(void);
///   int an5d_elem_size(void);             // sizeof element in bytes
///   int an5d_block_time(void);            // bT baked into the kernel
///   int an5d_max_threads(void);           // OpenMP pool size (1 if serial)
///   void an5d_set_threads(int n);         // n <= 0 keeps the default
///   int an5d_run(void *buf0, void *buf1, const long long *extents,
///                long long timeSteps);    // 0 on success; buf0 and buf1
///                                         // must be distinct (the blocked
///                                         // invocation restrict-qualifies
///                                         // them); reentrant
///
/// an5d_run returns 1 on bad arguments, 2 if the schedule's buffer parity
/// disagrees with the step count, and 3 if its working memory (the degree
/// list and the per-thread rings, all size-checked and allocated before
/// the parallel region) cannot be had; on 1 and 3 neither buffer is
/// written. No C++ exception crosses the C ABI: the kernel allocates with
/// malloc and links no C++ runtime.
///
/// Both buffers are padded row-major grids with a halo of radius cells per
/// side of every dimension in `extents` (streaming dimension first) —
/// exactly Grid<T>'s layout, so run() passes Grid::data() straight through.
///
//===----------------------------------------------------------------------===//

#ifndef AN5D_RUNTIME_NATIVEEXECUTOR_H
#define AN5D_RUNTIME_NATIVEEXECUTOR_H

#include "ir/StencilProgram.h"
#include "model/BlockConfig.h"
#include "runtime/DynamicKernel.h"
#include "schedule/ScheduleIR.h"
#include "runtime/KernelCache.h"
#include "sim/Grid.h"

#include <array>
#include <cassert>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>

namespace an5d {

/// Knobs of the compile/cache/load pipeline.
struct NativeRuntimeOptions {
  /// Kernel cache directory; empty picks KernelCache::defaultDirectory().
  /// Ignored when a shared cache is passed to the constructor.
  std::string CacheDir;

  /// Host compiler command; empty picks NativeCompiler::detect().
  std::string Compiler;

  /// Extra compiler flags appended after the standard kernel flags (a
  /// later -O level overrides the default -O2, which the tests use to
  /// speed up their many small builds). Part of the cache key.
  std::vector<std::string> ExtraCompileFlags;

  /// OpenMP threads the kernel may use; 0 keeps the runtime default.
  int Threads = 0;

  /// Rebuild even if the cache already holds the kernel.
  bool ForceRecompile = false;

  /// Lint the generated translation unit (analysis/KernelLint.h) before
  /// compiling and fail the executor on any finding — a debug gate for
  /// codegen changes. The AN5D_LINT_KERNELS environment variable (any
  /// non-empty value except "0") enables it process-wide; an5dc --lint
  /// sets it per run.
  bool LintKernels = false;
};

/// A loaded native kernel for one (stencil, configuration) pair.
///
/// Construction compiles (or fetches) and loads the kernel; check ok()
/// before running. The executor is usable from any thread, concurrently:
/// `an5d_run` is reentrant (extents are locals, every OpenMP thread owns
/// its ring, and the library has no mutable file-scope state), so calls
/// into the *same* loaded kernel at different extents do not interact.
class NativeExecutor {
public:
  /// Builds the kernel from an already lowered schedule (the tuner's
  /// native sweep lowers once per candidate and hands the IR down here).
  /// \p SharedCache lets many executors (a tuning sweep, a test suite)
  /// share one cache and its statistics; when null a private cache over
  /// Options.CacheDir is created.
  NativeExecutor(const StencilProgram &Program, const ScheduleIR &Schedule,
                 const NativeRuntimeOptions &Options = {},
                 KernelCache *SharedCache = nullptr);

  /// Convenience wrapper: lowers \p Config with lowerSchedule and builds
  /// from the resulting IR.
  NativeExecutor(const StencilProgram &Program, const BlockConfig &Config,
                 const NativeRuntimeOptions &Options = {},
                 KernelCache *SharedCache = nullptr);

  /// False if generation, compilation, loading or the ABI check failed;
  /// error() then explains why (including the compiler log).
  bool ok() const { return Library != nullptr && Error.empty(); }
  const std::string &error() const { return Error; }

  /// True if the shared object came out of the cache without compiling.
  bool cacheHit() const { return Artifact.CacheHit; }
  double compileSeconds() const { return Artifact.CompileSeconds; }
  const std::string &libraryPath() const { return Artifact.LibraryPath; }
  const std::string &cacheKey() const { return Artifact.Key; }

  /// The OpenMP thread-pool size the loaded kernel reports (1 if it was
  /// built without OpenMP). 0 if the executor failed.
  int kernelMaxThreads() const;

  /// The temporal tile (bT) baked into the loaded kernel, from its
  /// `an5d_block_time` metadata; 0 if the executor failed or the symbol
  /// is absent. The traced run path chunks long sweeps by this to report
  /// per-temporal-block progress.
  int blockTime() const { return BlockTime; }

  /// Pins the kernel's OpenMP pool to \p N threads via `an5d_set_threads`
  /// (no-op for N <= 0 or a failed executor). The measurement path calls
  /// this before timing so results do not float with the ambient
  /// OMP_NUM_THREADS of the calling process.
  void pinKernelThreads(int N) const;

  /// Same contract as referenceRun / BlockedExecutor::run: advances
  /// \p TimeSteps steps, input in Buffers[0], result in
  /// Buffers[TimeSteps % 2]. The grids must use halo == radius and share
  /// one layout. Aborts with a diagnostic if the kernel rejects the run
  /// (programming error: layout/type mismatch is asserted here first).
  template <typename T>
  void run(std::array<Grid<T> *, 2> Buffers, long long TimeSteps) const {
    assert(ok() && "run() on a failed native kernel");
    assert(static_cast<int>(sizeof(T)) == ElemSize &&
           "element type does not match the compiled kernel");
    assert(Buffers[0]->numDims() == NumDims && "dimensionality mismatch");
    assert(Buffers[0]->halo() == Radius &&
           "native kernels require halo == radius");
    assert(Buffers[1]->halo() == Buffers[0]->halo() &&
           Buffers[1]->extents() == Buffers[0]->extents() &&
           "native execution requires identically laid out buffers");
    const std::vector<long long> &Extents = Buffers[0]->extents();
    int Rc = runRaw(Buffers[0]->data(), Buffers[1]->data(), Extents.data(),
                    static_cast<int>(Extents.size()), TimeSteps);
    if (Rc != 0) {
      std::fprintf(stderr,
                   "an5d: native kernel %s rejected the run (code %d: %s)\n",
                   Artifact.LibraryPath.c_str(), Rc, describeRunCode(Rc));
      std::abort();
    }
  }

  /// Names an an5d_run return code (see the ABI above) for diagnostics.
  static const char *describeRunCode(int Rc);

  /// Untyped entry for callers that manage raw buffers (the timing path).
  /// Returns the kernel's an5d_run result; -1 on arity mismatch.
  int runRaw(void *Buf0, void *Buf1, const long long *Extents,
             int NumExtents, long long TimeSteps) const;

private:
  /// The runRaw body when tracing is enabled: wraps the invocation in a
  /// `native.run` span and, for sweeps longer than the kernel's temporal
  /// tile, emits one `native.block` child span per bT-sized chunk
  /// (bit-exact with the single whole-sweep invocation).
  int runTraced(void *Buf0, void *Buf1, const long long *Extents,
                long long TimeSteps) const;

  std::string Error;
  KernelArtifact Artifact;
  std::unique_ptr<KernelCache> OwnedCache;
  std::shared_ptr<DynamicKernel> Library;

  int NumDims = 0;
  int Radius = 0;
  int ElemSize = 0;
  int Threads = 0;
  int BlockTime = 0;

  using RunFn = int(void *, void *, const long long *, long long);
  using IntFn = int();
  using SetThreadsFn = void(int);
  RunFn *Run = nullptr;
  SetThreadsFn *SetThreads = nullptr;
  IntFn *MaxThreads = nullptr;
};

} // namespace an5d

#endif // AN5D_RUNTIME_NATIVEEXECUTOR_H
