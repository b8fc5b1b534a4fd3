//===- NativeRuntimeTest.cpp - Native runtime subsystem tests -----------------===//
//
// Part of the AN5D reproduction project, under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// Exercises the compile/cache/load/execute pipeline of src/runtime/:
///
///  * NativeExecutor vs ReferenceExecutor bit-for-bit on **every** built-in
///    benchmark — 1D (pure streaming, chunk-parallel), 2D and 3D — the
///    acceptance contract of the native backend;
///  * KernelCache hit/miss behavior, persistence across cache objects,
///    force-recompile, and failure accounting;
///  * NativeCompiler detection and failure reporting, and the loader's
///    refusal of libraries that break the an5d_* ABI;
///  * the native measured sweep (compile pool + serial timing) and the
///    Tuner's Native measurement backend.
///
/// Kernels build with -O1 appended (overriding the default -O2) to keep
/// the many small test builds fast; optimization level cannot change
/// results because the kernels are compiled with -ffp-contract=off and no
/// fast-math. Most tests share one on-disk cache directory so repeated
/// ctest runs are compile-free; tests asserting miss-then-hit transitions
/// create private directories.
///
//===----------------------------------------------------------------------===//

#include "codegen/CppCodegen.h"
#include "obs/Metrics.h"
#include "runtime/KernelCache.h"
#include "runtime/NativeCompiler.h"
#include "runtime/NativeExecutor.h"
#include "runtime/NativeMeasurement.h"
#include "sim/BlockedExecutor.h"
#include "sim/Grid.h"
#include "sim/ReferenceExecutor.h"
#include "stencils/Benchmarks.h"
#include "tuning/Tuner.h"

#include "ExtentSweepCases.h"

#include <gtest/gtest.h>

#include <atomic>
#include <climits>
#include <cstdlib>
#include <cstring>
#include <elf.h>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <string>
#include <sys/stat.h>
#include <thread>
#include <vector>

using namespace an5d;

namespace {

/// The shared cache directory: stable across test processes (each ctest
/// entry is its own process) so every kernel compiles at most once per
/// source+flags version.
std::string sharedCacheDir() {
  return ::testing::TempDir() + "an5d-native-test-cache";
}

/// A directory unique to one test, for miss/hit-transition assertions.
std::string freshCacheDir(const std::string &Tag) {
  std::string Dir = ::testing::TempDir() + "an5d-native-fresh-" + Tag;
  std::filesystem::remove_all(Dir);
  return Dir;
}

NativeRuntimeOptions fastBuildOptions(const std::string &CacheDir) {
  NativeRuntimeOptions Options;
  Options.CacheDir = CacheDir;
  Options.ExtraCompileFlags = {"-O1"};
  return Options;
}

/// A small feasible configuration for \p Program that exercises chunking
/// and a temporal degree > 1.
BlockConfig testConfig(const StencilProgram &Program) {
  int Rad = Program.radius();
  BlockConfig Config;
  Config.BT = 2;
  if (Program.numDims() == 1) {
    Config.BS.clear(); // pure streaming: no blocked dimensions
    Config.HS = 7;
  } else if (Program.numDims() == 2) {
    Config.BS = {4 * Rad + 8};
    Config.HS = 7;
  } else {
    Config.BS = {4 * Rad + 6, 4 * Rad + 4};
    Config.HS = 5;
  }
  return Config;
}

/// Runs \p Steps through the reference executor and the native kernel and
/// expects bitwise identical grids.
template <typename T>
void expectNativeMatchesReference(const StencilProgram &Program,
                                  const BlockConfig &Config,
                                  long long Steps) {
  NativeExecutor Executor(Program, Config,
                          fastBuildOptions(sharedCacheDir()));
  ASSERT_TRUE(Executor.ok()) << Executor.error();

  std::vector<long long> Extents =
      Program.numDims() == 1   ? std::vector<long long>{53}
      : Program.numDims() == 2 ? std::vector<long long>{23, 19}
                               : std::vector<long long>{13, 11, 10};
  Grid<T> Ref0(Extents, Program.radius()), Ref1(Extents, Program.radius());
  fillGridDeterministic(Ref0, 33);
  copyGrid(Ref0, Ref1);
  Grid<T> Nat0 = Ref0, Nat1 = Ref0;

  referenceRun<T>(Program, {&Ref0, &Ref1}, Steps);
  Executor.run<T>({&Nat0, &Nat1}, Steps);

  const Grid<T> &Want = Steps % 2 == 0 ? Ref0 : Ref1;
  const Grid<T> &Got = Steps % 2 == 0 ? Nat0 : Nat1;
  EXPECT_EQ(Want.raw(), Got.raw())
      << Program.name() << " native result differs from the reference";
}

/// Runs \p Steps of \p Executor at \p Extents through runRaw and expects
/// the result bitwise equal to the reference; returns false (with a
/// failure recorded) on any mismatch. Given \p Emulated, the poisoned
/// blocked emulator runs that configuration too and must match the kernel
/// bitwise: the emulator sorts its lanes through ScheduleIR's blockSpan /
/// tierLanes / tierPlanes, the kernel through the clamps the emitter
/// spells for them.
template <typename T>
bool runMatchesReference(const NativeExecutor &Executor,
                         const StencilProgram &Program,
                         const std::vector<long long> &Extents,
                         long long Steps,
                         const BlockConfig *Emulated = nullptr) {
  Grid<T> Ref0(Extents, Program.radius()), Ref1(Extents, Program.radius());
  fillGridDeterministic(Ref0, 7 + static_cast<int>(Steps));
  copyGrid(Ref0, Ref1);
  Grid<T> Nat0 = Ref0, Nat1 = Ref0;
  Grid<T> Emu0 = Ref0, Emu1 = Ref0;
  referenceRun<T>(Program, {&Ref0, &Ref1}, Steps);
  int Rc = Executor.runRaw(Nat0.data(), Nat1.data(), Extents.data(),
                           static_cast<int>(Extents.size()), Steps);
  const Grid<T> &Want = Steps % 2 == 0 ? Ref0 : Ref1;
  const Grid<T> &Got = Steps % 2 == 0 ? Nat0 : Nat1;
  bool Same = Rc == 0 && Want.raw() == Got.raw();
  if (Emulated) {
    BlockedExecOptions Poison;
    Poison.PoisonHalos = true;
    blockedRun<T>(Program, *Emulated, {&Emu0, &Emu1}, Steps, Poison);
    Same = Same && (Steps % 2 == 0 ? Emu0 : Emu1).raw() == Got.raw();
  }
  std::string Shape;
  for (long long E : Extents)
    Shape += (Shape.empty() ? "" : "x") + std::to_string(E);
  EXPECT_TRUE(Same) << Program.name() << " " << Shape << " x " << Steps
                    << " steps (rc " << Rc << ")";
  return Same;
}

/// Writes an executable /bin/sh compiler wrapper named \p Name whose body
/// is \p Body; `$REAL` in it is the host compiler.
std::string writeCompilerWrapper(const std::string &Name,
                                 const std::string &Body) {
  const std::string Dir = ::testing::TempDir() + "an5d-wrappers";
  std::filesystem::create_directories(Dir);
  const std::string Path = Dir + "/" + Name;
  std::ofstream(Path) << "#!/bin/sh\nREAL='" << NativeCompiler::detect()
                      << "'\n"
                      << Body;
  ::chmod(Path.c_str(), 0755);
  return Path;
}

/// The DT_NEEDED entries of the 64-bit ELF shared object at \p Path, read
/// from its .dynamic section.
std::vector<std::string> neededLibraries(const std::string &Path) {
  std::ifstream In(Path, std::ios::binary);
  const std::vector<char> Bytes((std::istreambuf_iterator<char>(In)),
                                std::istreambuf_iterator<char>());
  std::vector<std::string> Needed;
  auto Read = [&](auto &Out, std::size_t Offset) {
    if (Offset + sizeof(Out) > Bytes.size())
      return false;
    std::memcpy(&Out, Bytes.data() + Offset, sizeof(Out));
    return true;
  };
  Elf64_Ehdr Header;
  if (!Read(Header, 0) || std::memcmp(Header.e_ident, ELFMAG, SELFMAG) != 0 ||
      Header.e_ident[EI_CLASS] != ELFCLASS64)
    return Needed;
  for (std::size_t I = 0; I < Header.e_shnum; ++I) {
    Elf64_Shdr Dynamic, Strings;
    if (!Read(Dynamic, Header.e_shoff + I * Header.e_shentsize) ||
        Dynamic.sh_type != SHT_DYNAMIC ||
        !Read(Strings, Header.e_shoff + Dynamic.sh_link * Header.e_shentsize))
      continue;
    for (std::size_t Off = 0; Off + sizeof(Elf64_Dyn) <= Dynamic.sh_size;
         Off += sizeof(Elf64_Dyn)) {
      Elf64_Dyn Entry;
      if (!Read(Entry, Dynamic.sh_offset + Off) || Entry.d_tag == DT_NULL)
        break;
      const std::size_t Name = Strings.sh_offset + Entry.d_un.d_val;
      if (Entry.d_tag == DT_NEEDED && Name < Bytes.size())
        Needed.emplace_back(Bytes.data() + Name,
                            strnlen(Bytes.data() + Name, Bytes.size() - Name));
    }
  }
  return Needed;
}

/// Every built-in benchmark: the Table 3 2D/3D set plus the extra 1D
/// stencils — the C++ kernel backend supports all of them.
std::vector<std::string> nativeBackendBenchmarks() {
  std::vector<std::string> Names = benchmarkStencilNames();
  for (const std::string &Name : extraStencilNames())
    Names.push_back(Name);
  return Names;
}

} // namespace

//===----------------------------------------------------------------------===//
// Bit-for-bit equivalence on every built-in benchmark
//===----------------------------------------------------------------------===//

class NativeEquivalence : public ::testing::TestWithParam<std::string> {};

TEST_P(NativeEquivalence, MatchesReferenceBitwise) {
  auto Program = makeBenchmarkStencil(GetParam(), ScalarType::Float);
  ASSERT_NE(Program, nullptr);
  expectNativeMatchesReference<float>(*Program, testConfig(*Program), 9);
}

INSTANTIATE_TEST_SUITE_P(
    AllBenchmarks, NativeEquivalence,
    ::testing::ValuesIn(nativeBackendBenchmarks()),
    [](const ::testing::TestParamInfo<std::string> &Info) {
      std::string Name = Info.param;
      for (char &C : Name)
        if (C == '-')
          C = '_';
      return Name;
    });

// The same contract in double precision: every builtin, bit for bit.
class NativeEquivalenceDouble : public ::testing::TestWithParam<std::string> {
};

TEST_P(NativeEquivalenceDouble, MatchesReferenceBitwise) {
  auto Program = makeBenchmarkStencil(GetParam(), ScalarType::Double);
  ASSERT_NE(Program, nullptr);
  expectNativeMatchesReference<double>(*Program, testConfig(*Program), 9);
}

INSTANTIATE_TEST_SUITE_P(
    AllBenchmarks, NativeEquivalenceDouble,
    ::testing::ValuesIn(nativeBackendBenchmarks()),
    [](const ::testing::TestParamInfo<std::string> &Info) {
      std::string Name = Info.param;
      for (char &C : Name)
        if (C == '-')
          C = '_';
      return Name;
    });

TEST(NativeRuntime, DoublePrecisionMatchesReference) {
  auto Program = makeBenchmarkStencil("j2d5pt", ScalarType::Double);
  ASSERT_NE(Program, nullptr);
  expectNativeMatchesReference<double>(*Program, testConfig(*Program), 9);
  auto Program3 = makeBenchmarkStencil("star3d2r", ScalarType::Double);
  ASSERT_NE(Program3, nullptr);
  expectNativeMatchesReference<double>(*Program3, testConfig(*Program3), 8);
}

TEST(NativeRuntime, EvenStepCountEndsInBufferZero) {
  auto Program = makeBenchmarkStencil("j2d9pt", ScalarType::Float);
  ASSERT_NE(Program, nullptr);
  expectNativeMatchesReference<float>(*Program, testConfig(*Program), 8);
}

TEST(NativeRuntime, MathCallStencilMatches) {
  // gradient2d exercises the sqrt math-call path end to end.
  auto Program = makeBenchmarkStencil("gradient2d", ScalarType::Float);
  ASSERT_NE(Program, nullptr);
  expectNativeMatchesReference<float>(*Program, testConfig(*Program), 5);
}

TEST(NativeRuntime, StreamingDivisionVariantsMatch) {
  auto Program = makeBenchmarkStencil("j2d5pt", ScalarType::Float);
  BlockConfig Config = testConfig(*Program);
  Config.HS = 0; // single chunk spans the stream
  expectNativeMatchesReference<float>(*Program, Config, 9);
  Config.HS = 1000; // longer than the extent: also a single chunk
  expectNativeMatchesReference<float>(*Program, Config, 9);
}

TEST(NativeRuntime, HighDegreeMatches) {
  auto Program = makeBenchmarkStencil("j2d5pt", ScalarType::Float);
  BlockConfig Config;
  Config.BT = 5;
  Config.BS = {32};
  Config.HS = 8;
  expectNativeMatchesReference<float>(*Program, Config, 13);
}

TEST(NativeRuntime, OneDimensionalStreamingVariantsMatch) {
  // The 1D kernel parallelizes over hS chunks; hS=0 degenerates to one
  // chunk (serial), and an hS longer than the extent is also one chunk.
  auto Program = makeBenchmarkStencil("star1d2r", ScalarType::Float);
  ASSERT_NE(Program, nullptr);
  BlockConfig Config = testConfig(*Program);
  Config.HS = 0;
  expectNativeMatchesReference<float>(*Program, Config, 9);
  Config.HS = 1000;
  expectNativeMatchesReference<float>(*Program, Config, 9);
}

TEST(NativeRuntime, OneDimensionalHighDegreeMatches) {
  auto Program = makeBenchmarkStencil("box1d3r", ScalarType::Float);
  ASSERT_NE(Program, nullptr);
  BlockConfig Config;
  Config.BT = 7; // degree 7, radius 3: 21-plane lag across chunk seams
  Config.HS = 11;
  expectNativeMatchesReference<float>(*Program, Config, 13);
}

TEST(NativeRuntime, OneDimensionalDoublePrecisionMatches) {
  auto Program = makeBenchmarkStencil("j1d3pt", ScalarType::Double);
  ASSERT_NE(Program, nullptr);
  expectNativeMatchesReference<double>(*Program, testConfig(*Program), 9);
}

//===----------------------------------------------------------------------===//
// Awkward extents and step counts, one kernel per dimensionality
//===----------------------------------------------------------------------===//

namespace {

/// Runs the awkward-extent case of a \p NumDims stencil at every extent
/// and step count through one compiled kernel (extents are run-time
/// arguments, so a single shared object serves them all), against the
/// reference and the poisoned emulator.
template <typename T> void sweepExtents(int NumDims) {
  const ExtentSweepCase Case = extentSweepCase(NumDims);
  auto Program = makeBenchmarkStencil(Case.Name, Case.Type);
  ASSERT_NE(Program, nullptr);
  NativeExecutor Executor(*Program, Case.Config,
                          fastBuildOptions(sharedCacheDir()));
  ASSERT_TRUE(Executor.ok()) << Executor.error();
  for (std::size_t I = 0; I < Case.AxisExtents.size(); ++I)
    for (long long Steps : ExtentSweepSteps)
      if (!runMatchesReference<T>(Executor, *Program,
                                  Case.extents(I, NumDims), Steps,
                                  &Case.Config))
        return;
}

} // namespace

TEST(NativeExtentSweep, OneDimensionalKernelMatchesAtAwkwardExtents) {
  sweepExtents<float>(1);
}

TEST(NativeExtentSweep, TwoDimensionalKernelMatchesAtAwkwardExtents) {
  sweepExtents<float>(2);
}

TEST(NativeExtentSweep, ThreeDimensionalKernelMatchesAtAwkwardExtents) {
  sweepExtents<double>(3);
}

// The CPU renderings have no threads-per-block limit: bS=64x32 is 2048
// lanes, twice CUDA's cap, and still a valid schedule (compute width
// 60x28). The kernel builds and runs, bitwise equal to the reference and
// to the emulator, across two blocks on each blocked axis.
TEST(NativeRuntime, BlockPastTheGpuThreadCapRuns) {
  auto Program = makeBenchmarkStencil("star3d1r", ScalarType::Float);
  ASSERT_NE(Program, nullptr);
  BlockConfig Config;
  Config.BT = 2;
  Config.BS = {64, 32};
  Config.HS = 0;
  EXPECT_FALSE(Config.isFeasible(Program->radius(), 1024));
  NativeExecutor Executor(*Program, Config,
                          fastBuildOptions(sharedCacheDir()));
  ASSERT_TRUE(Executor.ok()) << Executor.error();
  for (long long Steps : {1, 2, 5})
    runMatchesReference<float>(Executor, *Program, {6, 67, 31}, Steps,
                               &Config);
}

//===----------------------------------------------------------------------===//
// Reentrancy: an5d_run keeps no state between or across calls
//===----------------------------------------------------------------------===//

// Two host threads drive one loaded kernel at the same time, each at its
// own extents, many times over. The kernel passes extents down as locals
// and gives every OpenMP thread its own ring, so the runs must not
// interfere: each stays bitwise equal to the reference. (Under TSan the
// kernels build without OpenMP, so any shared mutable state in the
// library is reported as a race.)
TEST(NativeRuntime, ConcurrentRunsAtDifferentExtentsMatchReference) {
  auto Program = makeBenchmarkStencil("j2d5pt", ScalarType::Float);
  NativeExecutor Executor(*Program, testConfig(*Program),
                          fastBuildOptions(sharedCacheDir()));
  ASSERT_TRUE(Executor.ok()) << Executor.error();
  std::atomic<int> Ready{0};
  std::atomic<bool> AllMatch{true};
  auto Worker = [&](std::vector<long long> Extents, long long Steps) {
    Ready.fetch_add(1);
    while (Ready.load() < 2) {
    }
    for (int Round = 0; Round < 12; ++Round)
      if (!runMatchesReference<float>(Executor, *Program, Extents, Steps))
        AllMatch = false;
  };
  std::thread A(Worker, std::vector<long long>{41, 37}, 9);
  std::thread B(Worker, std::vector<long long>{17, 64}, 6);
  A.join();
  B.join();
  EXPECT_TRUE(AllMatch.load());
}

//===----------------------------------------------------------------------===//
// Executor contract
//===----------------------------------------------------------------------===//

TEST(NativeRuntime, ZeroStepsLeavesBuffersUntouched) {
  auto Program = makeBenchmarkStencil("j2d5pt", ScalarType::Float);
  NativeExecutor Executor(*Program, testConfig(*Program),
                          fastBuildOptions(sharedCacheDir()));
  ASSERT_TRUE(Executor.ok()) << Executor.error();
  Grid<float> A({9, 8}, 1), B({9, 8}, 1);
  fillGridDeterministic(A, 3);
  copyGrid(A, B);
  std::vector<float> WantA = A.raw(), WantB = B.raw();
  Executor.run<float>({&A, &B}, 0);
  EXPECT_EQ(A.raw(), WantA);
  EXPECT_EQ(B.raw(), WantB);
}

TEST(NativeRuntime, RunRawRejectsBadArguments) {
  auto Program = makeBenchmarkStencil("j2d5pt", ScalarType::Float);
  NativeExecutor Executor(*Program, testConfig(*Program),
                          fastBuildOptions(sharedCacheDir()));
  ASSERT_TRUE(Executor.ok()) << Executor.error();
  long long Extents2[2] = {9, 8};
  long long Extents3[3] = {9, 8, 7};
  std::vector<float> Buf(11 * 10, 0.0f);
  // Wrong arity is caught by the loader side.
  EXPECT_EQ(Executor.runRaw(Buf.data(), Buf.data(), Extents3, 3, 1), -1);
  // Null buffers, negative steps and degenerate extents by the kernel.
  EXPECT_NE(Executor.runRaw(nullptr, Buf.data(), Extents2, 2, 1), 0);
  EXPECT_NE(Executor.runRaw(Buf.data(), Buf.data(), Extents2, 2, -1), 0);
  long long Degenerate[2] = {0, 8};
  EXPECT_NE(Executor.runRaw(Buf.data(), Buf.data(), Degenerate, 2, 1), 0);
}

TEST(NativeRuntime, ReportsKernelMetadata) {
  auto Program = makeBenchmarkStencil("star3d1r", ScalarType::Float);
  NativeExecutor Executor(*Program, testConfig(*Program),
                          fastBuildOptions(sharedCacheDir()));
  ASSERT_TRUE(Executor.ok()) << Executor.error();
  EXPECT_GE(Executor.kernelMaxThreads(), 1);
  EXPECT_EQ(Executor.cacheKey().size(), 16u);
  EXPECT_TRUE(std::filesystem::exists(Executor.libraryPath()));
}

TEST(NativeRuntime, OneDimensionalKernelReportsMetadata) {
  auto Program = makeBenchmarkStencil("star1d1r", ScalarType::Float);
  ASSERT_NE(Program, nullptr);
  BlockConfig Config;
  Config.BT = 2;
  Config.HS = 16;
  NativeExecutor Executor(*Program, Config,
                          fastBuildOptions(sharedCacheDir()));
  ASSERT_TRUE(Executor.ok()) << Executor.error();
  EXPECT_GE(Executor.kernelMaxThreads(), 1);
  // 1D extents arity is enforced like every other dimensionality.
  std::vector<float> Buf(16, 0.0f);
  long long Extents2[2] = {9, 8};
  EXPECT_EQ(Executor.runRaw(Buf.data(), Buf.data(), Extents2, 2, 1), -1);
}

TEST(NativeRuntime, RejectsInfeasibleConfiguration) {
  auto Program = makeBenchmarkStencil("j2d5pt", ScalarType::Float);
  BlockConfig Config;
  Config.BT = 8;
  Config.BS = {16}; // compute width 16 - 2*8*1 = 0: infeasible
  NativeExecutor Executor(*Program, Config,
                          fastBuildOptions(sharedCacheDir()));
  EXPECT_FALSE(Executor.ok());
  EXPECT_NE(Executor.error().find("infeasible"), std::string::npos);
}

// The an5d_* ABI is enforced where a violation bites: when a library is
// loaded. A library sitting in a kernel's cache slot that does not export
// an5d_run, or that reports a foreign ABI version, is refused with a
// specific error instead of being called.
TEST(NativeRuntime, LoadRejectsLibrariesBreakingTheAbi) {
  auto Program = makeBenchmarkStencil("j2d5pt", ScalarType::Float);
  const ScheduleIR Schedule = lowerSchedule(*Program, testConfig(*Program));
  const std::string Source = generateCppKernelLibrary(*Program, Schedule);
  struct {
    const char *Tag, *From, *To, *Error;
  } Cases[] = {
      {"no-run", "int an5d_run(", "int an5d_run_renamed(",
       "does not export the an5d_* ABI"},
      {"abi-7", "an5d_abi_version(void) { return 1; }",
       "an5d_abi_version(void) { return 7; }", "ABI version 7"},
  };
  for (const auto &Case : Cases) {
    std::string Broken = Source;
    const std::size_t Pos = Broken.find(Case.From);
    ASSERT_NE(Pos, std::string::npos) << Case.From;
    Broken.replace(Pos, std::strlen(Case.From), Case.To);

    // Build the broken library, then plant it in the cache slot of the
    // well-formed source the executor generates.
    NativeRuntimeOptions Options =
        fastBuildOptions(freshCacheDir(std::string("abi-") + Case.Tag));
    NativeCompiler Compiler(Options.Compiler);
    KernelCache Cache(Options.CacheDir);
    KernelArtifact Bad =
        Cache.getOrBuild(Broken, Compiler, Options.ExtraCompileFlags);
    ASSERT_TRUE(Bad.Ok) << Bad.Log;
    const std::string Slot =
        Options.CacheDir + "/an5d_" +
        KernelCache::hashKey(Source,
                             Compiler.fingerprint(Options.ExtraCompileFlags)) +
        ".so";
    std::filesystem::copy_file(Bad.LibraryPath, Slot);

    NativeExecutor Executor(*Program, Schedule, Options, &Cache);
    EXPECT_FALSE(Executor.ok()) << Case.Tag;
    EXPECT_NE(Executor.error().find(Case.Error), std::string::npos)
        << Case.Tag << ": " << Executor.error();
  }
}

TEST(NativeRuntime, ReportsMissingCompiler) {
  NativeCompiler Compiler("/nonexistent/an5d-cxx");
  EXPECT_FALSE(Compiler.available());
  auto Program = makeBenchmarkStencil("j2d5pt", ScalarType::Float);
  NativeRuntimeOptions Options = fastBuildOptions(sharedCacheDir());
  Options.Compiler = "/nonexistent/an5d-cxx";
  NativeExecutor Executor(*Program, testConfig(*Program), Options);
  EXPECT_FALSE(Executor.ok());
  EXPECT_NE(Executor.error().find("not available"), std::string::npos);
}

// A step count whose degree list cannot be allocated is refused with the
// allocation code before either buffer is written: no exception, no
// abort, nothing half-run.
TEST(NativeRuntime, UnallocatableStepCountFailsClosed) {
  auto Program = makeBenchmarkStencil("j2d5pt", ScalarType::Float);
  NativeExecutor Executor(*Program, testConfig(*Program),
                          fastBuildOptions(sharedCacheDir()));
  ASSERT_TRUE(Executor.ok()) << Executor.error();
  Grid<float> A({9, 8}, 1), B({9, 8}, 1);
  fillGridDeterministic(A, 5);
  fillGridDeterministic(B, 6);
  const std::vector<float> WantA = A.raw(), WantB = B.raw();
  const int Rc =
      Executor.runRaw(A.data(), B.data(), A.extents().data(), 2, LLONG_MAX);
  EXPECT_EQ(Rc, 3);
  EXPECT_NE(std::string(NativeExecutor::describeRunCode(Rc)).find("alloc"),
            std::string::npos);
  EXPECT_EQ(A.raw(), WantA);
  EXPECT_EQ(B.raw(), WantB);
}

//===----------------------------------------------------------------------===//
// Build contract: host ISA, lean link, target-keyed cache
//===----------------------------------------------------------------------===//

// The kernel TU references nothing from the C++ runtime, so no kernel
// depends on libstdc++ at load time.
TEST(NativeBuild, KernelsDoNotNeedTheCxxRuntime) {
  for (const char *Name : {"j1d3pt", "j2d5pt", "star3d1r"}) {
    auto Program = makeBenchmarkStencil(Name, ScalarType::Float);
    NativeExecutor Executor(*Program, testConfig(*Program),
                            fastBuildOptions(sharedCacheDir()));
    ASSERT_TRUE(Executor.ok()) << Executor.error();
    const std::vector<std::string> Needed =
        neededLibraries(Executor.libraryPath());
    ASSERT_FALSE(Needed.empty()) << Name << ": no DT_NEEDED entries read";
    for (const std::string &Library : Needed)
      EXPECT_EQ(Library.find("libstdc++"), std::string::npos)
          << Name << " needs " << Library;
  }
}

// The predefined-macro digest is part of the fingerprint: a compiler that
// targets something else under the same flags (here a wrapper defining
// one extra macro, as -march for another ISA would) lands on other keys,
// while a pass-through wrapper reports the host compiler's digest.
TEST(NativeBuild, TargetMacrosEnterTheFingerprint) {
  const std::string Plain =
      writeCompilerWrapper("plain-cxx", "exec \"$REAL\" \"$@\"\n");
  const std::string Marked = writeCompilerWrapper(
      "marked-cxx", "exec \"$REAL\" \"$@\" -DAN5D_TARGET_MARKER\n");
  const std::string Saved =
      std::getenv("AN5D_CXX") ? std::getenv("AN5D_CXX") : "";
  ::setenv("AN5D_CXX", Plain.c_str(), 1);
  NativeCompiler PlainCompiler;
  ::setenv("AN5D_CXX", Marked.c_str(), 1);
  NativeCompiler MarkedCompiler;
  if (Saved.empty())
    ::unsetenv("AN5D_CXX");
  else
    ::setenv("AN5D_CXX", Saved.c_str(), 1);

  ASSERT_EQ(MarkedCompiler.command(), Marked);
  ASSERT_TRUE(PlainCompiler.available());
  ASSERT_TRUE(MarkedCompiler.available());
  EXPECT_EQ(PlainCompiler.targetDigest(), NativeCompiler().targetDigest());
  EXPECT_NE(MarkedCompiler.targetDigest(), PlainCompiler.targetDigest());
  EXPECT_EQ(MarkedCompiler.flags(), PlainCompiler.flags());
  const std::string Fingerprint = MarkedCompiler.fingerprint({});
  EXPECT_NE(Fingerprint.find(MarkedCompiler.targetDigest()),
            std::string::npos);
  EXPECT_NE(Fingerprint, PlainCompiler.fingerprint({}));
}

// A compiler that rejects -march=native still builds correct kernels: the
// probe drops the flag, and it is absent from the flags and the key.
TEST(NativeBuild, CompilerRejectingHostIsaStillBuildsCorrectKernels) {
  const std::string Wrapper = writeCompilerWrapper(
      "no-march-cxx", "for a in \"$@\"; do\n"
                      "  [ \"$a\" = -march=native ] && exit 1\n"
                      "done\n"
                      "exec \"$REAL\" \"$@\"\n");
  NativeCompiler Compiler(Wrapper);
  ASSERT_TRUE(Compiler.available());
  for (const std::string &Flag : Compiler.flags())
    EXPECT_NE(Flag, "-march=native");
  EXPECT_EQ(Compiler.fingerprint({}).find("-march=native"),
            std::string::npos);
  EXPECT_EQ(Compiler.openMpSupported(), NativeCompiler().openMpSupported());

  NativeRuntimeOptions Options = fastBuildOptions(freshCacheDir("no-march"));
  Options.Compiler = Wrapper;
  for (const char *Name : {"j2d5pt", "star3d1r"}) {
    auto Program = makeBenchmarkStencil(Name, ScalarType::Double);
    NativeExecutor Executor(*Program, testConfig(*Program), Options);
    ASSERT_TRUE(Executor.ok()) << Name << ": " << Executor.error();
    runMatchesReference<double>(Executor, *Program,
                                Program->numDims() == 2
                                    ? std::vector<long long>{23, 19}
                                    : std::vector<long long>{13, 11, 10},
                                5);
  }
}

//===----------------------------------------------------------------------===//
// Kernel cache
//===----------------------------------------------------------------------===//

// A cached artifact the loader rejects is quarantined and rebuilt once;
// the lookup counts it corrupt and never as a hit.
TEST(KernelCache, CorruptArtifactIsQuarantinedAndRebuilt) {
  auto Program = makeBenchmarkStencil("j2d9pt", ScalarType::Double);
  const ScheduleIR Schedule = lowerSchedule(*Program, testConfig(*Program));
  NativeRuntimeOptions Options = fastBuildOptions(freshCacheDir("corrupt"));
  NativeCompiler Compiler(Options.Compiler);
  KernelCache Cache(Options.CacheDir);
  const std::string Slot =
      Options.CacheDir + "/an5d_" +
      KernelCache::hashKey(generateCppKernelLibrary(*Program, Schedule),
                           Compiler.fingerprint(Options.ExtraCompileFlags)) +
      ".so";
  std::ofstream(Slot) << "this is not a shared object\n";
  obs::MetricsRegistry &Registry = obs::MetricsRegistry::global();
  const long long Corrupt0 = Registry.counterValue("kernel_cache.corrupt");
  const long long Hits0 = Registry.counterValue("kernel_cache.hits");

  NativeExecutor Healed(*Program, Schedule, Options, &Cache);
  ASSERT_TRUE(Healed.ok()) << Healed.error();
  EXPECT_FALSE(Healed.cacheHit());
  KernelCacheStats Stats = Cache.stats();
  EXPECT_EQ(Stats.Corrupt, 1u);
  EXPECT_EQ(Stats.Hits, 0u);
  EXPECT_EQ(Stats.Misses, 1u);
  EXPECT_EQ(Registry.counterValue("kernel_cache.corrupt") - Corrupt0, 1);
  EXPECT_EQ(Registry.counterValue("kernel_cache.hits") - Hits0, 0);
  EXPECT_TRUE(std::filesystem::exists(Slot + ".corrupt"));
  runMatchesReference<double>(Healed, *Program, {23, 19}, 5);

  NativeExecutor Again(*Program, Schedule, Options, &Cache);
  ASSERT_TRUE(Again.ok()) << Again.error();
  EXPECT_TRUE(Again.cacheHit());
  EXPECT_EQ(Cache.stats().Corrupt, 1u);
}

// A compiler that exits 0 without producing a loadable object fails the
// build with the loader's reason and leaves no artifact behind.
TEST(KernelCache, UnloadableBuildIsAFailure) {
  const std::string Wrapper = writeCompilerWrapper(
      "junk-cxx", "case \"$*\" in *--version*) exec \"$REAL\" \"$@\";; "
                  "esac\n"
                  "while [ $# -gt 0 ]; do\n"
                  "  [ \"$1\" = -o ] && echo junk > \"$2\"\n"
                  "  shift\n"
                  "done\n");
  NativeCompiler Compiler(Wrapper);
  ASSERT_TRUE(Compiler.available());
  KernelCache Cache(freshCacheDir("junk"));
  auto Program = makeBenchmarkStencil("j2d5pt", ScalarType::Float);
  KernelArtifact Artifact = Cache.getOrBuild(
      generateCppKernelLibrary(*Program,
                               lowerSchedule(*Program, testConfig(*Program))),
      Compiler);
  EXPECT_FALSE(Artifact.Ok);
  EXPECT_EQ(Artifact.Library, nullptr);
  EXPECT_NE(Artifact.Log.find("cannot load"), std::string::npos)
      << Artifact.Log;
  EXPECT_FALSE(std::filesystem::exists(Artifact.LibraryPath));
  EXPECT_EQ(Cache.stats().Failures, 1u);
  EXPECT_EQ(Cache.stats().Misses, 0u);
}

TEST(KernelCache, HashKeyIsStableAndDiscriminating) {
  std::string KeyA = KernelCache::hashKey("source-a", "compiler-x");
  EXPECT_EQ(KeyA.size(), 16u);
  EXPECT_EQ(KeyA, KernelCache::hashKey("source-a", "compiler-x"));
  EXPECT_NE(KeyA, KernelCache::hashKey("source-b", "compiler-x"));
  EXPECT_NE(KeyA, KernelCache::hashKey("source-a", "compiler-y"));
  // The separator keeps (source, fingerprint) splits distinct.
  EXPECT_NE(KernelCache::hashKey("ab", "c"), KernelCache::hashKey("a", "bc"));
}

// The source is hashed in interleaved lanes; a one-byte change anywhere
// (every lane, the unrolled body and the tail) must change the key.
TEST(KernelCache, HashKeySeesEveryByteOfLongSources) {
  const std::string Base(37, 'k');
  const std::string Key = KernelCache::hashKey(Base, "compiler-x");
  for (std::size_t I = 0; I < Base.size(); ++I) {
    std::string Changed = Base;
    Changed[I] = 'K';
    EXPECT_NE(KernelCache::hashKey(Changed, "compiler-x"), Key) << I;
  }
  EXPECT_NE(KernelCache::hashKey(Base + "k", "compiler-x"), Key);
}

TEST(KernelCache, SecondBuildHitsWithoutCompiling) {
  auto Program = makeBenchmarkStencil("j2d5pt", ScalarType::Float);
  std::string Dir = freshCacheDir("hit");
  KernelCache Cache(Dir);
  NativeRuntimeOptions Options = fastBuildOptions(Dir);

  NativeExecutor First(*Program, testConfig(*Program), Options, &Cache);
  ASSERT_TRUE(First.ok()) << First.error();
  EXPECT_FALSE(First.cacheHit());
  EXPECT_GT(First.compileSeconds(), 0.0);

  NativeExecutor Second(*Program, testConfig(*Program), Options, &Cache);
  ASSERT_TRUE(Second.ok()) << Second.error();
  EXPECT_TRUE(Second.cacheHit());
  EXPECT_EQ(Second.libraryPath(), First.libraryPath());

  KernelCacheStats Stats = Cache.stats();
  EXPECT_EQ(Stats.Misses, 1u);
  EXPECT_EQ(Stats.Hits, 1u);
  EXPECT_EQ(Stats.Failures, 0u);
}

TEST(KernelCache, PersistsAcrossCacheObjects) {
  auto Program = makeBenchmarkStencil("j2d9pt", ScalarType::Float);
  std::string Dir = freshCacheDir("persist");
  NativeRuntimeOptions Options = fastBuildOptions(Dir);
  {
    NativeExecutor First(*Program, testConfig(*Program), Options);
    ASSERT_TRUE(First.ok()) << First.error();
    EXPECT_FALSE(First.cacheHit());
  }
  // A brand-new cache object (fresh process in real usage) over the same
  // directory must find the artifact.
  NativeExecutor Second(*Program, testConfig(*Program), Options);
  ASSERT_TRUE(Second.ok()) << Second.error();
  EXPECT_TRUE(Second.cacheHit());
}

TEST(KernelCache, ForceRecompileBypassesTheCache) {
  auto Program = makeBenchmarkStencil("j2d5pt", ScalarType::Float);
  std::string Dir = freshCacheDir("force");
  KernelCache Cache(Dir);
  NativeRuntimeOptions Options = fastBuildOptions(Dir);
  NativeExecutor First(*Program, testConfig(*Program), Options, &Cache);
  ASSERT_TRUE(First.ok()) << First.error();
  Options.ForceRecompile = true;
  NativeExecutor Second(*Program, testConfig(*Program), Options, &Cache);
  ASSERT_TRUE(Second.ok()) << Second.error();
  EXPECT_FALSE(Second.cacheHit());
  EXPECT_EQ(Cache.stats().Misses, 2u);
}

TEST(KernelCache, DifferentFlagsLandOnDifferentKeys) {
  auto Program = makeBenchmarkStencil("j2d5pt", ScalarType::Float);
  std::string Dir = freshCacheDir("flags");
  KernelCache Cache(Dir);
  NativeRuntimeOptions O1 = fastBuildOptions(Dir);
  NativeRuntimeOptions O2 = fastBuildOptions(Dir);
  O2.ExtraCompileFlags = {"-O0"};
  NativeExecutor A(*Program, testConfig(*Program), O1, &Cache);
  NativeExecutor B(*Program, testConfig(*Program), O2, &Cache);
  ASSERT_TRUE(A.ok()) << A.error();
  ASSERT_TRUE(B.ok()) << B.error();
  EXPECT_NE(A.cacheKey(), B.cacheKey());
  EXPECT_EQ(Cache.stats().Misses, 2u);
}

TEST(KernelCache, CompileFailureIsReportedWithLog) {
  std::string Dir = freshCacheDir("fail");
  KernelCache Cache(Dir);
  NativeCompiler Compiler;
  ASSERT_TRUE(Compiler.available());
  KernelArtifact Artifact =
      Cache.getOrBuild("this is not C++ at all!", Compiler, {"-O0"});
  EXPECT_FALSE(Artifact.Ok);
  EXPECT_FALSE(Artifact.CacheHit);
  EXPECT_NE(Artifact.Log.find("compile failed"), std::string::npos);
  EXPECT_EQ(Cache.stats().Failures, 1u);
  EXPECT_FALSE(std::filesystem::exists(Artifact.LibraryPath));
}

//===----------------------------------------------------------------------===//
// Native measurement backend
//===----------------------------------------------------------------------===//

TEST(NativeMeasurement, MeasurementProblemIsCpuSized) {
  for (int Dims : {1, 2, 3}) {
    ProblemSize Problem = nativeMeasurementProblem(Dims);
    EXPECT_EQ(static_cast<int>(Problem.Extents.size()), Dims);
    EXPECT_GT(Problem.TimeSteps, 0);
    EXPECT_LE(Problem.cellCount(), 1LL << 20)
        << "native timing problems must stay CPU-sized";
  }
}

TEST(NativeMeasurement, SweepTimesRealKernelsAndDeduplicatesCaps) {
  auto Program = makeBenchmarkStencil("j2d5pt", ScalarType::Float);
  std::vector<ScheduleIR> Schedules;
  for (int Cap : {0, 64}) {
    BlockConfig Config = testConfig(*Program);
    Config.RegisterCap = Cap;
    Schedules.push_back(lowerSchedule(*Program, Config));
  }
  // Shrink timing further: unit tests only check plumbing.
  ProblemSize Problem = nativeMeasurementProblem(2);
  Problem.Extents = {64, 64};
  Problem.TimeSteps = 4;

  std::string Dir = freshCacheDir("sweep");
  KernelCache Cache(Dir);
  NativeMeasureOptions Options;
  Options.Runtime = fastBuildOptions(Dir);
  Options.Repeats = 1;
  // Parallel compile stage on purpose: same-key builds serialize inside
  // KernelCache, so even concurrent builders must produce exactly one
  // compile (miss) and one wait-then-hit.
  std::vector<MeasuredResult> Results = nativeMeasuredSweep(
      *Program, Schedules, Problem, Options, /*Threads=*/2, &Cache);
  ASSERT_EQ(Results.size(), Schedules.size());
  for (const MeasuredResult &Result : Results) {
    EXPECT_TRUE(Result.Feasible);
    EXPECT_GT(Result.MeasuredGflops, 0.0);
    EXPECT_GT(Result.MeasuredTimeSeconds, 0.0);
  }
  // The register cap is not part of the kernel source: one compile, one
  // cache hit.
  KernelCacheStats Stats = Cache.stats();
  EXPECT_EQ(Stats.Misses, 1u);
  EXPECT_EQ(Stats.Hits, 1u);
}

TEST(NativeMeasurement, TunerNativeBackendPicksAMeasuredConfig) {
  auto Program = makeBenchmarkStencil("j2d5pt", ScalarType::Float);
  Tuner T(GpuSpec::teslaV100());
  TuneOptions Options;
  Options.Backend = MeasurementBackend::Native;
  Options.TopK = 2;
  Options.Native.Runtime = fastBuildOptions(sharedCacheDir());
  Options.Native.Repeats = 1;
  ProblemSize Problem = nativeMeasurementProblem(2);
  Problem.Extents = {96, 96};
  Problem.TimeSteps = 4;
  TuneOutcome Outcome = T.tune(*Program, Problem, Options);
  ASSERT_TRUE(Outcome.Feasible);
  EXPECT_GT(Outcome.BestMeasured.MeasuredGflops, 0.0);
  EXPECT_GT(Outcome.BestMeasured.MeasuredTimeSeconds, 0.0);
  EXPECT_EQ(Outcome.Best.RegisterCap, 0)
      << "native backend collapses register caps";
}

TEST(NativeMeasurement, OneDimensionalTunesThroughRealKernels) {
  // 1D no longer falls back to the simulator: the tuner compiles and
  // times real streaming kernels, so the outcome carries a wall-clock
  // measurement and a cap-normalized configuration.
  auto Program = makeBenchmarkStencil("star1d1r", ScalarType::Float);
  Tuner T(GpuSpec::teslaV100());
  TuneOptions Options;
  Options.Backend = MeasurementBackend::Native;
  Options.TopK = 2;
  Options.Native.Runtime = fastBuildOptions(sharedCacheDir());
  Options.Native.Repeats = 1;
  ProblemSize Problem = nativeMeasurementProblem(1);
  Problem.Extents = {4096};
  Problem.TimeSteps = 8;
  TuneOutcome Outcome = T.tune(*Program, Problem, Options);
  ASSERT_TRUE(Outcome.Feasible);
  EXPECT_GT(Outcome.BestMeasured.MeasuredGflops, 0.0);
  EXPECT_GT(Outcome.BestMeasured.MeasuredTimeSeconds, 0.0);
  EXPECT_EQ(Outcome.Best.RegisterCap, 0);
  EXPECT_EQ(Outcome.MeasurementFailures, 0u);
  EXPECT_TRUE(Outcome.Best.BS.empty())
      << "1D native tuning must keep the pure-streaming shape";
}

TEST(NativeMeasurement, SweepRecordsPerCandidateFailureReasons) {
  // A broken host compiler must not masquerade as "infeasible": every
  // candidate records why its kernel never ran.
  auto Program = makeBenchmarkStencil("j2d5pt", ScalarType::Float);
  BlockConfig Deeper = testConfig(*Program);
  Deeper.BT = 3;
  std::vector<ScheduleIR> Schedules = {
      lowerSchedule(*Program, testConfig(*Program)),
      lowerSchedule(*Program, Deeper)};
  NativeMeasureOptions Options;
  Options.Runtime = fastBuildOptions(freshCacheDir("failreason"));
  Options.Runtime.Compiler = "/nonexistent/an5d-cxx";
  std::vector<MeasuredResult> Results =
      nativeMeasuredSweep(*Program, Schedules, nativeMeasurementProblem(2),
                          Options, /*Threads=*/1);
  ASSERT_EQ(Results.size(), 2u);
  for (const MeasuredResult &Result : Results) {
    EXPECT_FALSE(Result.Feasible);
    EXPECT_NE(Result.FailureReason.find("not available"),
              std::string::npos)
        << Result.FailureReason;
  }
}

TEST(NativeMeasurement, TunerCountsCompileFailures) {
  auto Program = makeBenchmarkStencil("star1d1r", ScalarType::Float);
  Tuner T(GpuSpec::teslaV100());
  TuneOptions Options;
  Options.Backend = MeasurementBackend::Native;
  Options.TopK = 2;
  Options.Native.Runtime = fastBuildOptions(sharedCacheDir());
  Options.Native.Runtime.Compiler = "/nonexistent/an5d-cxx";
  TuneOutcome Outcome =
      T.tune(*Program, nativeMeasurementProblem(1), Options);
  EXPECT_FALSE(Outcome.Feasible);
  EXPECT_EQ(Outcome.MeasurementFailures, Options.TopK)
      << "every candidate kernel should fail on the broken compiler";
  EXPECT_NE(Outcome.FirstFailureReason.find("not available"),
            std::string::npos)
      << Outcome.FirstFailureReason;
}

TEST(NativeMeasurement, TimingsAreClampedToResolvableDurations) {
  // A degenerate problem (4 cells, 1 step) can complete faster than the
  // clock resolves; the sweep must still report a usable positive time
  // rather than zero or infinite GFLOP/s.
  auto Program = makeBenchmarkStencil("star1d1r", ScalarType::Float);
  ProblemSize Problem;
  Problem.Extents = {4};
  Problem.TimeSteps = 1;
  NativeMeasureOptions Options;
  Options.Runtime = fastBuildOptions(sharedCacheDir());
  Options.Repeats = 1;
  std::vector<MeasuredResult> Results = nativeMeasuredSweep(
      *Program, {lowerSchedule(*Program, testConfig(*Program))}, Problem,
      Options, /*Threads=*/0);
  ASSERT_EQ(Results.size(), 1u);
  ASSERT_TRUE(Results[0].Feasible) << Results[0].FailureReason;
  EXPECT_GE(Results[0].MeasuredTimeSeconds, 1e-7);
}
