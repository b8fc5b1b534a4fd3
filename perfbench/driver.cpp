//===- driver.cpp - End-to-end and per-layer benchmark of the pipeline ----===//
//
// Part of the AN5D reproduction project, under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// One closed-loop caller drives the pipeline through its public functions
/// (source text -> extract -> lower -> gate -> emit -> cache/compile ->
/// dlopen -> run) on one named workload, checks every kernel output
/// bitwise against a reference that is not the kernel under test, and
/// prints each metric by name with its unit. The last stdout line is one
/// JSON object: {"correct", "attempted", "failed", "metrics"}.
///
///   an5d_perfbench --workload dram-2d --seed 1 --seconds 10 --trace 0
///                  --work-dir .bench_build/work
///
/// --trace 0 measures the end-to-end metrics with tracing off. --trace 1
/// first repeats the workload's main operation untraced, then turns on
/// the obs recorder and runs the same calls again. Per-layer times are the
/// recorder's spans summed per timed operation: the program's own spans
/// (tune.rank, tune.lower, cache.get_or_build, ...) plus benchmark spans
/// around the public calls the program does not span. It reports the
/// per-layer metrics and the tracing overhead, and writes the spans to
/// <work-dir>/<workload>/.
///
/// The seed fixes the grid contents, the coefficients of the tune-cold
/// source and the tune-sim problem sizes; the pipeline sees only those
/// generated inputs.
///
//===----------------------------------------------------------------------===//

#include "analysis/ScheduleVerifier.h"
#include "analysis/passes/AnalysisPass.h"
#include "codegen/CppCodegen.h"
#include "codegen/ExprEmitter.h"
#include "frontend/StencilExtractor.h"
#include "ir/ExprPlan.h"
#include "obs/Metrics.h"
#include "obs/Trace.h"
#include "runtime/DynamicKernel.h"
#include "runtime/KernelCache.h"
#include "runtime/NativeCompiler.h"
#include "runtime/NativeExecutor.h"
#include "runtime/NativeMeasurement.h"
#include "sim/Grid.h"
#include "sim/ReferenceExecutor.h"
#include "stencils/Benchmarks.h"
#include "tuning/Tuner.h"

#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <functional>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

using namespace an5d;
namespace fs = std::filesystem;

namespace {

//===-- Clock, statistics, seeded inputs ---------------------------------===//

double now() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// The \p F quantile of \p V, interpolating between order statistics.
double quantile(std::vector<double> V, double F) {
  if (V.empty())
    return 0;
  std::sort(V.begin(), V.end());
  double Pos = F * static_cast<double>(V.size() - 1);
  std::size_t Lo = static_cast<std::size_t>(Pos);
  std::size_t Hi = std::min(Lo + 1, V.size() - 1);
  return V[Lo] + (Pos - static_cast<double>(Lo)) * (V[Hi] - V[Lo]);
}

double median(std::vector<double> V) { return quantile(std::move(V), 0.5); }

/// Coefficient of variation (population standard deviation / mean).
double coefficientOfVariation(const std::vector<double> &V) {
  if (V.size() < 2)
    return 0;
  double Mean = 0;
  for (double X : V)
    Mean += X;
  Mean /= static_cast<double>(V.size());
  double Var = 0;
  for (double X : V)
    Var += (X - Mean) * (X - Mean);
  Var /= static_cast<double>(V.size());
  return Mean > 0 ? std::sqrt(Var) / Mean : 0;
}

std::uint64_t splitmix64(std::uint64_t X) {
  X += 0x9e3779b97f4a7c15ULL;
  X = (X ^ (X >> 30)) * 0xbf58476d1ce4e5b9ULL;
  X = (X ^ (X >> 27)) * 0x94d049bb133111ebULL;
  return X ^ (X >> 31);
}

/// A small deterministic generator for the seeded workload parameters.
class SeededRng {
public:
  explicit SeededRng(std::uint64_t Seed) : State(splitmix64(Seed)) {}
  std::uint64_t next() { return State = splitmix64(State); }
  /// Uniform integer in [Lo, Hi].
  long long range(long long Lo, long long Hi) {
    return Lo + static_cast<long long>(
                    next() % static_cast<std::uint64_t>(Hi - Lo + 1));
  }

private:
  std::uint64_t State;
};

int Threads = 1;

/// Fills every cell (halo included) with a value in [0.5, 1.5) that
/// depends only on the seed and the cell index.
template <typename T> void fillSeeded(Grid<T> &G, std::uint64_t Seed) {
  T *Data = G.data();
  long long N = static_cast<long long>(G.size());
  std::uint64_t Base = splitmix64(Seed ^ 0x5eedULL);
#pragma omp parallel for num_threads(Threads) schedule(static)
  for (long long I = 0; I < N; ++I) {
    std::uint64_t Bits = splitmix64(Base + static_cast<std::uint64_t>(I));
    Data[I] = static_cast<T>(0.5 + static_cast<double>(Bits >> 11) * 0x1p-53);
  }
}

template <typename T> void restore(const Grid<T> &Src, Grid<T> &Dst) {
  const char *From = reinterpret_cast<const char *>(Src.data());
  char *To = reinterpret_cast<char *>(Dst.data());
  long long Bytes = static_cast<long long>(Src.size() * sizeof(T));
  const long long Chunk = 1 << 22;
#pragma omp parallel for num_threads(Threads) schedule(static)
  for (long long Off = 0; Off < Bytes; Off += Chunk)
    std::memcpy(To + Off, From + Off,
                static_cast<std::size_t>(std::min(Chunk, Bytes - Off)));
}

template <typename T> bool sameBits(const Grid<T> &X, const Grid<T> &Y) {
  if (X.size() != Y.size())
    return false;
  const char *A = reinterpret_cast<const char *>(X.data());
  const char *B = reinterpret_cast<const char *>(Y.data());
  long long Bytes = static_cast<long long>(X.size() * sizeof(T));
  const long long Chunk = 1 << 22;
  int Diff = 0;
#pragma omp parallel for num_threads(Threads) schedule(static) reduction(|:Diff)
  for (long long Off = 0; Off < Bytes; Off += Chunk)
    Diff |= std::memcmp(A + Off, B + Off,
                        static_cast<std::size_t>(
                            std::min(Chunk, Bytes - Off))) != 0;
  return Diff == 0;
}

template <typename T> long long countSubnormals(const Grid<T> &G) {
  const T *Data = G.data();
  long long N = static_cast<long long>(G.size());
  long long Count = 0;
#pragma omp parallel for num_threads(Threads) schedule(static) reduction(+:Count)
  for (long long I = 0; I < N; ++I)
    Count += std::fpclassify(Data[I]) == FP_SUBNORMAL;
  return Count;
}

long long interiorCells(const std::vector<long long> &Extents) {
  long long Cells = 1;
  for (long long E : Extents)
    Cells *= E;
  return Cells;
}

//===-- Operation accounting and per-layer clocks -------------------------===//

/// Closed-loop operation ledger: every build, load, run, check and tune
/// is one attempted operation; a failure never contributes a sample.
struct Ledger {
  long long Attempted = 0;
  long long Failed = 0;
  bool Mismatch = false;

  bool record(bool Ok, const std::string &What) {
    ++Attempted;
    if (!Ok) {
      ++Failed;
      std::fprintf(stderr, "perfbench: FAILED %s\n", What.c_str());
    }
    return Ok;
  }
};

/// The recorder-clock interval of one timed operation.
struct OpWindow {
  long long StartNs;
  long long EndNs;
};

/// Adds the interval of its lifetime to \p Out while tracing is on. The
/// traced report charges to the operation every span that starts inside
/// it: the program's own (tune.rank, tune.lower, cache.compile, ...) and
/// the benchmark's around the public calls the program does not span.
class OpScope {
public:
  explicit OpScope(std::vector<OpWindow> &Out)
      : Out(Out), StartNs(obs::TraceRecorder::global().now()) {}
  ~OpScope() {
    if (obs::TraceRecorder::enabled())
      Out.push_back({StartNs, obs::TraceRecorder::global().now()});
  }
  OpScope(const OpScope &) = delete;
  OpScope &operator=(const OpScope &) = delete;

private:
  std::vector<OpWindow> &Out;
  long long StartNs;
};

using SpanValue = std::function<double(const obs::SpanRecord &)>;

std::string spanAttr(const obs::SpanRecord &Span, const std::string &Key) {
  for (const obs::SpanAttr &Attr : Span.Attrs)
    if (Attr.Key == Key)
      return Attr.Value;
  return "";
}

/// Seconds in the spans named \p Plus, less those named \p Minus (a child
/// span whose time the parent's figure must not include).
SpanValue spanSeconds(std::vector<std::string> Plus,
                      std::vector<std::string> Minus = {}) {
  return [Plus, Minus](const obs::SpanRecord &Span) {
    double Seconds = static_cast<double>(Span.DurationNs) * 1e-9;
    for (const std::string &Name : Plus)
      if (Span.Name == Name)
        return Seconds;
    for (const std::string &Name : Minus)
      if (Span.Name == Name)
        return -Seconds;
    return 0.0;
  };
}

/// Every recorded span, sorted by start, for per-operation sums.
class SpanIndex {
public:
  SpanIndex() : Spans(obs::TraceRecorder::global().snapshot()) {
    std::sort(Spans.begin(), Spans.end(),
              [](const obs::SpanRecord &A, const obs::SpanRecord &B) {
                return A.StartNs < B.StartNs;
              });
  }

  /// Median over \p Windows of the sum of \p Value over the spans that
  /// start inside each window (0 when there are no windows).
  double medianPerOp(const std::vector<OpWindow> &Windows,
                     const SpanValue &Value) const {
    std::vector<double> Sums;
    for (const OpWindow &W : Windows) {
      auto It = std::lower_bound(
          Spans.begin(), Spans.end(), W.StartNs,
          [](const obs::SpanRecord &S, long long T) { return S.StartNs < T; });
      double Sum = 0;
      for (; It != Spans.end() && It->StartNs <= W.EndNs; ++It)
        Sum += Value(*It);
      Sums.push_back(Sum);
    }
    return median(Sums);
  }

private:
  std::vector<obs::SpanRecord> Spans;
};

//===-- The naive baseline -------------------------------------------------===//

/// Renders a plain double-buffered loop over the padded grid layout with
/// the same expression emitter (exact float literals) the kernel library
/// uses, so both compute each cell with the same operation order.
std::string naiveSource(const StencilProgram &Program) {
  int NumDims = Program.numDims();
  ExprEmitOptions Options;
  Options.Type = Program.elemType();
  Options.Program = &Program;
  Options.ExactFloatLiterals = true;
  Options.ReadEmitter = [NumDims](const GridReadExpr &Read) {
    std::string Out = "in[c";
    for (int D = 0; D < NumDims; ++D) {
      int Off = Read.offsets()[static_cast<std::size_t>(D)];
      if (Off == 0)
        continue;
      Out += " + (" + std::to_string(Off) + "LL)";
      if (D + 1 < NumDims)
        Out += " * S" + std::to_string(D);
    }
    return Out + "]";
  };
  std::string Expr = emitExpr(Program.update(), Options);
  std::string R = std::to_string(Program.radius());

  std::string Out = "// Naive double-buffered baseline for " +
                    Program.name() + ".\n#include <cmath>\n";
  Out += "typedef " + std::string(scalarTypeName(Program.elemType())) +
         " Real;\n";
  Out += "extern \"C\" int perfbench_naive_run(void *b0, void *b1, const "
         "long long *e, long long steps, int threads) {\n";
  Out += "  const long long R = " + R + ";\n";
  for (int D = 0; D < NumDims; ++D)
    Out += "  const long long N" + std::to_string(D) + " = e[" +
           std::to_string(D) + "];\n";
  // S<D>: row-major stride of dimension D over the padded layout.
  for (int D = NumDims - 2; D >= 0; --D) {
    std::string Next = std::to_string(D + 1);
    Out += "  const long long S" + std::to_string(D) + " = (N" + Next +
           " + 2 * R)" + (D + 1 < NumDims - 1 ? " * S" + Next : "") + ";\n";
  }
  Out += "  for (long long t = 0; t < steps; ++t) {\n"
         "    const Real *in = (const Real *)(t % 2 ? b1 : b0);\n"
         "    Real *out = (Real *)(t % 2 ? b0 : b1);\n"
         "#pragma omp parallel for num_threads(threads) schedule(static)\n";
  std::string Index;
  for (int D = 0; D < NumDims; ++D) {
    std::string V = "i" + std::to_string(D);
    Out += std::string(4 + 2 * D, ' ') + "for (long long " + V + " = 0; " +
           V + " < N" + std::to_string(D) + "; ++" + V + ")" +
           (D + 1 == NumDims ? " {\n" : "\n");
    Index += (D ? " + " : "") + std::string("(") + V + " + R)" +
             (D + 1 < NumDims ? " * S" + std::to_string(D) : "");
  }
  std::string Pad(4 + 2 * NumDims, ' ');
  Out += Pad + "const long long c = " + Index + ";\n";
  Out += Pad + "out[c] = " + Expr + ";\n";
  Out += std::string(2 + 2 * NumDims, ' ') + "}\n  }\n  return 0;\n}\n";
  return Out;
}

/// The naive loop compiled with the kernel flags through the public
/// NativeCompiler/KernelCache API, in its own cache so the pipeline's
/// cache statistics count only pipeline kernels.
struct NaiveLoop {
  using RunFn = int(void *, void *, const long long *, long long, int);
  std::unique_ptr<DynamicKernel> Library;
  RunFn *Run = nullptr;
  std::string Error;

  NaiveLoop(const StencilProgram &Program, const std::string &CacheDir) {
    NativeCompiler Compiler;
    KernelCache Cache(CacheDir);
    KernelArtifact Artifact = Cache.getOrBuild(naiveSource(Program), Compiler);
    if (!Artifact.Ok) {
      Error = "naive loop build failed: " + Artifact.Log;
      return;
    }
    Library = DynamicKernel::load(Artifact.LibraryPath, &Error);
    if (Library)
      Run = Library->fn<RunFn>("perfbench_naive_run");
    if (!Run && Error.empty())
      Error = "naive loop does not export perfbench_naive_run";
  }

  template <typename T>
  int run(Grid<T> &A, Grid<T> &B, long long Steps) const {
    return Run(A.data(), B.data(), A.extents().data(), Steps, Threads);
  }
};

/// Proves the naive loop bitwise against the tree-walk ReferenceExecutor
/// at a small extent, so the naive loop can serve as the full-size
/// reference without the reference's cost entering a timed interval.
template <typename T>
bool proveNaive(const StencilProgram &Program, const NaiveLoop &Naive,
                std::uint64_t Seed) {
  std::vector<long long> Extents =
      Program.numDims() == 1   ? std::vector<long long>{1031}
      : Program.numDims() == 2 ? std::vector<long long>{67, 45}
                               : std::vector<long long>{23, 19, 29};
  const long long Steps = 5;
  Grid<T> A(Extents, Program.radius()), B(A), C(A), D(A);
  fillSeeded(A, Seed);
  restore(A, B);
  restore(A, C);
  restore(A, D);
  referenceRun<T>(Program, {&A, &B}, Steps, EvalStrategy::TreeWalk);
  if (Naive.run(C, D, Steps) != 0)
    return false;
  return sameBits(Steps % 2 ? B : A, Steps % 2 ? D : C);
}

//===-- STREAM triad -------------------------------------------------------===//

struct TriadResult {
  double Gbs = 0;
  double ArrayBytes = 0;
  double LlcBytes = 0;
};

/// a[i] = b[i] + s * c[i] over three arrays that are each at least four
/// times the last-level cache; GB/s counts 24 bytes per element (STREAM
/// convention). Median of the timed passes.
TriadResult streamTriad() {
  TriadResult Result;
  long Llc = sysconf(_SC_LEVEL3_CACHE_SIZE);
  if (Llc <= 0)
    Llc = sysconf(_SC_LEVEL2_CACHE_SIZE);
  if (Llc <= 0)
    Llc = 32L << 20;
  Result.LlcBytes = static_cast<double>(Llc);
  long long N = 4LL * Llc / static_cast<long long>(sizeof(double)) + 1;
  Result.ArrayBytes = static_cast<double>(N) * sizeof(double);
  std::unique_ptr<double[]> A(new double[static_cast<std::size_t>(N)]);
  std::unique_ptr<double[]> B(new double[static_cast<std::size_t>(N)]);
  std::unique_ptr<double[]> C(new double[static_cast<std::size_t>(N)]);
  double *PA = A.get(), *PB = B.get(), *PC = C.get();
#pragma omp parallel for num_threads(Threads) schedule(static)
  for (long long I = 0; I < N; ++I) {
    PA[I] = 0;
    PB[I] = 1.0 + static_cast<double>(I & 7);
    PC[I] = 2.0;
  }
  const double Scalar = 3.0;
  std::vector<double> Gbs;
  for (int Pass = 0; Pass < 11; ++Pass) {
    double Start = now();
#pragma omp parallel for num_threads(Threads) schedule(static)
    for (long long I = 0; I < N; ++I)
      PA[I] = PB[I] + Scalar * PC[I];
    double Seconds = now() - Start;
    if (Pass > 0)
      Gbs.push_back(3.0 * Result.ArrayBytes / Seconds / 1e9);
  }
  // Reading a result back keeps the stores from being optimised away.
  Result.Gbs = PA[N / 2] == PB[N / 2] + Scalar * PC[N / 2] ? median(Gbs) : 0;
  return Result;
}

//===-- Reference work -----------------------------------------------------===//

/// One unit of fixed single-threaded work that is not the program: write
/// 600 lines of text and parse them back, then build and drop 1000 small
/// vectors. Host speed on a shared machine drifts by tens of percent over
/// minutes, and unevenly: library code that allocates, branches and
/// formats, as a tune does, slows more than a tight loop over a small
/// array. Timed beside simulated tune passes on a shared 4-vCPU VM, this
/// mix slowed by the same factor as the tunes in their slow periods.
double referenceUnit() {
  std::ostringstream Out;
  for (int K = 0; K < 600; ++K)
    Out << "cand" << K << ' ' << 1.0 / (K + 3) << ' ' << K * 17 << '\n';
  std::istringstream In(Out.str());
  std::string Word, Value, Count;
  double Sum = 0;
  while (In >> Word >> Value >> Count)
    Sum += std::stod(Value);
  std::vector<std::unique_ptr<std::vector<double>>> Live;
  for (int K = 0; K < 1000; ++K) {
    Live.push_back(std::make_unique<std::vector<double>>(16 + K % 50, K));
    if (K % 3 == 0)
      Live.erase(Live.begin() + (K * 7919) % Live.size());
  }
  for (const auto &V : Live)
    Sum += V->front();
  return Sum;
}

/// A fixed translation unit for the reference beside a native tune: a
/// small templated relaxation over std::vector with an OpenMP loop, about
/// the size and header set of an emitted kernel library.
constexpr const char *ReferenceTu = R"(#include <algorithm>
#include <cmath>
#include <numeric>
#include <vector>

template <typename T>
void relax(std::vector<T> &A, std::vector<T> &B, long N, int Steps) {
  for (int S = 0; S < Steps; ++S) {
#pragma omp parallel for schedule(static)
    for (long I = 1; I < N - 1; ++I)
      B[I] = (A[I - 1] + A[I] + A[I + 1]) / T(3) + std::sqrt(T(I % 7));
    std::swap(A, B);
  }
}

extern "C" double reference_run(long N, int Steps) {
  std::vector<float> Af(N, 1), Bf(N, 0);
  std::vector<double> Ad(N, 1), Bd(N, 0);
  relax(Af, Bf, N, Steps);
  relax(Ad, Bd, N, Steps);
  std::sort(Ad.begin(), Ad.end());
  return std::accumulate(Af.begin(), Af.end(), 0.0) + Ad.front();
}
)";

/// The reference beside a native tune, which compiles its candidates four
/// at a time: four concurrent builds of ReferenceTu into shared libraries
/// under \p Dir, by the compiler the kernels use but with fixed flags.
/// Returns the wall seconds, or a negative value if a build failed.
double referenceCompile(const fs::path &Dir) {
  static const std::string Compiler = NativeCompiler::detect();
  fs::create_directories(Dir);
  const fs::path Source = Dir / "reference.cpp";
  if (!fs::exists(Source))
    std::ofstream(Source.string()) << ReferenceTu;
  std::string Command = "cd '" + Dir.string() + "' && (";
  for (int I = 0; I < 4; ++I) {
    fs::remove(Dir / ("reference" + std::to_string(I) + ".so"));
    Command += Compiler + " -O2 -fPIC -shared -fopenmp -ffp-contract=off -o "
               "reference" + std::to_string(I) + ".so reference.cpp & ";
  }
  Command += "wait) > reference.log 2>&1";
  double T0 = now();
  int Status = std::system(Command.c_str());
  double Seconds = now() - T0;
  for (int I = 0; I < 4; ++I)
    if (!fs::exists(Dir / ("reference" + std::to_string(I) + ".so")))
      Status = -1;
  return Status == 0 ? Seconds : -1;
}

//===-- Pipeline stages ----------------------------------------------------===//

/// Everything a traced run reports besides the span sums.
struct LayerFacts {
  long long TapeOps = 0;
  long long TuBytes = 0;
  long long SoBytes = 0;
  long long GateErrors = 0;
};

/// Operation windows by kind: timed set-ups, timed tunes (one Tuner::tune
/// call, or one tune-sim pass) and the traced run's set-up probes.
struct OpWindows {
  std::vector<OpWindow> Setup, Tune, Probe;
};

std::unique_ptr<StencilProgram> extractProgram(const std::string &Source,
                                               const std::string &Name,
                                               ScalarType Type) {
  obs::TraceSpan Span("frontend.extract");
  DiagnosticEngine Diags;
  StencilExtractor Extractor(Diags);
  std::optional<ExtractionResult> Result =
      Extractor.extractFromSource(Source, Name, Type);
  return Result ? std::move(Result->Program) : nullptr;
}

/// A kernel taken from source text to a loaded, runnable executor.
struct LoadedKernel {
  std::unique_ptr<StencilProgram> Program;
  ScheduleIR Schedule;
  std::unique_ptr<NativeExecutor> Executor;
  std::string Error;
};

/// Loads the kernel for \p Program and \p Config: lower, the public pre-JIT
/// gates (schedule verifier + standard analysis pipeline, as Tuner::tune
/// runs them), then the NativeExecutor, which emits, looks up or compiles
/// in \p Cache and dlopens. Adds the gates' error count to \p GateErrors.
void loadKernel(LoadedKernel &K, const BlockConfig &Config,
                const ProblemSize &Problem, KernelCache &Cache,
                const NativeRuntimeOptions &Options, long long &GateErrors) {
  const StencilProgram &Program = *K.Program;
  K.Schedule = lowerSchedule(Program, Config);
  ScheduleVerifyResult Verdict = verifyScheduleIR(K.Schedule, &Problem);
  AnalysisInput Input;
  Input.Program = &Program;
  Input.Schedule = &K.Schedule;
  AnalysisReport Report =
      AnalysisPassManager::standardPipeline().run(Input);
  long long Errors = static_cast<long long>(Verdict.Violations.size() +
                                            Report.errorCount());
  GateErrors += Errors;
  if (Errors != 0) {
    K.Error = "pre-JIT gate rejected " + Config.toString();
    return;
  }
  K.Executor =
      std::make_unique<NativeExecutor>(Program, K.Schedule, Options, &Cache);
  if (!K.Executor->ok())
    K.Error = K.Executor->error();
}

//===-- Workloads ----------------------------------------------------------===//

/// A run workload: a fixed blocked configuration and its bT=1 twin on a
/// fixed grid, checked against the naive loop at full size.
struct RunSpec {
  std::string Name;
  std::string Source;
  ScalarType Type;
  std::vector<long long> Extents;
  long long Steps;
  BlockConfig Blocked;
  BlockConfig Twin;
};

BlockConfig makeConfig(int BT, std::vector<int> BS, int HS) {
  BlockConfig C;
  C.BT = BT;
  C.BS = std::move(BS);
  C.HS = HS;
  return C;
}

/// j2d5pt with seeded literal coefficients; the divisor keeps the update
/// a contraction (the sum of weights over the divisor stays below 1/2).
std::string seededJacobiSource(std::uint64_t Seed) {
  SeededRng Rng(Seed ^ 0xc01dULL);
  long long Tenths[5];
  long long Sum = 0;
  for (long long &C : Tenths) {
    C = Rng.range(10, 160);
    Sum += C;
  }
  long long Divisor = (2 * Sum + 9) / 10 + Rng.range(1, 40);
  auto Lit = [&](int I) {
    return std::to_string(Tenths[I] / 10) + "." +
           std::to_string(Tenths[I] % 10) + "f";
  };
  return "for (t = 0; t < I_T; t++)\n"
         "  for (i = 1; i <= I_S2; i++)\n"
         "    for (j = 1; j <= I_S1; j++)\n"
         "      A[(t+1)%2][i][j] = (" +
         Lit(0) + " * A[t%2][i-1][j]\n        + " + Lit(1) +
         " * A[t%2][i][j-1] + " + Lit(2) + " * A[t%2][i][j]\n        + " +
         Lit(3) + " * A[t%2][i][j+1] + " + Lit(4) + " * A[t%2][i+1][j]) / " +
         std::to_string(Divisor) + ";\n";
}

/// The grid the tune workloads run their tuned kernel on: L3-sized
/// (16 MiB per float grid), so the wide tuned blocks still give every
/// thread several blocks of work.
ProblemSize tunedKernelProblem() {
  ProblemSize P;
  P.Extents = {2048, 2048};
  P.TimeSteps = 16;
  return P;
}

/// Simulated-tune problem sizes drawn from the seed within about 3% of
/// ProblemSize::paperDefault (2^20, 16384^2, 512^3; 1000 steps): the
/// model's thread census walks every block and chunk, so a wider draw would
/// change the work of a tune pass from seed to seed.
ProblemSize seededSimProblem(int NumDims, SeededRng &Rng) {
  ProblemSize P;
  if (NumDims == 1)
    P.Extents = {(1LL << 20) + Rng.range(-1, 1) * (1LL << 15)};
  else if (NumDims == 2)
    P.Extents = {16384 + Rng.range(-2, 2) * 256,
                 16384 + Rng.range(-2, 2) * 256};
  else
    P.Extents = {512 + Rng.range(-1, 1) * 16, 512 + Rng.range(-1, 1) * 16,
                 512 + Rng.range(-1, 1) * 16};
  P.TimeSteps = 1000 + Rng.range(-2, 2) * 50;
  return P;
}

struct Options {
  std::string Workload;
  std::uint64_t Seed = 1;
  double Seconds = 10;
  bool Trace = false;
  std::string WorkDir = ".bench_build/work";
};

struct Metric {
  std::string Name;
  double Value;
  std::string Unit;
};

/// Grids of one kernel phase: the pristine seeded input, the double
/// buffer every timed run starts from a fresh copy of, and the reference
/// output of the proven naive loop.
template <typename T> struct GridSet {
  Grid<T> Pristine, A, B, Ref;
  GridSet(const std::vector<long long> &Extents, int Halo)
      : Pristine(Extents, Halo), A(Extents, Halo), B(Extents, Halo),
        Ref(Extents, Halo) {}
};

class Bench {
public:
  explicit Bench(Options O) : Opt(std::move(O)) {
    Dir = fs::path(Opt.WorkDir) / Opt.Workload;
    fs::create_directories(Dir);
    Runtime.Threads = Threads;
    // The simulated sweep runs on the calling thread, like the reference
    // units its time is divided by (tuneCold fans compiles out to 4).
    TuneOpts.Threads = 1;
  }

  /// Runs the workload and prints the report; returns the exit code.
  int run();

private:
  Options Opt;
  fs::path Dir;
  NativeRuntimeOptions Runtime;
  TuneOptions TuneOpts;
  Tuner Tune{GpuSpec::teslaV100()};
  Ledger Ops;
  OpWindows Windows;
  LayerFacts Facts;
  double Start = 0;

  // Samples and facts the report reads.
  std::vector<double> SetupSeconds, TuneSeconds, UntracedSeconds;
  /// Per tune sample: the reference's seconds (one referenceUnit beside a
  /// simulated tune, one referenceCompile beside a native one) and the
  /// tune's seconds over them.
  std::vector<double> RefSeconds, TuneRefRatio;
  std::vector<double> BlockedSeconds, TwinSeconds, NaiveSeconds;
  /// Naive time over blocked time of the same loop iteration.
  std::vector<double> PairedSpeedup;
  /// The samples the trace overhead compares against UntracedSeconds.
  const std::vector<double> *TracedPrimary = &BlockedSeconds;
  long long Subnormals = 0;
  double Cells = 0, Steps = 0, ElemBytes = 0;
  double CacheHitRatio = 0;
  double CompileSeconds = 0;
  TriadResult Triad;

  /// Seconds of one referenceUnit; a unit whose result differs from the
  /// first one's is a failed operation.
  double reference() {
    static const double Expected = referenceUnit();
    double T0 = now();
    bool Same = referenceUnit() == Expected;
    double Seconds = now() - T0;
    Ops.record(Same, "reference work");
    return Seconds;
  }

  /// Seconds of one referenceCompile; a failed build is a failed
  /// operation.
  double compileReference() {
    double Seconds = referenceCompile(Dir / "reference");
    Ops.record(Seconds > 0, "reference compile (see " +
                                (Dir / "reference" / "reference.log").string() +
                                ")");
    return Seconds;
  }

  /// One tune sample: \p Seconds of tuning beside \p Ref seconds of
  /// \p Units references.
  void tuneSample(double Seconds, double Ref, int Units) {
    if (Ref <= 0)
      return;
    double One = Ref / Units;
    TuneSeconds.push_back(Seconds);
    RefSeconds.push_back(One);
    TuneRefRatio.push_back(Seconds / One);
  }

  bool timeLeft(double Fraction) const {
    return now() < Start + Fraction * Opt.Seconds;
  }

  std::unique_ptr<StencilProgram> extract(const std::string &Source,
                                          const std::string &Name,
                                          ScalarType Type);

  /// The back half of set-up: lower, gate, emit + cache + dlopen.
  bool load(LoadedKernel &K, const BlockConfig &Config,
            const ProblemSize &Problem, KernelCache &Cache);

  /// Source text to a loaded kernel. Returns false on any failure.
  bool setup(LoadedKernel &K, const std::string &Source,
             const std::string &Name, ScalarType Type,
             const BlockConfig &Config, const ProblemSize &Problem,
             KernelCache &Cache) {
    K.Program = extract(Source, Name, Type);
    return K.Program && load(K, Config, Problem, Cache);
  }

  /// Calls, each inside a benchmark span, the set-up stages that
  /// NativeExecutor runs inside itself and the program does not span:
  /// ExprPlan::compile, generateCppKernelLibrary and DynamicKernel::load.
  /// Called after each timed set-up, outside its interval; does nothing
  /// while tracing is off.
  void probe(const LoadedKernel &K);

  TuneOutcome tune(const StencilProgram &Program, const ProblemSize &Problem,
                   const TuneOptions &Options);

  template <typename T>
  std::unique_ptr<NaiveLoop> prepareNaive(const StencilProgram &Program);

  template <typename T>
  void prepareGrids(GridSet<T> &G, const NaiveLoop &Naive, long long Steps);

  template <typename T>
  bool checkedRun(const char *What, GridSet<T> &G, long long Steps,
                  std::vector<double> &Samples,
                  const std::function<int()> &Call);

  template <typename T>
  void kernelIteration(const NativeExecutor &Exec, const NativeExecutor *Twin,
                       const NaiveLoop &Naive, GridSet<T> &G, long long Steps,
                       int Iter);

  /// Hits and misses of \p Cache since \p Before; the timed phase must
  /// be served from the warm cache alone.
  void checkWarm(const KernelCache &Cache, const KernelCacheStats &Before);

  template <typename T> void runWorkload(const RunSpec &Spec);
  template <typename T> void tuneCold();
  template <typename T> void tuneSim();

  void startTracing() const {
    if (Opt.Trace)
      obs::TraceRecorder::global().enable();
  }
  void report();
};

std::unique_ptr<StencilProgram> Bench::extract(const std::string &Source,
                                               const std::string &Name,
                                               ScalarType Type) {
  std::unique_ptr<StencilProgram> Program = extractProgram(Source, Name, Type);
  Ops.record(Program != nullptr, "extract " + Name);
  return Program;
}

bool Bench::load(LoadedKernel &K, const BlockConfig &Config,
                 const ProblemSize &Problem, KernelCache &Cache) {
  loadKernel(K, Config, Problem, Cache, Runtime, Facts.GateErrors);
  return Ops.record(K.Error.empty(), "load " + Config.toString() + ": " +
                                         K.Error.substr(0, 400));
}

void Bench::probe(const LoadedKernel &K) {
  if (!obs::TraceRecorder::enabled())
    return;
  OpScope Op(Windows.Probe);
  {
    obs::TraceSpan Span("ir.plan");
    Facts.TapeOps = static_cast<long long>(
        ExprPlan::compile(K.Program->update(), K.Program->coefficients())
            .ops()
            .size());
  }
  {
    obs::TraceSpan Span("codegen.emit");
    Facts.TuBytes = static_cast<long long>(
        generateCppKernelLibrary(*K.Program, K.Schedule).size());
  }
  std::string Error;
  std::unique_ptr<DynamicKernel> Library;
  {
    obs::TraceSpan Span("runtime.load");
    Library = DynamicKernel::load(K.Executor->libraryPath(), &Error);
  }
  Ops.record(Library != nullptr, "re-open the loaded kernel: " + Error);
  std::error_code Ec;
  Facts.SoBytes =
      static_cast<long long>(fs::file_size(K.Executor->libraryPath(), Ec));
}

TuneOutcome Bench::tune(const StencilProgram &Program,
                        const ProblemSize &Problem,
                        const TuneOptions &Options) {
  TuneOutcome R = Tune.tune(Program, Problem, Options);
  std::size_t Rejected = R.VerifierRejections + R.AnalysisRejections;
  Facts.GateErrors += static_cast<long long>(Rejected);
  Ops.record(R.Feasible && Rejected == 0 && R.MeasurementFailures == 0,
             "tune " + Program.name());
  return R;
}

template <typename T>
std::unique_ptr<NaiveLoop> Bench::prepareNaive(const StencilProgram &Program) {
  auto Naive =
      std::make_unique<NaiveLoop>(Program, (Dir / "baseline").string());
  if (!Ops.record(Naive->Run != nullptr, "naive loop: " + Naive->Error))
    return nullptr;
  if (!Ops.record(proveNaive<T>(Program, *Naive, Opt.Seed),
                  "naive loop == ReferenceExecutor (tree walk)")) {
    Ops.Mismatch = true;
    return nullptr;
  }
  return Naive;
}

template <typename T>
void Bench::prepareGrids(GridSet<T> &G, const NaiveLoop &Naive,
                         long long Steps) {
  fillSeeded(G.Pristine, Opt.Seed);
  restore(G.Pristine, G.A);
  restore(G.Pristine, G.B);
  Ops.record(Naive.run(G.A, G.B, Steps) == 0, "naive reference run");
  restore(Steps % 2 ? G.B : G.A, G.Ref);
  Cells = static_cast<double>(interiorCells(G.A.extents()));
  this->Steps = static_cast<double>(Steps);
  ElemBytes = sizeof(T);
}

template <typename T>
bool Bench::checkedRun(const char *What, GridSet<T> &G, long long Steps,
                       std::vector<double> &Samples,
                       const std::function<int()> &Call) {
  restore(G.Pristine, G.A);
  restore(G.Pristine, G.B);
  double T0 = now();
  int Rc = Call();
  double Seconds = now() - T0;
  if (!Ops.record(Rc == 0, std::string(What) + " run (rc " +
                               std::to_string(Rc) + ")"))
    return false;
  const Grid<T> &Result = Steps % 2 ? G.B : G.A;
  if (!Ops.record(sameBits(Result, G.Ref),
                  std::string(What) + " output == reference")) {
    Ops.Mismatch = true;
    return false;
  }
  Subnormals = std::max(Subnormals, countSubnormals(Result));
  Samples.push_back(Seconds);
  return true;
}

template <typename T>
std::function<int()> kernelCall(const NativeExecutor &E, GridSet<T> &G,
                                long long Steps) {
  return [&E, &G, Steps] {
    const std::vector<long long> &Extents = G.A.extents();
    return E.runRaw(G.A.data(), G.B.data(), Extents.data(),
                    static_cast<int>(Extents.size()), Steps);
  };
}

template <typename T>
void Bench::kernelIteration(const NativeExecutor &Exec,
                            const NativeExecutor *Twin,
                            const NaiveLoop &Naive, GridSet<T> &G,
                            long long Steps, int Iter) {
  // Blocked and naive run back to back, in alternating order, so the
  // paired ratio cancels load that drifts on the host between iterations.
  auto NaiveRun = [&] { return Naive.run(G.A, G.B, Steps); };
  std::size_t Blocked0 = BlockedSeconds.size();
  std::size_t Naive0 = NaiveSeconds.size();
  if (Iter % 2)
    checkedRun("naive loop", G, Steps, NaiveSeconds, NaiveRun);
  checkedRun("blocked kernel", G, Steps, BlockedSeconds,
             kernelCall(Exec, G, Steps));
  if (Iter % 2 == 0)
    checkedRun("naive loop", G, Steps, NaiveSeconds, NaiveRun);
  if (BlockedSeconds.size() > Blocked0 && NaiveSeconds.size() > Naive0)
    PairedSpeedup.push_back(NaiveSeconds.back() / BlockedSeconds.back());
  if (Twin)
    checkedRun("bT=1 kernel", G, Steps, TwinSeconds,
               kernelCall(*Twin, G, Steps));
}

void Bench::checkWarm(const KernelCache &Cache,
                      const KernelCacheStats &Before) {
  KernelCacheStats After = Cache.stats();
  std::size_t Hits = After.Hits - Before.Hits;
  std::size_t Misses = After.Misses - Before.Misses;
  Ops.record(Hits > 0 && Misses == 0,
             "timed phase served from the warm kernel cache");
  CacheHitRatio = static_cast<double>(Hits) /
                  static_cast<double>(std::max<std::size_t>(1, Hits + Misses));
  std::printf("kernel cache (timed phase): %zu hits, %zu misses\n", Hits,
              Misses);
}

// The timed phase of every workload runs in rounds (some set-ups, some
// tunes, some kernel iterations) until the time is up, so each metric
// samples the whole run instead of one burst of it. The traced run makes
// the same calls as the untraced one; its probes sit outside every timed
// interval.

/// Set-ups and tunes per round of a run workload. A warm set-up takes
/// about 0.1 ms and a simulated tune, with its reference unit, about 3 ms,
/// with a 3-6x spread from fastest to slowest inside one run, so a round
/// takes many of each.
constexpr int RunSetupsPerRound = 40;
constexpr int RunTunesPerRound = 20;

template <typename T> void Bench::runWorkload(const RunSpec &Spec) {
  if (Opt.Trace)
    Triad = streamTriad();
  ProblemSize Problem;
  Problem.Extents = Spec.Extents;
  Problem.TimeSteps = Spec.Steps;

  std::unique_ptr<StencilProgram> Program =
      extract(Spec.Source, Spec.Name, Spec.Type);
  if (!Program)
    return;
  std::unique_ptr<NaiveLoop> Naive = prepareNaive<T>(*Program);
  if (!Naive)
    return;
  GridSet<T> G(Spec.Extents, Program->radius());
  prepareGrids(G, *Naive, Spec.Steps);

  // Warm the private cache outside the timed phase: the first run in a
  // checkout compiles here, every later lookup must hit.
  KernelCache Cache((Dir / "kernels").string());
  LoadedKernel K, TwinKernel;
  if (!setup(K, Spec.Source, Spec.Name, Spec.Type, Spec.Blocked, Problem,
             Cache))
    return;
  if (Opt.Trace && !setup(TwinKernel, Spec.Source, Spec.Name, Spec.Type,
                          Spec.Twin, Problem, Cache))
    return;
  KernelCacheStats Before = Cache.stats();

  Start = now();
  if (Opt.Trace) {
    // Untraced baseline of the primary operation, the blocked run.
    for (int I = 0; I < 3 || timeLeft(0.2); ++I)
      checkedRun("blocked kernel", G, Spec.Steps, UntracedSeconds,
                 kernelCall(*K.Executor, G, Spec.Steps));
  }
  startTracing();
  for (int Round = 0; Round < 3 || timeLeft(1.0); ++Round) {
    for (int I = 0; I < RunSetupsPerRound; ++I) {
      LoadedKernel S;
      double T0 = now();
      bool Ok;
      {
        OpScope Op(Windows.Setup);
        Ok = setup(S, Spec.Source, Spec.Name, Spec.Type, Spec.Blocked,
                   Problem, Cache);
      }
      double Seconds = now() - T0;
      if (!Ok)
        return;
      SetupSeconds.push_back(Seconds);
      probe(S);
    }
    for (int I = 0; I < RunTunesPerRound; ++I) {
      // One reference unit beside each tune, before and after in turn.
      double Ref = I % 2 ? reference() : 0;
      double T0 = now();
      TuneOutcome R;
      {
        OpScope Op(Windows.Tune);
        R = tune(*K.Program, Problem, TuneOpts);
      }
      double Seconds = now() - T0;
      if (I % 2 == 0)
        Ref = reference();
      if (R.Feasible)
        tuneSample(Seconds, Ref, 1);
    }
    kernelIteration(*K.Executor, TwinKernel.Executor.get(), *Naive, G,
                    Spec.Steps, Round);
  }
  checkWarm(Cache, Before);
}

template <typename T> void Bench::tuneCold() {
  if (Opt.Trace)
    Triad = streamTriad();
  const std::string Source = seededJacobiSource(Opt.Seed);
  const std::string Name = "j2d5pt-seeded";
  std::printf("tuned source:\n%s", Source.c_str());
  ProblemSize Problem = nativeMeasurementProblem(2);
  TracedPrimary = &SetupSeconds;
  TuneOptions Options = TuneOpts;
  Options.Backend = MeasurementBackend::Native;
  Options.TopK = 4;
  Options.Threads = std::min(4, Threads);
  Options.Native.Runtime = Runtime;

  std::unique_ptr<StencilProgram> Program =
      extract(Source, Name, ScalarType::Float);
  if (!Program)
    return;
  std::unique_ptr<NaiveLoop> Naive = prepareNaive<T>(*Program);
  if (!Naive)
    return;
  const ProblemSize RunProblem = tunedKernelProblem();
  GridSet<T> G(RunProblem.Extents, Program->radius());
  prepareGrids(G, *Naive, RunProblem.TimeSteps);

  // The tuner owns its cache, so the cold proof reads the counters every
  // KernelCache bumps, and compile time their histogram.
  obs::MetricsRegistry &Registry = obs::MetricsRegistry::global();
  obs::Histogram &Compile = Registry.histogram(
      "kernel_cache.compile_seconds", obs::compileSecondsBuckets());
  long long Tunes = 0, TuneHits = 0, TuneMisses = 0;

  // One cold operation: an empty private cache, then source text ->
  // native tune -> the winner loaded and runnable.
  LoadedKernel K;
  std::vector<double> WarmupSeconds;
  auto ColdOp = [&](std::vector<double> &SetupOut, bool Timed) {
    K = LoadedKernel();
    // A new directory per tune: loaded kernels stay mapped (RTLD_NODELETE)
    // and dlopen matches by path, so a reused path would hand the tune the
    // previous tune's mapping instead of loading what it just compiled.
    fs::path ColdDir = Dir / "cold" / std::to_string(Tunes);
    fs::remove_all(ColdDir);
    fs::create_directories(ColdDir);
    Options.Native.Runtime.CacheDir = ColdDir.string();
    KernelCache Cache(ColdDir.string());
    long long Hits0 = Registry.counterValue("kernel_cache.hits");
    long long Misses0 = Registry.counterValue("kernel_cache.misses");

    // A reference compile beside each timed cold operation, before and
    // after in turn.
    bool RefFirst = Tunes % 2;
    double Ref = Timed && RefFirst ? compileReference() : 0;
    double T0 = now(), TuneSec = 0;
    TuneOutcome R;
    bool Loaded = false;
    {
      OpScope Op(Windows.Setup);
      K.Program = extract(Source, Name, ScalarType::Float);
      if (!K.Program)
        return false;
      double T1 = now();
      {
        OpScope TuneOp(Windows.Tune);
        R = tune(*K.Program, Problem, Options);
      }
      TuneSec = now() - T1;
      // Read before the winner's load, which hits the cache the tune filled.
      TuneHits += Registry.counterValue("kernel_cache.hits") - Hits0;
      TuneMisses += Registry.counterValue("kernel_cache.misses") - Misses0;
      ++Tunes;
      Loaded = R.Feasible && load(K, R.Best, Problem, Cache);
    }
    double SetupSec = now() - T0;
    if (!Loaded)
      return false;
    SetupOut.push_back(SetupSec);
    if (Timed)
      tuneSample(TuneSec, RefFirst ? Ref : compileReference(), 1);
    probe(K);
    std::printf("cold tune: winner %s, %.3f s tune, %.3f s set-up\n",
                R.Best.toString().c_str(), TuneSec, SetupSec);
    // A freshly loaded kernel runs once, checked but untimed, before its
    // timed iterations.
    checkedRun("tuned kernel warm-up", G, RunProblem.TimeSteps, WarmupSeconds,
               kernelCall(*K.Executor, G, RunProblem.TimeSteps));
    return true;
  };

  fs::remove_all(Dir / "cold");
  Start = now();
  if (Opt.Trace) {
    for (int I = 0; I < 2; ++I)
      if (!ColdOp(UntracedSeconds, false))
        return;
  }
  startTracing();
  TuneHits = TuneMisses = 0;
  long long Tunes0 = Tunes;
  double CompileSum0 = Compile.sum();
  long long CompileCount0 = Compile.count();
  int Iter = 0;
  for (int Round = 0; Round < 3 || timeLeft(1.0); ++Round) {
    if (!ColdOp(SetupSeconds, true))
      return;
    for (int I = 0; I < 3; ++I)
      kernelIteration(*K.Executor, nullptr, *Naive, G, RunProblem.TimeSteps,
                      Iter++);
  }
  long long Compiles = Compile.count() - CompileCount0;
  CompileSeconds = Compiles > 0 ? (Compile.sum() - CompileSum0) /
                                      static_cast<double>(Compiles)
                                : 0;
  Ops.record(TuneHits == 0 && TuneMisses >= Tunes - Tunes0,
             "every tune compiled into an empty cache");
  CacheHitRatio = static_cast<double>(TuneHits) /
                  static_cast<double>(std::max(1LL, TuneHits + TuneMisses));
  std::printf("kernel cache (tunes): %lld hits, %lld misses over %lld "
              "tunes\n",
              TuneHits, TuneMisses, Tunes - Tunes0);
}

template <typename T> void Bench::tuneSim() {
  if (Opt.Trace)
    Triad = streamTriad();
  TracedPrimary = &TuneSeconds;
  // The 30 builtins, each with a seeded problem size.
  std::vector<std::string> Names = benchmarkStencilNames();
  for (const std::string &N : extraStencilNames())
    Names.push_back(N);
  SeededRng Rng(Opt.Seed);
  std::vector<std::unique_ptr<StencilProgram>> Programs;
  std::vector<ProblemSize> Problems;
  for (const std::string &N : Names) {
    Programs.push_back(makeBenchmarkStencil(N, ScalarType::Float));
    Problems.push_back(seededSimProblem(Programs.back()->numDims(), Rng));
  }

  // The winner of every builtin from a first, untimed tune: every timed
  // pass must pick the same (the tune is deterministic).
  std::vector<std::string> Expected;
  for (std::size_t I = 0; I < Programs.size(); ++I)
    Expected.push_back(
        tune(*Programs[I], Problems[I], TuneOpts).Best.toString());

  // The kernel the user runs: j2d5pt from source, tuned on the simulator
  // for the paper's problem size.
  const std::string Source = j2d5ptSource();
  const ProblemSize KernelTuneProblem = ProblemSize::paperDefault(2);
  const ProblemSize RunProblem = tunedKernelProblem();
  std::unique_ptr<StencilProgram> Program =
      extract(Source, "j2d5pt", ScalarType::Float);
  if (!Program)
    return;
  std::unique_ptr<NaiveLoop> Naive = prepareNaive<T>(*Program);
  if (!Naive)
    return;
  GridSet<T> G(RunProblem.Extents, Program->radius());
  prepareGrids(G, *Naive, RunProblem.TimeSteps);
  KernelCache Cache((Dir / "kernels").string());
  LoadedKernel K;
  BlockConfig Config = tune(*Program, KernelTuneProblem, TuneOpts).Best;
  if (!setup(K, Source, "j2d5pt", ScalarType::Float, Config, RunProblem,
             Cache))
    return;
  std::printf("kernel config (simulated tune of j2d5pt at %s): %s\n",
              KernelTuneProblem.toString().c_str(), Config.toString().c_str());
  KernelCacheStats Before = Cache.stats();

  // One pass tunes every builtin, with a reference unit beside each
  // tune, before and after in turn; returns {tune seconds, unit seconds}.
  auto Pass = [&] {
    double Tuning = 0, Ref = 0;
    OpScope Op(Windows.Tune);
    for (std::size_t I = 0; I < Programs.size(); ++I) {
      if (I % 2)
        Ref += reference();
      double T0 = now();
      TuneOutcome R = tune(*Programs[I], Problems[I], TuneOpts);
      Tuning += now() - T0;
      if (I % 2 == 0)
        Ref += reference();
      if (!Ops.record(R.Best.toString() == Expected[I],
                      "tune of " + Names[I] + " picks " + Expected[I]))
        Ops.Mismatch = true;
    }
    return std::make_pair(Tuning, Ref);
  };

  Start = now();
  if (Opt.Trace) {
    for (int I = 0; I < 3 || timeLeft(0.2); ++I)
      UntracedSeconds.push_back(Pass().first);
  }
  startTracing();
  for (int Round = 0; Round < 3 || timeLeft(1.0); ++Round) {
    for (int I = 0; I < 5; ++I) {
      LoadedKernel S;
      double T0 = now();
      bool Ok = false;
      {
        OpScope Op(Windows.Setup);
        S.Program = extract(Source, "j2d5pt", ScalarType::Float);
        if (S.Program) {
          BlockConfig Picked =
              tune(*S.Program, KernelTuneProblem, TuneOpts).Best;
          Ok = load(S, Picked, RunProblem, Cache);
        }
      }
      double Seconds = now() - T0;
      if (!Ok)
        return;
      SetupSeconds.push_back(Seconds);
      probe(S);
    }
    for (int I = 0; I < 3; ++I) {
      auto [Tuning, Ref] = Pass();
      tuneSample(Tuning, Ref, static_cast<int>(Programs.size()));
    }
    kernelIteration(*K.Executor, nullptr, *Naive, G, RunProblem.TimeSteps,
                    Round);
  }
  checkWarm(Cache, Before);
}

/// dram-2d: j2d5pt in double on 8192^2 (512 MiB per grid, over four times
/// the last-level cache), bT=4 beside its bT=1 twin.
RunSpec dram2dSpec() {
  return {"j2d5pt",
          j2d5ptSource(),
          ScalarType::Double,
          {8192, 8192},
          8,
          makeConfig(4, {256}, 512),
          makeConfig(1, {256}, 512)};
}

int Bench::run() {
  std::printf("workload %s, seed %llu, %.0f s, trace %d, %d threads\n",
              Opt.Workload.c_str(),
              static_cast<unsigned long long>(Opt.Seed), Opt.Seconds,
              Opt.Trace ? 1 : 0, Threads);
  if (Opt.Workload == "dram-2d")
    runWorkload<double>(dram2dSpec());
  else if (Opt.Workload == "tune-cold")
    tuneCold<float>();
  else if (Opt.Workload == "tune-sim")
    tuneSim<float>();
  else {
    std::fprintf(stderr, "perfbench: unknown workload '%s'\n",
                 Opt.Workload.c_str());
    return 2;
  }
  if (Opt.Trace) {
    obs::TraceRecorder &Recorder = obs::TraceRecorder::global();
    Recorder.disable();
    std::ofstream((Dir / "trace.json").string())
        << Recorder.toChromeTraceJson();
    std::ofstream((Dir / "metrics.json").string())
        << obs::MetricsRegistry::global().toJson(&Recorder);
  }
  report();
  return 0;
}

void Bench::report() {
  auto Mcells = [&](const std::vector<double> &Seconds) {
    return Seconds.empty() ? 0 : Cells * Steps / median(Seconds) / 1e6;
  };
  auto Ms = [](double Seconds) { return Seconds * 1e3; };
  double KernelMcells = Mcells(BlockedSeconds);
  double NaiveMcells = Mcells(NaiveSeconds);
  double TwinMcells = Mcells(TwinSeconds);
  double ErrorRate = Ops.Attempted ? static_cast<double>(Ops.Failed) /
                                         static_cast<double>(Ops.Attempted)
                                   : 1;
  std::vector<Metric> Out;
  if (!Opt.Trace) {
    // Both end-to-end speeds are ratios of two timings taken back to
    // back, so a drift in host speed moves both and cancels.
    Out = {
        // The lower quartile: a neighbour's load on the shared cache and
        // memory slows the naive loop more than the blocked kernel, which
        // inflates a pair's ratio; this drops those pairs and errs low.
        {"vs_naive_x", quantile(PairedSpeedup, 0.25), "x"},
        {"tune_vs_ref_x", median(TuneRefRatio), "x"},
        {"setup_s", median(SetupSeconds), "s"},
        {"success_rate", 1 - ErrorRate, "ratio"},
    };
  } else {
    double BlockedMedian = median(BlockedSeconds);
    // A step without temporal reuse reads one grid and writes one:
    // computed from the array sizes, not measured traffic.
    double GbsComputed =
        BlockedMedian > 0 ? 2 * Cells * ElemBytes * Steps / BlockedMedian / 1e9
                          : 0;
    double Untraced = median(UntracedSeconds);
    double Traced = median(*TracedPrimary);
    // Layer times are the program's own spans (tune.*, cache.*,
    // measure.*) and the benchmark's, summed per timed operation.
    const SpanIndex Spans;
    SpanValue SweepCandidates = [](const obs::SpanRecord &Span) {
      return Span.Name == "tune.sweep"
                 ? std::stod("0" + spanAttr(Span, "candidates"))
                 : 0.0;
    };
    SpanValue SimSweep = [](const obs::SpanRecord &Span) {
      return Span.Name == "tune.sweep" &&
                     spanAttr(Span, "backend") == "simulated"
                 ? static_cast<double>(Span.DurationNs) * 1e-9
                 : 0.0;
    };
    Out = {
        {"frontend.extract_ms", Ms(Spans.medianPerOp(Windows.Setup, spanSeconds({"frontend.extract"}))), "ms"},
        {"ir.plan_ms", Ms(Spans.medianPerOp(Windows.Probe, spanSeconds({"ir.plan"}))), "ms"},
        {"ir.tape_ops", static_cast<double>(Facts.TapeOps), "count"},
        {"tuning.tune_s", median(TuneSeconds), "s"},
        {"tuning.rank_ms", Ms(Spans.medianPerOp(Windows.Tune, spanSeconds({"tune.rank"}))), "ms"},
        {"tuning.candidates", Spans.medianPerOp(Windows.Tune, SweepCandidates), "count"},
        {"schedule.lower_ms", Ms(Spans.medianPerOp(Windows.Tune, spanSeconds({"tune.lower"}))), "ms"},
        {"analysis.gate_ms", Ms(Spans.medianPerOp(Windows.Tune, spanSeconds({"tune.verify", "tune.analyze"}))), "ms"},
        {"analysis.errors", static_cast<double>(Facts.GateErrors), "count"},
        {"tuning.sim_sweep_ms", Ms(Spans.medianPerOp(Windows.Tune, SimSweep)), "ms"},
        {"tuning.measure_s", Spans.medianPerOp(Windows.Tune, spanSeconds({"measure.candidate"})), "s"},
        {"codegen.emit_ms", Ms(Spans.medianPerOp(Windows.Probe, spanSeconds({"codegen.emit"}))), "ms"},
        {"codegen.tu_bytes", static_cast<double>(Facts.TuBytes), "bytes"},
        {"runtime.compile_s", CompileSeconds, "s"},
        {"runtime.so_bytes", static_cast<double>(Facts.SoBytes), "bytes"},
        {"runtime.cache_lookup_ms", Ms(Spans.medianPerOp(Windows.Setup, spanSeconds({"cache.get_or_build"}, {"cache.compile"}))), "ms"},
        {"runtime.cache_hit_ratio", CacheHitRatio, "ratio"},
        {"runtime.load_ms", Ms(Spans.medianPerOp(Windows.Probe, spanSeconds({"runtime.load"}))), "ms"},
        {"runtime.kernel_mcells", KernelMcells, "Mcell/s"},
        {"runtime.run_ms_p50", Ms(BlockedMedian), "ms"},
        {"runtime.run_cv", coefficientOfVariation(BlockedSeconds), "ratio"},
        {"runtime.bt1_mcells", TwinMcells, "Mcell/s"},
        {"runtime.temporal_gain_x", TwinMcells > 0 ? KernelMcells / TwinMcells : 0, "x"},
        {"runtime.gbs_computed", GbsComputed, "GB/s"},
        {"runtime.roofline_pct", Triad.Gbs > 0 ? 100 * GbsComputed / Triad.Gbs : 0, "%"},
        {"runtime.subnormal_cells", static_cast<double>(Subnormals), "count"},
        {"host.triad_gbs", Triad.Gbs, "GB/s"},
        {"host.naive_mcells", NaiveMcells, "Mcell/s"},
        {"host.ref_ms", Ms(median(RefSeconds)), "ms"},
        {"trace_overhead_pct", Untraced > 0 ? 100 * (Traced - Untraced) / Untraced : 0, "%"},
        {"error_rate", ErrorRate, "ratio"},
    };
    std::printf("triad: 3 arrays of %.0f MiB each, last-level cache %.0f MiB\n",
                Triad.ArrayBytes / (1 << 20), Triad.LlcBytes / (1 << 20));
    std::printf("trace written to %s\n", (Dir / "trace.json").c_str());
  }

  auto Summary = [](const char *What, std::vector<double> V,
                    const char *Unit = "s") {
    if (V.empty())
      return;
    std::sort(V.begin(), V.end());
    std::printf("%-14s n=%-4zu min %.6g  p25 %.6g  median %.6g  max %.6g %s\n",
                What, V.size(), V.front(), quantile(V, 0.25), median(V),
                V.back(), Unit);
  };
  Summary("set-up", SetupSeconds);
  Summary("tune", TuneSeconds);
  Summary("reference", RefSeconds);
  Summary("tune/ref", TuneRefRatio, "x");
  Summary("blocked run", BlockedSeconds);
  Summary("bT=1 run", TwinSeconds);
  Summary("naive run", NaiveSeconds);
  Summary("naive/blocked", PairedSpeedup, "x");
  std::printf("error_rate %.6f (%lld failed of %lld operations)\n", ErrorRate,
              Ops.Failed, Ops.Attempted);
  for (const Metric &M : Out)
    std::printf("%-26s %.6g %s\n", M.Name.c_str(), M.Value, M.Unit.c_str());
  std::string Json = "{\"correct\": ";
  Json += !Ops.Mismatch && Ops.Failed == 0 ? "true" : "false";
  Json += ", \"attempted\": " + std::to_string(Ops.Attempted);
  Json += ", \"failed\": " + std::to_string(Ops.Failed);
  Json += ", \"metrics\": {";
  for (std::size_t I = 0; I < Out.size(); ++I) {
    char Value[64];
    std::snprintf(Value, sizeof(Value), "%.17g",
                  std::isfinite(Out[I].Value) ? Out[I].Value : 0.0);
    Json += (I ? ", \"" : "\"") + Out[I].Name + "\": {\"value\": " + Value +
            ", \"unit\": \"" + Out[I].Unit + "\"}";
  }
  Json += "}}";
  std::printf("%s\n", Json.c_str());
}

bool parseArgs(int Argc, char **Argv, Options &O) {
  for (int I = 1; I + 1 < Argc; I += 2) {
    std::string Flag = Argv[I], Value = Argv[I + 1];
    if (Flag == "--workload")
      O.Workload = Value;
    else if (Flag == "--seed")
      O.Seed = std::stoull(Value);
    else if (Flag == "--seconds")
      O.Seconds = std::stod(Value);
    else if (Flag == "--trace")
      O.Trace = Value == "1";
    else if (Flag == "--work-dir")
      O.WorkDir = Value;
    else
      return false;
  }
  return Argc % 2 == 1 && !O.Workload.empty() && O.Seconds > 0;
}

} // namespace

int main(int Argc, char **Argv) {
  Options O;
  try {
    if (!parseArgs(Argc, Argv, O)) {
      std::fprintf(stderr, "usage: an5d_perfbench --workload NAME --seed N "
                           "--seconds S --trace 0|1 [--work-dir DIR]\n");
      return 2;
    }
  } catch (const std::exception &E) {
    std::fprintf(stderr, "perfbench: bad argument: %s\n", E.what());
    return 2;
  }
  Threads = std::max(1, static_cast<int>(std::thread::hardware_concurrency()));
  Bench B(O);
  return B.run();
}
