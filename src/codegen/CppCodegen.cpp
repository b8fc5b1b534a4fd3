//===- CppCodegen.cpp - Portable C++ backend ---------------------------------===//
//
// Part of the AN5D reproduction project, under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "codegen/CppCodegen.h"

#include "codegen/ExprEmitter.h"

#include <cassert>

namespace an5d {

namespace {

/// Which translation unit is being generated; the blocked invocation body
/// is shared, the surrounding scaffolding differs.
enum class CppEmitMode { CheckProgram, KernelLibrary };

} // namespace

/// Emits the update expression body for the generated evalCell template.
/// Kernel libraries round float literals through float precision so the
/// compiled arithmetic matches the in-process evaluators bit for bit.
static std::string emitUpdateExpr(const StencilProgram &Program,
                                  CppEmitMode Mode) {
  ExprEmitOptions Options;
  Options.Type = Program.elemType();
  Options.Program = &Program;
  Options.ReadEmitter = defaultReadMacro;
  Options.ExactFloatLiterals = Mode == CppEmitMode::KernelLibrary;
  return emitExpr(Program.update(), Options);
}

/// Common prelude: includes, constants, indexing, evalCell, schedule.
/// Only RAD, BT, BS* and HS are read off the lowered IR. The emitted code
/// re-derives the rest of the schedule instead of rendering the IR's
/// invocations: the runInvocation bodies recompute the compute width,
/// tier reach, stream lag, load reach and ring depth from BT, RAD and
/// `degree`, and `schedule()` below re-implements the host time-block
/// schedule.
static std::string emitPrelude(const StencilProgram &Program,
                               const ScheduleIR &IR,
                               const ProblemSize *Problem, CppEmitMode Mode) {
  int NumDims = IR.NumDims;
  std::string Out;
  if (Mode == CppEmitMode::CheckProgram)
    Out += "// Generated by the AN5D reproduction framework: blocked-vs-"
           "reference self check.\n";
  else
    Out += "// Generated by the AN5D reproduction framework: native OpenMP "
           "kernel library.\n";
  Out += "// stencil " + IR.StencilName + ", " + IR.Config.toString() + "\n";
  Out += "#include <algorithm>\n#include <cmath>\n#include <cstdint>\n"
         "#include <cstdio>\n#include <vector>\n";
  if (Mode == CppEmitMode::KernelLibrary) {
    Out += "#include <mutex>\n";
    Out += "#ifdef _OPENMP\n#include <omp.h>\n#endif\n";
  }
  Out += "\n";
  Out += "using Real = " + std::string(scalarTypeName(Program.elemType())) +
         ";\n";
  Out += "static const int RAD = " + std::to_string(IR.Radius) + ";\n";
  Out += "static const int BT = " + std::to_string(IR.Config.BT) + ";\n";
  if (NumDims >= 2)
    Out += "static const int BS1 = " + std::to_string(IR.Config.BS[0]) +
           ";\n";
  if (NumDims == 3)
    Out += "static const int BS2 = " + std::to_string(IR.Config.BS[1]) +
           ";\n";
  Out += "static const long long HS = " + std::to_string(IR.Config.HS) +
         ";\n";

  if (Mode == CppEmitMode::CheckProgram) {
    assert(Problem && "check programs bake the problem size in");
    Out += "static const long long NS = " +
           std::to_string(Problem->Extents[0]) + ";\n";
    if (NumDims >= 2)
      Out += "static const long long N1 = " +
             std::to_string(Problem->Extents[1]) + ";\n";
    if (NumDims == 3)
      Out += "static const long long N2 = " +
             std::to_string(Problem->Extents[2]) + ";\n";
    Out += "static const long long IT = " +
           std::to_string(Problem->TimeSteps) + ";\n";
  } else {
    Out += "// Grid extents (streaming dimension first); set per an5d_run "
           "call.\n";
    Out += "static long long NS = 0;\n";
    if (NumDims >= 2)
      Out += "static long long N1 = 0;\n";
    if (NumDims == 3)
      Out += "static long long N2 = 0;\n";
  }
  Out += "\n";

  if (NumDims == 1) {
    Out += "static inline size_t pidx(long long i) {\n"
           "  return (size_t)(i + RAD);\n"
           "}\n";
  } else if (NumDims == 2) {
    Out += "static inline size_t pidx(long long i, long long j) {\n"
           "  return (size_t)((i + RAD) * (N1 + 2 * RAD) + (j + RAD));\n"
           "}\n";
  } else {
    Out += "static inline size_t pidx(long long i, long long j, long long k) "
           "{\n"
           "  return (size_t)(((i + RAD) * (N1 + 2 * RAD) + (j + RAD)) * "
           "(N2 + 2 * RAD) + (k + RAD));\n"
           "}\n";
  }
  if (Mode == CppEmitMode::CheckProgram) {
    if (NumDims == 1)
      Out += "static const size_t TOTAL = (size_t)(NS + 2 * RAD);\n";
    else if (NumDims == 2)
      Out += "static const size_t TOTAL = (size_t)((NS + 2 * RAD) * (N1 + 2 "
             "* RAD));\n";
    else
      Out += "static const size_t TOTAL = (size_t)((NS + 2 * RAD) * (N1 + 2 "
             "* RAD) * (N2 + 2 * RAD));\n";
  }
  Out += "\n";

  Out += "// The stencil update; READ(ds" +
         std::string(NumDims >= 2 ? ", d1" : "") +
         std::string(NumDims == 3 ? ", d2" : "") +
         ") supplies the previous time-step.\n";
  Out += "template <typename ReadFn>\n"
         "static inline Real evalCell(const ReadFn &READ) {\n";
  Out += "  return " + emitUpdateExpr(Program, Mode) + ";\n}\n\n";

  if (Mode == CppEmitMode::CheckProgram)
    Out += "static void fillDeterministic(std::vector<Real> &a, uint64_t "
           "seed) {\n"
           "  uint64_t s = seed * 6364136223846793005ULL + "
           "1442695040888963407ULL;\n"
           "  for (Real &c : a) {\n"
           "    s = s * 6364136223846793005ULL + 1442695040888963407ULL;\n"
           "    c = (Real)((double)((s >> 11) + 1) / (double)((1ULL << 53) + "
           "2));\n"
           "  }\n"
           "}\n\n";

  Out += "// Host-side temporal block schedule (Section 4.3.1): degrees sum\n"
         "// to `it` and the call count matches `it` mod 2.\n"
         "static int schedule(long long it, int bt, int *deg) {\n"
         "  int n = 0;\n"
         "  for (long long done = 0; done + bt <= it; done += bt) deg[n++] = "
         "bt;\n"
         "  int rem = (int)(it % bt);\n"
         "  if (rem > 0) deg[n++] = rem;\n"
         "  if ((n % 2) != (int)(it % 2)) {\n"
         "    for (int i = 0; i < n; ++i) {\n"
         "      if (deg[i] >= 2) {\n"
         "        int high = deg[i] - deg[i] / 2, low = deg[i] / 2;\n"
         "        for (int j = n; j > i + 1; --j) deg[j] = deg[j - 1];\n"
         "        deg[i] = high; deg[i + 1] = low; ++n;\n"
         "        break;\n"
         "      }\n"
         "    }\n"
         "  }\n"
         "  return n;\n"
         "}\n\n";
  return Out;
}

static std::string emitReference(int NumDims) {
  if (NumDims == 1)
    return "static void referenceStep(const Real *in, Real *out) {\n"
           "  for (long long i = 0; i < NS; ++i)\n"
           "    out[pidx(i)] = evalCell([&](int ds) {\n"
           "      return in[pidx(i + ds)];\n"
           "    });\n"
           "}\n\n";
  if (NumDims == 2)
    return "static void referenceStep(const Real *in, Real *out) {\n"
           "  for (long long i = 0; i < NS; ++i)\n"
           "    for (long long j = 0; j < N1; ++j)\n"
           "      out[pidx(i, j)] = evalCell([&](int ds, int d1) {\n"
           "        return in[pidx(i + ds, j + d1)];\n"
           "      });\n"
           "}\n\n";
  return "static void referenceStep(const Real *in, Real *out) {\n"
         "  for (long long i = 0; i < NS; ++i)\n"
         "    for (long long j = 0; j < N1; ++j)\n"
         "      for (long long k = 0; k < N2; ++k)\n"
         "        out[pidx(i, j, k)] = evalCell([&](int ds, int d1, int d2) "
         "{\n"
         "          return in[pidx(i + ds, j + d1, k + d2)];\n"
         "        });\n"
         "}\n\n";
}

/// The blocked invocation for 1D stencils: the pure-streaming schedule.
/// There are no blocked dimensions — each "thread block" is a single lane
/// streaming its chunk of the only dimension, so all parallelism comes
/// from the hS division of Section 4.2.3 (hS=0 degenerates to one chunk
/// and serial execution, exactly like the emulator).
static std::string emitBlocked1d() {
  return R"cpp(// One kernel call: a temporal block of `degree` steps (Section 4.1).
// Every chunk reads only `in` plus its own rings and writes a disjoint
// [c0, c1) range of `out`, so the chunk loop is an OpenMP worksharing
// loop when compiled with -fopenmp (rings are per-thread). The single
// lane is its own compute region, so the 2D/3D halo-overwrite rule has
// no 1D counterpart: interior planes always evaluate, boundary planes
// stay pinned to the input.
static void runInvocation(const Real *__restrict__ in, Real *__restrict__ out, int degree) {
  const long long chunkLen = HS > 0 ? HS : NS;
  const long long nchunks = (NS + chunkLen - 1) / chunkLen;
  const int ringDepth = 2 * RAD + 1;
#ifdef _OPENMP
#pragma omp parallel
#endif
  {
    std::vector<std::vector<Real>> rings((size_t)degree,
                                         std::vector<Real>((size_t)ringDepth, (Real)0));
    auto slot = [&](long long p) {
      long long m = p % ringDepth;
      return (size_t)(m < 0 ? m + ringDepth : m);
    };
#ifdef _OPENMP
#pragma omp for schedule(static)
#endif
    for (long long chunk = 0; chunk < nchunks; ++chunk) {
      const long long c0 = chunk * chunkLen;
      const long long c1 = std::min(c0 + chunkLen, NS);
      for (auto &r : rings)
        std::fill(r.begin(), r.end(), (Real)0);
      const long long sBegin = c0 - (long long)degree * RAD;
      const long long sEnd = c1 - 1 + (long long)degree * RAD;
      for (long long s = sBegin; s <= sEnd; ++s) {
        // Tier 0: load one stream cell from "global memory".
        {
          const long long lo = std::max(c0 - (long long)degree * RAD, (long long)-RAD);
          const long long hi = std::min(c1 - 1 + (long long)degree * RAD, NS - 1 + RAD);
          if (s >= lo && s <= hi)
            rings[0][slot(s)] = in[pidx(s)];
        }
        // Tiers 1..degree: each lags its producer by one radius.
        for (int tier = 1; tier <= degree; ++tier) {
          const long long p = s - (long long)tier * RAD;
          const long long reach = (long long)(degree - tier) * RAD;
          const long long lo = std::max(c0 - reach, (long long)-RAD);
          const long long hi = std::min(c1 - 1 + reach, NS - 1 + RAD);
          if (p < lo || p > hi)
            continue;
          std::vector<Real> &prev = rings[(size_t)tier - 1];
          const bool interiorPlane = p >= 0 && p < NS;
          if (tier < degree) {
            // Boundary sub-planes pinned to the input's boundary values.
            rings[(size_t)tier][slot(p)] =
                interiorPlane ? evalCell([&](int ds) {
                  return prev[slot(p + ds)];
                })
                              : in[pidx(p)];
          } else {
            if (!interiorPlane || p < c0 || p >= c1)
              continue;
            out[pidx(p)] = evalCell([&](int ds) {
              return prev[slot(p + ds)];
            });
          }
        }
      }
    }
  }
}

)cpp";
}

/// The blocked invocation for 2D stencils (one blocked dimension). Shared
/// verbatim between the check program and the kernel library; the OpenMP
/// pragmas are inert without -fopenmp.
static std::string emitBlocked2d() {
  return R"cpp(// One kernel call: a temporal block of `degree` steps (Section 4.1).
// Every (chunk, block) pair reads only `in` plus its own rings and writes
// a disjoint region of `out`, so the pair loop is an OpenMP worksharing
// loop when compiled with -fopenmp (rings are per-thread).
static void runInvocation(const Real *__restrict__ in, Real *__restrict__ out, int degree) {
  const long long cw = BS1 - 2LL * degree * RAD; // compute-region width
  const long long nblocks = (N1 + cw - 1) / cw;
  const long long chunkLen = HS > 0 ? HS : NS;
  const long long nchunks = (NS + chunkLen - 1) / chunkLen;
  const int ringDepth = 2 * RAD + 1;
#ifdef _OPENMP
#pragma omp parallel
#endif
  {
    std::vector<std::vector<Real>> rings((size_t)degree,
                                         std::vector<Real>((size_t)(ringDepth * BS1), (Real)0));
    auto slot = [&](long long p) {
      long long m = p % ringDepth;
      return (size_t)(m < 0 ? m + ringDepth : m);
    };
#ifdef _OPENMP
#pragma omp for collapse(2) schedule(static)
#endif
    for (long long chunk = 0; chunk < nchunks; ++chunk)
      for (long long b = 0; b < nblocks; ++b) {
        const long long c0 = chunk * chunkLen;
        const long long c1 = std::min(c0 + chunkLen, NS);
        const long long origin = b * cw;
        const long long spanLo = origin - (long long)degree * RAD;
        for (auto &r : rings)
          std::fill(r.begin(), r.end(), (Real)0);
        const long long sBegin = c0 - (long long)degree * RAD;
        const long long sEnd = c1 - 1 + (long long)degree * RAD;
        for (long long s = sBegin; s <= sEnd; ++s) {
          // Tier 0: load one sub-plane from "global memory".
          {
            const long long lo = std::max(c0 - (long long)degree * RAD, (long long)-RAD);
            const long long hi = std::min(c1 - 1 + (long long)degree * RAD, NS - 1 + RAD);
            if (s >= lo && s <= hi)
              for (long long lane = 0; lane < BS1; ++lane) {
                const long long x = spanLo + lane;
                rings[0][slot(s) * BS1 + (size_t)lane] =
                    (x >= -RAD && x < N1 + RAD) ? in[pidx(s, x)] : (Real)0;
              }
          }
          // Tiers 1..degree: each lags its producer by one radius.
          for (int tier = 1; tier <= degree; ++tier) {
            const long long p = s - (long long)tier * RAD;
            const long long reach = (long long)(degree - tier) * RAD;
            const long long lo = std::max(c0 - reach, (long long)-RAD);
            const long long hi = std::min(c1 - 1 + reach, NS - 1 + RAD);
            if (p < lo || p > hi)
              continue;
            std::vector<Real> &prev = rings[(size_t)tier - 1];
            const bool interiorPlane = p >= 0 && p < NS;
            if (tier < degree) {
              std::vector<Real> &dst = rings[(size_t)tier];
              for (long long lane = 0; lane < BS1; ++lane) {
                const long long x = spanLo + lane;
                Real v;
                const bool interiorLane = x >= 0 && x < N1;
                if (!interiorPlane || !interiorLane) {
                  // Boundary sub-planes / lanes pinned to the input.
                  v = (x >= -RAD && x < N1 + RAD) ? in[pidx(p, x)] : (Real)0;
                } else if (x >= origin - reach && x < origin + cw + reach) {
                  v = evalCell([&](int ds, int d1) {
                    return prev[slot(p + ds) * BS1 + (size_t)(lane + d1)];
                  });
                } else {
                  // Halo overwrite: carry the previous tier's value forward.
                  v = prev[slot(p) * BS1 + (size_t)lane];
                }
                dst[slot(p) * BS1 + (size_t)lane] = v;
              }
            } else {
              if (!interiorPlane || p < c0 || p >= c1)
                continue;
              for (long long lane = 0; lane < BS1; ++lane) {
                const long long x = spanLo + lane;
                if (x < origin || x >= origin + cw || x < 0 || x >= N1)
                  continue;
                out[pidx(p, x)] = evalCell([&](int ds, int d1) {
                  return prev[slot(p + ds) * BS1 + (size_t)(lane + d1)];
                });
              }
            }
          }
        }
      }
  }
}

)cpp";
}

/// The blocked invocation for 3D stencils (two blocked dimensions).
static std::string emitBlocked3d() {
  return R"cpp(// One kernel call: a temporal block of `degree` steps (Section 4.1).
// Every (chunk, block) triple reads only `in` plus its own rings and
// writes a disjoint region of `out`, so the triple loop is an OpenMP
// worksharing loop when compiled with -fopenmp (rings are per-thread).
static void runInvocation(const Real *__restrict__ in, Real *__restrict__ out, int degree) {
  const long long cw1 = BS1 - 2LL * degree * RAD;
  const long long cw2 = BS2 - 2LL * degree * RAD;
  const long long nb1 = (N1 + cw1 - 1) / cw1;
  const long long nb2 = (N2 + cw2 - 1) / cw2;
  const long long chunkLen = HS > 0 ? HS : NS;
  const long long nchunks = (NS + chunkLen - 1) / chunkLen;
  const int ringDepth = 2 * RAD + 1;
  const long long LANES = (long long)BS1 * BS2;
#ifdef _OPENMP
#pragma omp parallel
#endif
  {
    std::vector<std::vector<Real>> rings((size_t)degree,
                                         std::vector<Real>((size_t)(ringDepth * LANES), (Real)0));
    auto slot = [&](long long p) {
      long long m = p % ringDepth;
      return (size_t)(m < 0 ? m + ringDepth : m);
    };
#ifdef _OPENMP
#pragma omp for collapse(3) schedule(static)
#endif
    for (long long chunk = 0; chunk < nchunks; ++chunk)
      for (long long b1 = 0; b1 < nb1; ++b1)
        for (long long b2 = 0; b2 < nb2; ++b2) {
          const long long c0 = chunk * chunkLen;
          const long long c1 = std::min(c0 + chunkLen, NS);
          const long long o1 = b1 * cw1, o2 = b2 * cw2;
          const long long lo1 = o1 - (long long)degree * RAD;
          const long long lo2 = o2 - (long long)degree * RAD;
          for (auto &r : rings)
            std::fill(r.begin(), r.end(), (Real)0);
          const long long sBegin = c0 - (long long)degree * RAD;
          const long long sEnd = c1 - 1 + (long long)degree * RAD;
          for (long long s = sBegin; s <= sEnd; ++s) {
            {
              const long long lo = std::max(c0 - (long long)degree * RAD, (long long)-RAD);
              const long long hi = std::min(c1 - 1 + (long long)degree * RAD, NS - 1 + RAD);
              if (s >= lo && s <= hi)
                for (long long lane = 0; lane < LANES; ++lane) {
                  const long long x1 = lo1 + lane / BS2, x2 = lo2 + lane % BS2;
                  const bool exists = x1 >= -RAD && x1 < N1 + RAD && x2 >= -RAD && x2 < N2 + RAD;
                  rings[0][slot(s) * LANES + (size_t)lane] =
                      exists ? in[pidx(s, x1, x2)] : (Real)0;
                }
            }
            for (int tier = 1; tier <= degree; ++tier) {
              const long long p = s - (long long)tier * RAD;
              const long long reach = (long long)(degree - tier) * RAD;
              const long long lo = std::max(c0 - reach, (long long)-RAD);
              const long long hi = std::min(c1 - 1 + reach, NS - 1 + RAD);
              if (p < lo || p > hi)
                continue;
              std::vector<Real> &prev = rings[(size_t)tier - 1];
              const bool interiorPlane = p >= 0 && p < NS;
              if (tier < degree) {
                std::vector<Real> &dst = rings[(size_t)tier];
                for (long long lane = 0; lane < LANES; ++lane) {
                  const long long x1 = lo1 + lane / BS2, x2 = lo2 + lane % BS2;
                  Real v;
                  const bool interiorLane = x1 >= 0 && x1 < N1 && x2 >= 0 && x2 < N2;
                  const bool exists = x1 >= -RAD && x1 < N1 + RAD && x2 >= -RAD && x2 < N2 + RAD;
                  const bool valid = x1 >= o1 - reach && x1 < o1 + cw1 + reach &&
                                     x2 >= o2 - reach && x2 < o2 + cw2 + reach;
                  if (!interiorPlane || !interiorLane) {
                    v = exists ? in[pidx(p, x1, x2)] : (Real)0;
                  } else if (valid) {
                    v = evalCell([&](int ds, int d1, int d2) {
                      return prev[slot(p + ds) * LANES +
                                  (size_t)(lane + (long long)d1 * BS2 + d2)];
                    });
                  } else {
                    v = prev[slot(p) * LANES + (size_t)lane];
                  }
                  dst[slot(p) * LANES + (size_t)lane] = v;
                }
              } else {
                if (!interiorPlane || p < c0 || p >= c1)
                  continue;
                for (long long lane = 0; lane < LANES; ++lane) {
                  const long long x1 = lo1 + lane / BS2, x2 = lo2 + lane % BS2;
                  if (x1 < o1 || x1 >= o1 + cw1 || x2 < o2 || x2 >= o2 + cw2 ||
                      x1 < 0 || x1 >= N1 || x2 < 0 || x2 >= N2)
                    continue;
                  out[pidx(p, x1, x2)] = evalCell([&](int ds, int d1, int d2) {
                    return prev[slot(p + ds) * LANES +
                                (size_t)(lane + (long long)d1 * BS2 + d2)];
                  });
                }
              }
            }
          }
        }
  }
}

)cpp";
}

static std::string emitMain() {
  return R"cpp(int main() {
  std::vector<Real> refBuf[2] = {std::vector<Real>(TOTAL), std::vector<Real>(TOTAL)};
  fillDeterministic(refBuf[0], 42);
  refBuf[1] = refBuf[0];
  std::vector<Real> blkBuf[2] = {refBuf[0], refBuf[0]};

  for (long long t = 0; t < IT; ++t)
    referenceStep(refBuf[t % 2].data(), refBuf[(t + 1) % 2].data());

  static int deg[1 << 16];
  const int calls = schedule(IT, BT, deg);
  int in = 0;
  for (int c = 0; c < calls; ++c) {
    runInvocation(blkBuf[in].data(), blkBuf[in ^ 1].data(), deg[c]);
    in ^= 1;
  }
  if (in != (int)(IT % 2)) {
    std::printf("AN5D-CHECK FAIL: buffer parity (%d vs %lld)\n", in, IT % 2);
    return 1;
  }

  const std::vector<Real> &want = refBuf[IT % 2];
  const std::vector<Real> &got = blkBuf[in];
  size_t mismatches = 0;
  for (size_t i = 0; i < TOTAL; ++i)
    if (!(want[i] == got[i]))
      ++mismatches;
  if (mismatches != 0) {
    std::printf("AN5D-CHECK FAIL: %zu of %zu cells differ\n", mismatches,
                TOTAL);
    return 1;
  }
  std::printf("AN5D-CHECK OK\n");
  return 0;
}
)cpp";
}

/// The extern "C" surface of a kernel library; see runtime/NativeExecutor.h
/// for the loader-side contract.
static std::string emitKernelApi(const StencilProgram &Program,
                                 const BlockConfig &Config) {
  int NumDims = Program.numDims();
  std::string Out;
  Out += "extern \"C\" {\n\n";
  Out += "int an5d_abi_version(void) { return " +
         std::to_string(CppKernelAbiVersion) + "; }\n";
  Out += "const char *an5d_stencil_name(void) { return \"" + Program.name() +
         "\"; }\n";
  Out += "const char *an5d_config(void) { return \"" + Config.toString() +
         "\"; }\n";
  Out += "int an5d_num_dims(void) { return " + std::to_string(NumDims) +
         "; }\n";
  Out += "int an5d_radius(void) { return RAD; }\n";
  Out += "int an5d_elem_size(void) { return (int)sizeof(Real); }\n";
  Out += "int an5d_block_time(void) { return BT; }\n\n";
  Out += "int an5d_max_threads(void) {\n"
         "#ifdef _OPENMP\n"
         "  return omp_get_max_threads();\n"
         "#else\n"
         "  return 1;\n"
         "#endif\n"
         "}\n\n";
  Out += "void an5d_set_threads(int n) {\n"
         "#ifdef _OPENMP\n"
         "  if (n > 0) omp_set_num_threads(n);\n"
         "#else\n"
         "  (void)n;\n"
         "#endif\n"
         "}\n\n";
  Out += "// Runs `it` time-steps of the blocked N.5D schedule. buf0 holds\n"
         "// the input at t=0; both buffers use the padded row-major layout\n"
         "// with a halo of RAD cells per side of every dimension in\n"
         "// `extents` (streaming dimension first). The result of step `it`\n"
         "// ends in buf{it % 2}, exactly as the double-buffered input loop\n"
         "// would leave it. The buffers must be distinct (runInvocation\n"
         "// declares them __restrict__). Returns 0 on success, non-zero\n"
         "// on bad arguments.\n";
  Out += "int an5d_run(void *buf0, void *buf1, const long long *extents,\n"
         "             long long it) {\n"
         "  if (!buf0 || !buf1 || buf0 == buf1 || !extents || it < 0)\n"
         "    return 1;\n"
         "  // One in-flight run per loaded kernel: the extents below are\n"
         "  // file-scope globals shared by every caller of this library\n"
         "  // (parallelism lives inside runInvocation, so serializing\n"
         "  // entry costs nothing).\n"
         "  static std::mutex runMutex;\n"
         "  std::lock_guard<std::mutex> lock(runMutex);\n";
  Out += "  NS = extents[0];\n";
  if (NumDims >= 2)
    Out += "  N1 = extents[1];\n";
  if (NumDims == 3)
    Out += "  N2 = extents[2];\n";
  Out += "  if (NS < 1";
  if (NumDims >= 2)
    Out += " || N1 < 1";
  if (NumDims == 3)
    Out += " || N2 < 1";
  Out += ")\n    return 1;\n";
  Out += "  if (it == 0)\n"
         "    return 0;\n"
         "  Real *bufs[2] = {(Real *)buf0, (Real *)buf1};\n"
         "  std::vector<int> deg((size_t)(it / BT) + 2, 0);\n"
         "  const int calls = schedule(it, BT, deg.data());\n"
         "  int in = 0;\n"
         "  for (int c = 0; c < calls; ++c) {\n"
         "    runInvocation(bufs[in], bufs[in ^ 1], deg[c]);\n"
         "    in ^= 1;\n"
         "  }\n"
         "  return in == (int)(it % 2) ? 0 : 2;\n"
         "}\n\n";
  Out += "} // extern \"C\"\n";
  return Out;
}

/// The blocked invocation for \p NumDims (1, 2 or 3 dimensions).
static std::string emitBlocked(int NumDims) {
  if (NumDims == 1)
    return emitBlocked1d();
  return NumDims == 2 ? emitBlocked2d() : emitBlocked3d();
}

std::string generateCppCheckProgram(const StencilProgram &Program,
                                    const ScheduleIR &Schedule,
                                    const ProblemSize &Problem) {
  assert(Schedule.NumDims >= 1 && Schedule.NumDims <= 3 &&
         "C++ backend supports 1D, 2D and 3D stencils");
  assert(Schedule.Config.isFeasible(Schedule.Radius) &&
         "codegen requires a feasible configuration");
  assert(static_cast<int>(Schedule.Config.BS.size()) ==
             Schedule.NumDims - 1 &&
         "one block size per non-streaming dimension required");
  std::string Out =
      emitPrelude(Program, Schedule, &Problem, CppEmitMode::CheckProgram);
  Out += emitReference(Schedule.NumDims);
  Out += emitBlocked(Schedule.NumDims);
  Out += emitMain();
  return Out;
}

std::string generateCppKernelLibrary(const StencilProgram &Program,
                                     const ScheduleIR &Schedule) {
  assert(Schedule.NumDims >= 1 && Schedule.NumDims <= 3 &&
         "C++ backend supports 1D, 2D and 3D stencils");
  assert(Schedule.Config.isFeasible(Schedule.Radius) &&
         "codegen requires a feasible configuration");
  assert(static_cast<int>(Schedule.Config.BS.size()) ==
             Schedule.NumDims - 1 &&
         "one block size per non-streaming dimension required");
  // The register cap is an NVCC knob with no bearing on the CPU kernel;
  // normalizing it away keeps configurations that differ only in the cap
  // byte-identical, so they share one kernel-cache artifact.
  ScheduleIR Normalized = Schedule;
  Normalized.Config.RegisterCap = 0;
  std::string Out =
      emitPrelude(Program, Normalized, nullptr, CppEmitMode::KernelLibrary);
  Out += emitBlocked(Normalized.NumDims);
  Out += emitKernelApi(Program, Normalized.Config);
  return Out;
}

} // namespace an5d
