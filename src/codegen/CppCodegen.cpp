//===- CppCodegen.cpp - Portable C++ backend ---------------------------------===//
//
// Part of the AN5D reproduction project, under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "codegen/CppCodegen.h"

#include "codegen/ExprEmitter.h"

#include <algorithm>
#include <cassert>
#include <charconv>
#include <climits>

namespace an5d {

namespace {

/// Which translation unit is being generated; the blocked invocation body
/// is shared, the surrounding scaffolding differs.
enum class CppEmitMode { CheckProgram, KernelLibrary };

/// \p Base plus the constant \p K, spelled "p", "p + 2" or "p - 1".
std::string plus(const std::string &Base, long long K) {
  if (K == 0)
    return Base;
  return Base + (K > 0 ? " + " : " - ") + std::to_string(K > 0 ? K : -K);
}

/// The named source pointers of the valid-segment loop. A tap reads
/// through the pointer Pk of its row key (ds, d1) — the stream offset,
/// plus the first blocked offset in 3D — at lane `l + <last offset>`.
/// Keys are sorted, so Pk names the same row in every invocation body.
/// 1D taps read the plane window `w` at their stream offset.
struct TapRows {
  int NumDims = 1;
  std::vector<std::pair<int, int>> Keys;
  std::vector<int> StreamOffsets; ///< Distinct stream offsets, sorted.

  explicit TapRows(const InvocationSchedule &Inv) : NumDims(Inv.NumDims) {
    for (const std::vector<int> &Tap : Inv.Taps) {
      Keys.push_back(key(Tap));
      StreamOffsets.push_back(Tap[0]);
    }
    std::sort(Keys.begin(), Keys.end());
    Keys.erase(std::unique(Keys.begin(), Keys.end()), Keys.end());
    std::sort(StreamOffsets.begin(), StreamOffsets.end());
    StreamOffsets.erase(
        std::unique(StreamOffsets.begin(), StreamOffsets.end()),
        StreamOffsets.end());
  }

  std::pair<int, int> key(const std::vector<int> &Offsets) const {
    return {Offsets[0], NumDims == 3 ? Offsets[1] : 0};
  }

  /// Index of the stream-offset pointer of \p Ds.
  std::size_t streamIndex(int Ds) const {
    return static_cast<std::size_t>(
        std::lower_bound(StreamOffsets.begin(), StreamOffsets.end(), Ds) -
        StreamOffsets.begin());
  }

  std::string read(const GridReadExpr &Read) const {
    const std::vector<int> &Offsets = Read.offsets();
    auto It = std::lower_bound(Keys.begin(), Keys.end(), key(Offsets));
    assert(It != Keys.end() && *It == key(Offsets) &&
           "read of a tap the schedule does not list");
    if (NumDims == 1)
      return "w[" + std::to_string(Offsets[0]) + "]";
    return "P" + std::to_string(It - Keys.begin()) + "[" +
           plus("l", Offsets.back()) + "]";
  }
};

} // namespace

/// Emits the update expression. Kernel libraries round float literals
/// through float precision so the compiled arithmetic matches the
/// in-process evaluators bit for bit.
static std::string
emitUpdateExpr(const StencilProgram &Program, CppEmitMode Mode,
               std::function<std::string(const GridReadExpr &)> Reads) {
  ExprEmitOptions Options;
  Options.Type = Program.elemType();
  Options.Program = &Program;
  Options.ReadEmitter = std::move(Reads);
  Options.ExactFloatLiterals = Mode == CppEmitMode::KernelLibrary;
  return emitExpr(Program.update(), Options);
}

/// Appends the decimal spelling of \p Value.
static void appendInt(std::string &Out, long long Value) {
  char Buffer[24];
  Out.append(Buffer, std::to_chars(Buffer, Buffer + sizeof(Buffer), Value).ptr);
}

/// Appends `static const <Type> <Name>[BT] = {...};`, one entry per
/// invocation degree, read off the lowered IR.
template <typename Fn>
static void degreeTable(std::string &Out, const char *Type,
                        const std::string &Name, const ScheduleIR &IR,
                        Fn Value) {
  Out += "static const ";
  Out += Type;
  Out += " " + Name + "[BT] = {";
  for (std::size_t I = 0; I < IR.Invocations.size(); ++I) {
    if (I)
      Out += ", ";
    appendInt(Out, Value(IR.Invocations[I]));
  }
  Out += "};\n";
}

/// Appends `static const long long <Name>[BT][BT]`: row degree-1, column
/// tier-1 (tiers past the degree read 0).
template <typename Fn>
static void tierTable(std::string &Out, const char *Name,
                      const ScheduleIR &IR, Fn Value) {
  Out += "static const long long ";
  Out += Name;
  Out += "[BT][BT] = {";
  for (std::size_t I = 0; I < IR.Invocations.size(); ++I) {
    const std::vector<TierSchedule> &Tiers = IR.Invocations[I].Tiers;
    Out += I ? ",\n    {" : "\n    {";
    for (std::size_t T = 0; T < IR.Invocations.size(); ++T) {
      if (T)
        Out += ", ";
      appendInt(Out, T < Tiers.size() ? Value(Tiers[T]) : 0);
    }
    Out += "}";
  }
  Out += "};\n";
}

/// The per-degree schedule tables every invocation body indexes, rendered
/// from IR.Invocations so the kernel runs exactly what the prover proved.
static void emitScheduleTables(std::string &Out, const ScheduleIR &IR) {
  const int NumDims = IR.NumDims;
  long long RingMax = 0;
  for (const InvocationSchedule &Inv : IR.Invocations)
    RingMax = std::max(RingMax, Inv.RingDepth);
  Out += "// The lowered schedule, one row per invocation degree (and one\n"
         "// column per tier): ring depth, tier-0 stream reach, stream chunk\n"
         "// length and stride (0 = one chunk), load-span halo, compute width\n"
         "// and block stride per blocked axis, tier stream lag and reach.\n"
         "static const long long HALO = ";
  appendInt(Out, IR.GridHalo);
  Out += ";\n";
  degreeTable(Out, "int", "RING", IR,
              [](const InvocationSchedule &I) { return I.RingDepth; });
  degreeTable(Out, "long long", "LOAD_REACH", IR,
              [](const InvocationSchedule &I) { return I.LoadStreamReach; });
  degreeTable(Out, "long long", "CHUNK_LEN", IR,
              [](const InvocationSchedule &I) { return I.ChunkLength; });
  degreeTable(Out, "long long", "CHUNK_STRIDE", IR,
              [](const InvocationSchedule &I) { return I.ChunkStride; });
  if (NumDims >= 2)
    degreeTable(Out, "long long", "SPAN_HALO", IR,
                [](const InvocationSchedule &I) { return I.LoadSpanHalo; });
  for (std::size_t A = 0; A + 1 < static_cast<std::size_t>(NumDims); ++A) {
    const std::string Axis = std::to_string(A + 1);
    degreeTable(Out, "long long", "CW" + Axis, IR,
                [A](const InvocationSchedule &I) {
                  return I.ComputeWidth[A];
                });
    degreeTable(Out, "long long", "STRIDE" + Axis, IR,
                [A](const InvocationSchedule &I) { return I.BlockStride[A]; });
  }
  tierTable(Out, "LAG", IR, [](const TierSchedule &T) { return T.StreamLag; });
  tierTable(Out, "REACH", IR, [](const TierSchedule &T) { return T.Reach; });
  Out += "// Per-thread ring: tiers 1..bT-1 (tier 1 reads the input, the\n"
         "// final tier writes the output), RING_MAX sub-planes each.\n"
         "static const int RING_MAX = ";
  appendInt(Out, RingMax);
  Out += ";\n";
  if (NumDims == 1)
    Out += "static const long long TIER_CELLS = 2 * RING_MAX; // two copies\n";
  else
    Out += std::string("static const long long LANES = ") +
           (NumDims == 2 ? "BS1" : "(long long)BS1 * BS2") +
           ";\n"
           "static const long long TIER_CELLS = RING_MAX * LANES;\n";
  Out += "static const long long RING_CELLS = (BT - 1) * TIER_CELLS;\n\n";
}

/// Common prelude: header, constants, schedule tables, the check
/// program's reference helpers, the host time-block schedule and the
/// integer helpers of the invocation bodies. Every structural quantity of
/// an invocation is a table row rendered from the lowered IR; the emitted
/// `schedule()` mirrors scheduleTimeBlocks (sim/TimeBlockScheduler.h),
/// whose postconditions the prover checks (A215), because the step count
/// is an `an5d_run` argument.
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
  if (Program.usesMathCall())
    Out += "#include <cmath>\n";
  if (Mode == CppEmitMode::CheckProgram)
    Out += "#include <cstdint>\n#include <cstdio>\n#include <vector>\n";
  else
    Out += "#ifdef _OPENMP\n#include <omp.h>\n#endif\n";
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
  }
  Out += "\n";
  emitScheduleTables(Out, IR);

  if (Mode == CppEmitMode::CheckProgram) {
    if (NumDims == 1) {
      Out += "static inline size_t pidx(long long i) {\n"
             "  return (size_t)(i + RAD);\n"
             "}\n"
             "static const size_t TOTAL = (size_t)(NS + 2 * RAD);\n";
    } else if (NumDims == 2) {
      Out += "static inline size_t pidx(long long i, long long j) {\n"
             "  return (size_t)((i + RAD) * (N1 + 2 * RAD) + (j + RAD));\n"
             "}\n"
             "static const size_t TOTAL = (size_t)((NS + 2 * RAD) * (N1 + 2 "
             "* RAD));\n";
    } else {
      Out += "static inline size_t pidx(long long i, long long j, long long "
             "k) {\n"
             "  return (size_t)(((i + RAD) * (N1 + 2 * RAD) + (j + RAD)) * "
             "(N2 + 2 * RAD) + (k + RAD));\n"
             "}\n"
             "static const size_t TOTAL = (size_t)((NS + 2 * RAD) * (N1 + 2 "
             "* RAD) * (N2 + 2 * RAD));\n";
    }
    Out += "\n";
    Out += "// The stencil update; READ(ds" +
           std::string(NumDims >= 2 ? ", d1" : "") +
           std::string(NumDims == 3 ? ", d2" : "") +
           ") supplies the previous time-step.\n";
    Out += "template <typename ReadFn>\n"
           "static inline Real evalCell(const ReadFn &READ) {\n";
    Out += "  return " + emitUpdateExpr(Program, Mode, defaultReadMacro) +
           ";\n}\n\n";
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
  }

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

  Out += "static inline long long minll(long long a, long long b) { return a "
         "< b ? a : b; }\n"
         "static inline long long maxll(long long a, long long b) { return a "
         "> b ? a : b; }\n"
         "static inline long long clampll(long long x, long long lo, long "
         "long hi) {\n"
         "  return x < lo ? lo : (x > hi ? hi : x);\n"
         "}\n"
         "// Folds a slot less than one ring depth outside 0 .. depth-1 "
         "back into it.\n"
         "static inline int wrapSlot(int s, int depth) {\n"
         "  return s < 0 ? s + depth : (s >= depth ? s - depth : s);\n"
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

/// \p Text with every non-empty line prefixed by \p N spaces.
static std::string indent(const std::string &Text, int N) {
  std::string Out;
  std::size_t Begin = 0;
  while (Begin < Text.size()) {
    std::size_t End = Text.find('\n', Begin);
    End = End == std::string::npos ? Text.size() : End + 1;
    if (Text[Begin] != '\n')
      Out.append(static_cast<std::size_t>(N), ' ');
    Out.append(Text, Begin, End - Begin);
    Begin = End;
  }
  return Out;
}

/// Appends one source pointer per stream offset of \p Rows, at
/// \p Indent: the input plane p+ds for tier 1, the producer's ring slot
/// otherwise. \p InTail follows the input plane index, \p RingTail
/// scales the slot.
static void emitStreamPointers(std::string &Out, const TapRows &Rows,
                               const char *Indent, const char *Decl,
                               const char *InTail, const char *RingTail) {
  for (std::size_t K = 0; K < Rows.StreamOffsets.size(); ++K) {
    const int Ds = Rows.StreamOffsets[K];
    Out += Indent;
    Out += Decl;
    appendInt(Out, static_cast<long long>(K));
    Out += " =\n";
    Out += Indent;
    Out += "    t == 0 ? in + (";
    Out += plus("p", Ds);
    Out += " + RAD)";
    Out += InTail;
    Out += " : ring + prev + ";
    Out += Ds == 0 ? "slot" : "wrapSlot(" + plus("slot", Ds) + ", depth)";
    Out += RingTail;
    Out += ";\n";
  }
}

/// The head of the streaming loop every body shares, at \p Indent: at
/// step s, tier t processes plane s - LAG (skipping planes outside its
/// window), its ring slot advanced by one per step instead of a modulo
/// per read. The tier body follows at \p Indent + 4, then a closing
/// brace at \p Indent + 2.
static std::string emitStepLoopHead(int Indent) {
  return indent(
      R"cpp(const long long sBegin = c0 - LOAD_REACH[d];
const long long sEnd = c1 - 1 + LAG[d][d];
int sSlot = (int)(((sBegin % depth) + depth) % depth);
for (long long s = sBegin; s <= sEnd; ++s, sSlot = sSlot + 1 == depth ? 0 : sSlot + 1)
  for (int t = 0; t < degree; ++t) {
    const long long p = s - LAG[d][t];
    if (p < pLo[t] || p > pHi[t])
      continue;
    // Ring slot of plane p. Tier t reads tier t-1: the input itself for
    // t == 0, else the ring cells at offset prev.
    const int slot = wrapSlot(sSlot - lagSlot[t], depth);
    const long long prev = (t - 1) * TIER_CELLS;
)cpp",
      Indent);
}

/// The update expression reading through the Pk pointers of \p Rows.
static std::string emitTapExpr(const StencilProgram &Program,
                               CppEmitMode Mode, const TapRows &Rows) {
  return emitUpdateExpr(Program, Mode, [&Rows](const GridReadExpr &R) {
    return Rows.read(R);
  });
}

/// The blocked invocation for 1D stencils: the pure-streaming schedule.
/// There are no blocked dimensions — each "thread block" is a single lane
/// streaming its chunk of the only dimension, so all parallelism comes
/// from the hS division of Section 4.2.3 (hS=0 degenerates to one chunk
/// and serial execution, exactly like the emulator).
static std::string emitBlocked1d(const StencilProgram &Program,
                                 const ScheduleIR &IR, CppEmitMode Mode) {
  const TapRows Rows(IR.full());
  std::string Out =
      R"cpp(// One kernel call: a temporal block of `degree` steps (Section 4.1).
// Every chunk reads only `in` plus the calling thread's `ring` and writes
// its own planes c0 .. c1-1 of `out`, so the chunk loop is an OpenMP
// worksharing loop. The single lane is its own compute region, so the
// 2D/3D halo-overwrite rule has no 1D counterpart: interior planes
// evaluate, boundary planes stay pinned to the input.
static void runInvocation(const Real *__restrict__ in, Real *__restrict__ out, int degree,
                          long long NS, Real *__restrict__ ring) {
  const int d = degree - 1;
  const int depth = RING[d];
  const long long chunkLen = CHUNK_LEN[d] > 0 ? CHUNK_LEN[d] : NS;
  const long long chunkStride = CHUNK_STRIDE[d] > 0 ? CHUNK_STRIDE[d] : NS;
  const long long nchunks = (NS + chunkStride - 1) / chunkStride;
#ifdef _OPENMP
#pragma omp for schedule(static)
#endif
  for (long long chunk = 0; chunk < nchunks; ++chunk) {
    const long long c0 = chunk * chunkStride;
    const long long c1 = minll(c0 + chunkLen, NS);
    // Per tier: the plane window and the ring-slot lag. The final tier
    // (reach 0) gets exactly the chunk's own planes.
    long long pLo[BT], pHi[BT];
    int lagSlot[BT];
    for (int t = 0; t < degree; ++t) {
      const long long reach = REACH[d][t];
      pLo[t] = maxll(c0 - reach, -HALO);
      pHi[t] = minll(c1 - 1 + reach, NS - 1 + HALO);
      lagSlot[t] = (int)(LAG[d][t] % depth);
    }
)cpp";
  Out += emitStepLoopHead(4);
  Out += R"cpp(        // Window of plane p: a ring tier stores each sub-plane twice,
        // at slot and slot + depth, so plane p + ds sits at w[ds].
        const Real *__restrict__ w =
            t == 0 ? in + (p + RAD) : ring + prev + (slot >= RAD ? slot : slot + depth);
        const Real v = p < 0 || p >= NS ? in[p + RAD] : )cpp";
  Out += emitTapExpr(Program, Mode, Rows);
  Out += R"cpp(;
        if (t == d) {
          out[p + RAD] = v;
        } else {
          ring[t * TIER_CELLS + slot] = v;
          ring[t * TIER_CELLS + slot + depth] = v;
        }
      }
  }
}

)cpp";
  return Out;
}

/// The blocked invocation for 2D stencils (one blocked dimension).
static std::string emitBlocked2d(const StencilProgram &Program,
                                 const ScheduleIR &IR, CppEmitMode Mode) {
  const TapRows Rows(IR.full());
  std::string Out =
      R"cpp(// One kernel call: a temporal block of `degree` steps (Section 4.1).
// Every (chunk, block) pair reads only `in` plus the calling thread's
// `ring` and writes a disjoint region of `out`, so the pair loop is an
// OpenMP worksharing loop. Every ring cell a tier reads was written
// earlier in the same block (prover rules A204/A205), so the ring is
// never cleared.
static void runInvocation(const Real *__restrict__ in, Real *__restrict__ out, int degree,
                          long long NS, long long N1, Real *__restrict__ ring) {
  const int d = degree - 1;
  const int depth = RING[d];
  const long long cw = CW1[d], stride = STRIDE1[d];
  const long long chunkLen = CHUNK_LEN[d] > 0 ? CHUNK_LEN[d] : NS;
  const long long chunkStride = CHUNK_STRIDE[d] > 0 ? CHUNK_STRIDE[d] : NS;
  const long long nchunks = (NS + chunkStride - 1) / chunkStride;
  const long long nblocks = (N1 + stride - 1) / stride;
  const long long S0 = N1 + 2 * RAD; // padded row length
#ifdef _OPENMP
#pragma omp for collapse(2) schedule(static)
#endif
  for (long long chunk = 0; chunk < nchunks; ++chunk)
    for (long long b = 0; b < nblocks; ++b) {
      const long long c0 = chunk * chunkStride;
      const long long c1 = minll(c0 + chunkLen, NS);
      const long long origin = b * stride;
      // The loaded span, cut to the padded grid: lane l is column lo + l,
      // at offset inLane + l of a padded row.
      const long long span = origin - SPAN_HALO[d], lo = maxll(span, -HALO);
      const long long n = BS1 - (lo - span), inLane = lo + RAD;
      // Lane segments: lanes 0 .. i0-1 and i1 .. e1-1 are boundary lanes
      // pinned to the input, lanes i0 .. i1-1 interior. Lanes from e1 on
      // lie past the padded grid and are never read.
      const long long i0 = clampll(-lo, 0, n), i1 = clampll(N1 - lo, 0, n);
      const long long e1 = clampll(N1 + HALO - lo, 0, n);
      // Per tier: the plane window, the valid lanes v0 .. v1-1 (interior
      // lanes beyond them carry the producer's value) and the ring-slot
      // lag. The final tier (reach 0) gets exactly the planes and lanes it
      // stores.
      long long pLo[BT], pHi[BT], v0[BT], v1[BT];
      int lagSlot[BT];
      for (int t = 0; t < degree; ++t) {
        const long long reach = REACH[d][t];
        pLo[t] = maxll(c0 - reach, -HALO);
        pHi[t] = minll(c1 - 1 + reach, NS - 1 + HALO);
        v0[t] = clampll(origin - reach - lo, i0, i1);
        v1[t] = clampll(origin + cw + reach - lo, v0[t], i1);
        lagSlot[t] = (int)(LAG[d][t] % depth);
      }
)cpp";
  Out += emitStepLoopHead(6);
  Out += R"cpp(          const Real *__restrict__ pin = in + (p + RAD) * S0 + inLane;
          Real *__restrict__ dst =
              t == d ? out + (p + RAD) * S0 + inLane : ring + t * TIER_CELLS + slot * LANES;
          const bool boundary = p < 0 || p >= NS; // never the final tier
          if (!boundary) {
)cpp";
  emitStreamPointers(Out, Rows, "            ", "const Real *__restrict__ P",
                     " * S0 + inLane", " * LANES");
  Out += R"cpp(#ifdef _OPENMP
#pragma omp simd
#endif
            for (long long l = v0[t]; l < v1[t]; ++l)
              dst[l] = )cpp";
  Out += emitTapExpr(Program, Mode, Rows);
  Out += R"cpp(;
          }
          if (t == d)
            continue;
          // Pinned and carried lanes; a boundary sub-plane pins every lane.
          const long long a = boundary ? i0 : v0[t], z = boundary ? i0 : v1[t];
          const Real *__restrict__ keep =
              boundary || t == 0 ? pin : ring + prev + slot * LANES;
          for (long long l = 0; l < i0; ++l)
            dst[l] = pin[l];
          for (long long l = i0; l < a; ++l)
            dst[l] = keep[l];
          for (long long l = z; l < i1; ++l)
            dst[l] = keep[l];
          for (long long l = i1; l < e1; ++l)
            dst[l] = pin[l];
        }
    }
}

)cpp";
  return Out;
}

/// The blocked invocation for 3D stencils (two blocked dimensions).
static std::string emitBlocked3d(const StencilProgram &Program,
                                 const ScheduleIR &IR, CppEmitMode Mode) {
  const TapRows Rows(IR.full());
  std::string Out =
      R"cpp(// One kernel call: a temporal block of `degree` steps (Section 4.1).
// Every (chunk, block) triple reads only `in` plus the calling thread's
// `ring` and writes a disjoint region of `out`, so the triple loop is an
// OpenMP worksharing loop. Every ring cell a tier reads was written
// earlier in the same block (prover rules A204/A205), so the ring is
// never cleared.
static void runInvocation(const Real *__restrict__ in, Real *__restrict__ out, int degree,
                          long long NS, long long N1, long long N2,
                          Real *__restrict__ ring) {
  const int d = degree - 1;
  const int depth = RING[d];
  const long long cw1 = CW1[d], stride1 = STRIDE1[d];
  const long long cw2 = CW2[d], stride2 = STRIDE2[d];
  const long long chunkLen = CHUNK_LEN[d] > 0 ? CHUNK_LEN[d] : NS;
  const long long chunkStride = CHUNK_STRIDE[d] > 0 ? CHUNK_STRIDE[d] : NS;
  const long long nchunks = (NS + chunkStride - 1) / chunkStride;
  const long long nb1 = (N1 + stride1 - 1) / stride1;
  const long long nb2 = (N2 + stride2 - 1) / stride2;
  const long long S1 = N2 + 2 * RAD;        // padded row length
  const long long S0 = (N1 + 2 * RAD) * S1; // padded plane size
#ifdef _OPENMP
#pragma omp for collapse(3) schedule(static)
#endif
  for (long long chunk = 0; chunk < nchunks; ++chunk)
    for (long long b1 = 0; b1 < nb1; ++b1)
      for (long long b2 = 0; b2 < nb2; ++b2) {
        const long long c0 = chunk * chunkStride;
        const long long c1 = minll(c0 + chunkLen, NS);
        const long long o1 = b1 * stride1, o2 = b2 * stride2;
        // The loaded span, cut to the padded grid: lane (j, l) is cell
        // (lo1 + j, lo2 + l), at offset inLane + j * S1 + l of a padded
        // plane and j * BS2 + l of a ring sub-plane.
        const long long span1 = o1 - SPAN_HALO[d], lo1 = maxll(span1, -HALO);
        const long long span2 = o2 - SPAN_HALO[d], lo2 = maxll(span2, -HALO);
        const long long n1 = BS1 - (lo1 - span1), n2 = BS2 - (lo2 - span2);
        const long long inLane = (lo1 + RAD) * S1 + lo2 + RAD;
        // Segments per blocked axis: lanes 0 .. i0-1 and i1 .. e1-1 are
        // pinned to the input, lanes i0 .. i1-1 interior.
        const long long i01 = clampll(-lo1, 0, n1), i11 = clampll(N1 - lo1, 0, n1);
        const long long e11 = clampll(N1 + HALO - lo1, 0, n1);
        const long long i02 = clampll(-lo2, 0, n2), i12 = clampll(N2 - lo2, 0, n2);
        const long long e12 = clampll(N2 + HALO - lo2, 0, n2);
        // Per tier: the plane window, the valid rows v01 .. v11-1 and lanes
        // v02 .. v12-1 (interior cells beyond them carry the producer's
        // value) and the ring-slot lag. The final tier (reach 0) gets
        // exactly the planes, rows and lanes it stores.
        long long pLo[BT], pHi[BT], v01[BT], v11[BT], v02[BT], v12[BT];
        int lagSlot[BT];
        for (int t = 0; t < degree; ++t) {
          const long long reach = REACH[d][t];
          pLo[t] = maxll(c0 - reach, -HALO);
          pHi[t] = minll(c1 - 1 + reach, NS - 1 + HALO);
          v01[t] = clampll(o1 - reach - lo1, i01, i11);
          v11[t] = clampll(o1 + cw1 + reach - lo1, v01[t], i11);
          v02[t] = clampll(o2 - reach - lo2, i02, i12);
          v12[t] = clampll(o2 + cw2 + reach - lo2, v02[t], i12);
          lagSlot[t] = (int)(LAG[d][t] % depth);
        }
)cpp";
  Out += emitStepLoopHead(8);
  Out += R"cpp(            const Real *pin = in + (p + RAD) * S0 + inLane;
            Real *dst = t == d ? out + (p + RAD) * S0 + inLane : ring + t * TIER_CELLS + slot * LANES;
            const long long drs = t == d ? S1 : BS2; // row stride of dst
            const long long rs = t == 0 ? S1 : BS2;  // row stride of the producer
            const bool boundary = p < 0 || p >= NS;  // never the final tier
            if (!boundary) {
              // Producer sub-plane of each stream offset.
)cpp";
  emitStreamPointers(Out, Rows, "              ", "const Real *B",
                     " * S0 + inLane", " * LANES");
  Out += R"cpp(              for (long long j = v01[t]; j < v11[t]; ++j) {
                Real *__restrict__ drow = dst + j * drs;
)cpp";
  for (std::size_t K = 0; K < Rows.Keys.size(); ++K)
    Out += "                const Real *__restrict__ P" + std::to_string(K) +
           " = B" + std::to_string(Rows.streamIndex(Rows.Keys[K].first)) +
           (Rows.Keys[K].second == 0
                ? " + j * rs;\n"
                : " + (" + plus("j", Rows.Keys[K].second) + ") * rs;\n");
  Out += R"cpp(#ifdef _OPENMP
#pragma omp simd
#endif
                for (long long l = v02[t]; l < v12[t]; ++l)
                  drow[l] = )cpp";
  Out += emitTapExpr(Program, Mode, Rows);
  Out += R"cpp(;
              }
            }
            if (t == d)
              continue;
            // Pinned and carried lanes; rows outside the interior, and
            // every row of a boundary sub-plane, pin every lane.
            const Real *carry = t == 0 ? pin : ring + prev + slot * LANES;
            for (long long j = 0; j < e11; ++j) {
              Real *__restrict__ drow = dst + j * BS2;
              const Real *__restrict__ pinRow = pin + j * S1;
              const bool pinned = boundary || j < i01 || j >= i11;
              const bool valid = !boundary && j >= v01[t] && j < v11[t];
              const Real *__restrict__ keep = pinned ? pinRow : carry + j * rs;
              const long long a = valid ? v02[t] : i02, z = valid ? v12[t] : i02;
              for (long long l = 0; l < i02; ++l)
                drow[l] = pinRow[l];
              for (long long l = i02; l < a; ++l)
                drow[l] = keep[l];
              for (long long l = z; l < i12; ++l)
                drow[l] = keep[l];
              for (long long l = i12; l < e12; ++l)
                drow[l] = pinRow[l];
            }
          }
      }
}

)cpp";
  return Out;
}

/// The runInvocation extent arguments of a \p NumDims stencil.
static std::string extentArgs(int NumDims) {
  if (NumDims == 1)
    return "NS";
  return NumDims == 2 ? "NS, N1" : "NS, N1, N2";
}

static std::string emitMain(int NumDims) {
  std::string Out = R"cpp(int main() {
  std::vector<Real> refBuf[2] = {std::vector<Real>(TOTAL), std::vector<Real>(TOTAL)};
  fillDeterministic(refBuf[0], 42);
  refBuf[1] = refBuf[0];
  std::vector<Real> blkBuf[2] = {refBuf[0], refBuf[0]};

  for (long long t = 0; t < IT; ++t)
    referenceStep(refBuf[t % 2].data(), refBuf[(t + 1) % 2].data());

  static int deg[1 << 16];
  const int calls = schedule(IT, BT, deg);
  std::vector<Real> ring((size_t)RING_CELLS);
  int in = 0;
  for (int c = 0; c < calls; ++c) {
    runInvocation(blkBuf[in].data(), blkBuf[in ^ 1].data(), deg[c], )cpp";
  Out += extentArgs(NumDims);
  Out += R"cpp(, ring.data());
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
  return Out;
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
         "// declares them __restrict__). Returns 0 on success, 1 on bad\n"
         "// arguments and 3 if a working allocation fails; then neither\n"
         "// buffer is written. Reentrant: the extents are locals and each\n"
         "// OpenMP thread owns its ring, so concurrent calls share nothing.\n";
  Out += "int an5d_run(void *buf0, void *buf1, const long long *extents,\n"
         "             long long it) {\n"
         "  if (!buf0 || !buf1 || buf0 == buf1 || !extents || it < 0)\n"
         "    return 1;\n";
  Out += "  const long long NS = extents[0];\n";
  if (NumDims >= 2)
    Out += "  const long long N1 = extents[1];\n";
  if (NumDims == 3)
    Out += "  const long long N2 = extents[2];\n";
  Out += "  if (NS < 1";
  if (NumDims >= 2)
    Out += " || N1 < 1";
  if (NumDims == 3)
    Out += " || N2 < 1";
  Out += ")\n    return 1;\n";
  Out += "  if (it == 0)\n"
         "    return 0;\n"
         "  Real *const bufs[2] = {(Real *)buf0, (Real *)buf1};\n"
         "  // Every allocation is size-checked and made here, before the\n"
         "  // parallel region, so no thread can fail alone and skip a\n"
         "  // barrier.\n"
         "  const long long ndeg = it / BT + 2;\n"
         "  if (ndeg > __INT_MAX__ ||\n"
         "      (unsigned long long)ndeg > __SIZE_MAX__ / sizeof(int))\n"
         "    return 3;\n"
         "  int *deg = (int *)__builtin_malloc(sizeof(int) * ndeg);\n"
         "  if (!deg)\n"
         "    return 3;\n"
         "  const int calls = schedule(it, BT, deg);\n"
         "  // One ring per thread, each on a 64-byte boundary.\n"
         "  const int nt = an5d_max_threads();\n"
         "  const unsigned long long stride =\n"
         "      (sizeof(Real) * RING_CELLS + 63) / 64 * 64;\n"
         "  char *rings =\n"
         "      (unsigned long long)nt <= (__SIZE_MAX__ - 64) / (stride + 64)\n"
         "          ? (char *)__builtin_malloc(stride * nt + 64)\n"
         "          : 0;\n"
         "  if (!rings) {\n"
         "    __builtin_free(deg);\n"
         "    return 3;\n"
         "  }\n"
         "  char *const ring0 = rings + (64 - (__UINTPTR_TYPE__)rings % 64);\n"
         "#ifdef _OPENMP\n"
         "#pragma omp parallel num_threads(nt)\n"
         "#endif\n"
         "  {\n"
         "    int t = 0;\n"
         "#ifdef _OPENMP\n"
         "    t = omp_get_thread_num();\n"
         "#endif\n"
         "    Real *ring = (Real *)(ring0 + stride * t);\n"
         "    for (int c = 0; c < calls; ++c)\n"
         "      runInvocation(bufs[c % 2], bufs[(c + 1) % 2], deg[c], " +
         extentArgs(NumDims) +
         ", ring);\n"
         "  }\n"
         "  __builtin_free(rings);\n"
         "  __builtin_free(deg);\n"
         "  return calls % 2 == (int)(it % 2) ? 0 : 2;\n"
         "}\n\n";
  Out += "} // extern \"C\"\n";
  return Out;
}

/// The blocked invocation for the IR's dimensionality (1, 2 or 3).
static std::string emitBlocked(const StencilProgram &Program,
                               const ScheduleIR &IR, CppEmitMode Mode) {
  assert(IR.Invocations.size() == static_cast<std::size_t>(IR.Config.BT) &&
         "the schedule lowers one invocation per degree 1..bT");
  if (IR.NumDims == 1)
    return emitBlocked1d(Program, IR, Mode);
  return IR.NumDims == 2 ? emitBlocked2d(Program, IR, Mode)
                         : emitBlocked3d(Program, IR, Mode);
}

std::string generateCppCheckProgram(const StencilProgram &Program,
                                    const ScheduleIR &Schedule,
                                    const ProblemSize &Problem) {
  assert(Schedule.NumDims >= 1 && Schedule.NumDims <= 3 &&
         "C++ backend supports 1D, 2D and 3D stencils");
  assert(Schedule.Config.isFeasible(Schedule.Radius, INT_MAX) &&
         "codegen requires a feasible configuration");
  assert(static_cast<int>(Schedule.Config.BS.size()) ==
             Schedule.NumDims - 1 &&
         "one block size per non-streaming dimension required");
  std::string Out =
      emitPrelude(Program, Schedule, &Problem, CppEmitMode::CheckProgram);
  Out += emitReference(Schedule.NumDims);
  Out += emitBlocked(Program, Schedule, CppEmitMode::CheckProgram);
  Out += emitMain(Schedule.NumDims);
  return Out;
}

std::string generateCppKernelLibrary(const StencilProgram &Program,
                                     const ScheduleIR &Schedule) {
  assert(Schedule.NumDims >= 1 && Schedule.NumDims <= 3 &&
         "C++ backend supports 1D, 2D and 3D stencils");
  assert(Schedule.Config.isFeasible(Schedule.Radius, INT_MAX) &&
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
  Out += emitBlocked(Program, Normalized, CppEmitMode::KernelLibrary);
  Out += emitKernelApi(Program, Normalized.Config);
  return Out;
}

} // namespace an5d
