//===- ScheduleVerifier.cpp - The N.5D schedule prover --------------------===//
//
// Part of the AN5D reproduction project, under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "analysis/ScheduleVerifier.h"

#include "ir/StencilProgram.h"
#include "sim/TimeBlockScheduler.h"

#include <algorithm>
#include <cstdarg>
#include <cstdio>

namespace an5d {

namespace {

/// printf-style std::string builder for finding messages.
std::string format(const char *Fmt, ...) {
  va_list Args;
  va_start(Args, Fmt);
  char Buffer[512];
  std::vsnprintf(Buffer, sizeof(Buffer), Fmt, Args);
  va_end(Args);
  return Buffer;
}

const char *plural(long long N) { return N == 1 ? "" : "s"; }

void addFinding(AnalysisReport &Report, const char *Id, std::string Subject,
                std::string Message) {
  AnalysisFinding F;
  F.Id = Id;
  F.Severity = FindingSeverity::Error;
  F.Pass = "schedule-prover";
  F.Subject = std::move(Subject);
  F.Message = std::move(Message);
  Report.Findings.push_back(std::move(F));
}

/// Closed integer interval [Lo, Hi].
struct Span {
  long long Lo = 0;
  long long Hi = 0;

  bool within(const Span &Outer) const {
    return Lo >= Outer.Lo && Hi <= Outer.Hi;
  }
};

/// The proof obligations of one invocation. Subject strings are formatted
/// only when a check fails, so a clean proof builds no strings.
class InvocationProof {
public:
  InvocationProof(const ScheduleIR &IR, const InvocationSchedule &Inv,
                  long long AllocHalo, long long MinExtent,
                  AnalysisReport &Report)
      : IR(IR), Inv(Inv), AllocHalo(AllocHalo), MinExtent(MinExtent),
        Report(Report) {}

  void run() {
    if (!proveStructure())
      return;
    for (int Axis = 0; Axis < Inv.NumDims; ++Axis)
      TapRange.push_back(tapRange(Axis));
    proveHalos();
    for (std::size_t T = 0; T < Inv.Tiers.size(); ++T)
      proveTier(T);
    proveWorksharing();
  }

private:
  /// Records one Error finding. \p Tier 0 and \p Axis -1 mean the finding
  /// is not tied to one tier or axis; axis 0 is the streaming axis and
  /// axes 1..N-1 are the blocked ones.
  void fail(const char *Id, int Tier, int Axis, std::string Message) {
    std::string Subject = "degree " + std::to_string(Inv.Degree);
    if (Tier > 0)
      Subject += " tier " + std::to_string(Tier);
    if (Axis == 0)
      Subject += " stream axis";
    else if (Axis > 0)
      Subject += " axis " + std::to_string(Axis);
    addFinding(Report, Id, std::move(Subject), std::move(Message));
  }

  /// Structural sanity (A210) and block capacity (A216). Returns false
  /// when the invocation is too malformed for the bounds checks to index
  /// into or reason about.
  bool proveStructure() {
    bool Ok = true;
    auto Malformed = [&](std::string Message) {
      fail("AN5D-A210", 0, -1, std::move(Message));
      Ok = false;
    };
    if (Inv.NumDims < 1 || Inv.Radius < 1 || Inv.Degree < 1)
      Malformed("non-positive NumDims, Radius or Degree");
    if (Inv.NumDims != IR.NumDims || Inv.Radius != IR.Radius ||
        Inv.GridHalo != IR.GridHalo || Inv.RingDepth != IR.RingDepth ||
        Inv.HaloPolicy != IR.HaloPolicy)
      Malformed("invocation disagrees with the shared ScheduleIR invariants");
    if (Inv.RingDepth < 1)
      Malformed("ring depth must be at least 1");
    if (Inv.GridHalo < 0 || Inv.LoadSpanHalo < 0 || Inv.LoadStreamReach < 0 ||
        Inv.ChunkLength < 0 || Inv.ChunkStride < 0)
      Malformed("negative halo, reach or chunk field");

    const std::size_t Blocked =
        static_cast<std::size_t>(std::max(Inv.NumDims - 1, 0));
    if (Inv.BS.size() != Blocked || Inv.ComputeWidth.size() != Blocked ||
        Inv.BlockStride.size() != Blocked || Inv.StoreWidth.size() != Blocked) {
      Malformed(format("bS carries %zu entr%s but the stencil has %zu "
                       "non-streaming dimension%s (or the blocked-axis "
                       "vectors disagree in size)",
                       Inv.BS.size(), Inv.BS.size() == 1 ? "y" : "ies",
                       Blocked, plural(static_cast<long long>(Blocked))));
      return false;
    }
    for (std::size_t A = 0; A < Blocked; ++A) {
      const int Axis = static_cast<int>(A) + 1;
      if (Inv.ComputeWidth[A] < 1) {
        fail("AN5D-A216", 0, Axis,
             format("compute width %lld is not positive (bS=%lld needs "
                    "2*%d*%d halo cells): the halo consumes the block",
                    Inv.ComputeWidth[A], Inv.BS[A], Inv.Degree, Inv.Radius));
        Ok = false;
      } else if (Inv.BS[A] < 1 || Inv.BlockStride[A] < 1 ||
                 Inv.StoreWidth[A] < 1) {
        Malformed(format("non-positive block span, stride or store width on "
                         "axis %d",
                         Axis));
      }
    }

    if (Inv.Tiers.size() != static_cast<std::size_t>(std::max(Inv.Degree, 0))) {
      Malformed(format("tier count %zu does not match degree %d",
                       Inv.Tiers.size(), Inv.Degree));
      return false;
    }
    for (std::size_t T = 0; T < Inv.Tiers.size(); ++T) {
      if (Inv.Tiers[T].Tier != static_cast<int>(T) + 1)
        Malformed(format("tier numbering broken at position %zu", T));
      if (Inv.Tiers[T].StreamLag < 0 || Inv.Tiers[T].Reach < 0)
        Malformed(format("negative stream lag or reach at tier %zu", T + 1));
    }
    for (std::size_t K = 0; K < Inv.Taps.size(); ++K) {
      if (static_cast<int>(Inv.Taps[K].size()) != Inv.NumDims) {
        Malformed(format("tap %zu arity does not match NumDims", K));
        return false;
      }
    }
    return Ok;
  }

  /// Minimum and maximum tap offset along \p Axis (0 = streaming).
  Span tapRange(int Axis) const {
    Span R;
    for (const std::vector<int> &Tap : Inv.Taps) {
      R.Lo = std::min<long long>(R.Lo, Tap[static_cast<std::size_t>(Axis)]);
      R.Hi = std::max<long long>(R.Hi, Tap[static_cast<std::size_t>(Axis)]);
    }
    return R;
  }

  /// Valid region of a tier with reach \p Reach on blocked axis \p A.
  Span valid(std::size_t A, long long Reach) const {
    return {-Reach, Inv.ComputeWidth[A] - 1 + Reach};
  }

  /// A201-A203, A211: the global halo and the halo policy.
  void proveHalos() {
    // A211: the 1D pure-streaming schedule (no blocked axes) is the only
    // shape without a spatial halo to carry.
    const bool WantsPin = Inv.BS.empty();
    if (WantsPin != (Inv.HaloPolicy == ScheduleHaloPolicy::PinBoundaryOnly))
      fail("AN5D-A211", 0, -1,
           format("halo policy %s on a schedule with%s blocked axes",
                  scheduleHaloPolicyName(Inv.HaloPolicy),
                  WantsPin ? " no" : ""));

    // A201: tier-0 stream loads are clamped to [-GridHalo, E-1+GridHalo].
    const SymBound AllocLo{0, -AllocHalo};
    const SymBound AllocHi{1, AllocHalo - 1};
    if (!provedLE(AllocLo, SymBound{0, -Inv.GridHalo}, MinExtent) ||
        !provedLE(SymBound{1, Inv.GridHalo - 1}, AllocHi, MinExtent))
      fail("AN5D-A201", 0, 0,
           format("stream-axis loads reach %lld cells past the edge but only "
                  "%lld are allocated",
                  Inv.GridHalo, AllocHalo));

    // A203: every tap of a valid computation, and every boundary-pinning
    // read, lands inside the grid halo.
    for (int Axis = 0; Axis < Inv.NumDims; ++Axis) {
      const Span &Tap = TapRange[static_cast<std::size_t>(Axis)];
      const long long Widest = std::max(-Tap.Lo, Tap.Hi);
      if (Inv.GridHalo < Widest)
        fail("AN5D-A203", 0, Axis,
             format("grid halo %lld is smaller than the widest tap offset "
                    "%lld",
                    Inv.GridHalo, Widest));
    }

    // A202: blocked-axis loads are clipped by the Exists region
    // [-Radius, E+Radius) before touching the buffers.
    const long long Rad = Inv.Radius;
    if (!Inv.BS.empty() &&
        (!provedLE(AllocLo, SymBound{0, -Rad}, MinExtent) ||
         !provedLE(SymBound{1, Rad - 1}, AllocHi, MinExtent)))
      for (std::size_t A = 0; A < Inv.BS.size(); ++A)
        fail("AN5D-A202", 0, static_cast<int>(A) + 1,
             format("blocked-axis loads reach %lld cells past the edge but "
                    "only %lld are allocated",
                    Rad, AllocHalo));
  }

  /// A204-A207, A212 for tier \p T (0-based). The producer of tier T is
  /// tier T-1; tier 1 consumes the tier-0 load stage (lag 0, position
  /// LoadOrderPosition, stream reach LoadStreamReach, the loaded span).
  void proveTier(std::size_t T) {
    const TierSchedule &Tier = Inv.Tiers[T];
    const TierSchedule *Producer = T == 0 ? nullptr : &Inv.Tiers[T - 1];
    const long long ProducerLag = Producer ? Producer->StreamLag : 0;
    const int ProducerPos =
        Producer ? Producer->OrderPosition : Inv.LoadOrderPosition;
    const int ProducerTier = Producer ? Producer->Tier : 0;
    const long long ProducerReach =
        Producer ? Producer->Reach : Inv.LoadStreamReach;
    const long long LagDiff = Tier.StreamLag - ProducerLag;
    const bool ProducerFirst = ProducerPos < Tier.OrderPosition;
    const Span &Stream = TapRange[0];

    // A205: at step s the consumer reads the producer's sub-plane
    // s - StreamLag + Stream.Hi. Same-step availability requires the
    // producer to run earlier in the step; otherwise only step s-1 is
    // written.
    const long long Newest = ProducerFirst ? LagDiff : LagDiff - 1;
    if (Newest < Stream.Hi)
      fail("AN5D-A205", Tier.Tier, 0,
           format("reads sub-plane p%+lld that producer tier %d has not "
                  "written at read time (producer lags %lld plane%s "
                  "behind%s)",
                  Stream.Hi, ProducerTier, LagDiff, plural(LagDiff),
                  ProducerFirst ? "" : " and runs after the consumer"));

    // A204: the oldest consumed sub-plane s - StreamLag + Stream.Lo is
    // overwritten (slot reuse) RingDepth planes after production; it must
    // survive until the consumer's read. Equality is tolerable only when
    // the consumer runs before the producer within the step.
    const long long LifetimeNeed = LagDiff - Stream.Lo;
    if (Inv.RingDepth < LifetimeNeed ||
        (Inv.RingDepth == LifetimeNeed && Tier.OrderPosition >= ProducerPos))
      fail("AN5D-A204", Tier.Tier, 0,
           format("ring depth %lld is too shallow: producer tier %d "
                  "overwrites the slot of sub-plane p%+lld before the "
                  "consumer reads it (%lld steps between production and "
                  "last read)",
                  Inv.RingDepth, ProducerTier, Stream.Lo, LifetimeNeed));

    // A212, streaming axis: the tier's computed plane range widened by
    // the stream taps stays within what its producer covers (symbolic in
    // the chunk bounds, so only the reach offsets compare).
    const Span StreamReads{-Tier.Reach + Stream.Lo, Tier.Reach + Stream.Hi};
    if (!StreamReads.within(Span{-ProducerReach, ProducerReach}))
      fail("AN5D-A212", Tier.Tier, 0,
           format("needs producer sub-planes at chunk offsets [%lld, %lld] "
                  "but tier %d only covers [%lld, %lld]",
                  StreamReads.Lo, StreamReads.Hi, ProducerTier,
                  -ProducerReach, ProducerReach));

    // Blocked axes: the tier evaluates lanes across its valid region and
    // reads lane X + tap - SpanLo (SpanLo = Origin - LoadSpanHalo) of a
    // ring row holding BS lanes.
    for (std::size_t A = 0; A < Inv.BS.size(); ++A) {
      const int Axis = static_cast<int>(A) + 1;
      const Span &Tap = TapRange[A + 1];
      const Span Valid = valid(A, Tier.Reach);
      const Span Reads{Valid.Lo + Tap.Lo, Valid.Hi + Tap.Hi};
      if (Inv.LoadSpanHalo + Reads.Lo < 0)
        fail("AN5D-A206", Tier.Tier, Axis,
             format("ring lane underflow: load-span halo %lld does not "
                    "cover reach %lld plus tap %lld",
                    Inv.LoadSpanHalo, Tier.Reach, Tap.Lo));
      if (Inv.LoadSpanHalo + Reads.Hi + 1 > Inv.BS[A])
        fail("AN5D-A207", Tier.Tier, Axis,
             format("ring lane overflow: span needs %lld lanes but the "
                    "block loads %lld",
                    Inv.LoadSpanHalo + Reads.Hi + 1, Inv.BS[A]));
      if (!Producer)
        continue;
      const Span Produced = valid(A, Producer->Reach);
      if (!Reads.within(Produced))
        fail("AN5D-A212", Tier.Tier, Axis,
             format("reads lanes [%lld, %lld] outside tier %d's valid "
                    "region [%lld, %lld]",
                    Reads.Lo, Reads.Hi, ProducerTier, Produced.Lo,
                    Produced.Hi));
    }
  }

  /// A208, A213, A214: stores come from computed cells, and the
  /// chunk x block worksharing set partitions the interior — adjacent
  /// strides neither overlap (a data race on `out`) nor leave gaps.
  void proveWorksharing() {
    for (std::size_t A = 0; A < Inv.BS.size(); ++A) {
      const int Axis = static_cast<int>(A) + 1;
      const long long Stride = Inv.BlockStride[A];
      const long long Store = Inv.StoreWidth[A];
      if (Store > Inv.ComputeWidth[A])
        fail("AN5D-A208", 0, Axis,
             format("store width %lld exceeds computed width %lld", Store,
                    Inv.ComputeWidth[A]));
      if (Stride < Store)
        fail("AN5D-A213", 0, Axis,
             format("adjacent blocks write %lld overlapping cell%s (origin "
                    "stride %lld < stored width %lld)",
                    Store - Stride, plural(Store - Stride), Stride, Store));
      else if (Stride > Store)
        fail("AN5D-A214", 0, Axis,
             format("adjacent blocks leave %lld cell%s unwritten (origin "
                    "stride %lld > stored width %lld)",
                    Stride - Store, plural(Stride - Store), Stride, Store));
    }
    const long long Length = Inv.ChunkLength;
    const long long Stride = Inv.ChunkStride;
    if (Length > 0 && Stride < Length)
      fail("AN5D-A213", 0, 0,
           format("adjacent stream chunks write %lld overlapping sub-plane%s "
                  "(chunk stride %lld < length %lld)",
                  Length - Stride, plural(Length - Stride), Stride, Length));
    else if (Length > 0 && Stride > Length)
      fail("AN5D-A214", 0, 0,
           format("adjacent stream chunks leave %lld sub-plane%s unwritten "
                  "(chunk stride %lld > length %lld)",
                  Stride - Length, plural(Stride - Length), Stride, Length));
  }

  const ScheduleIR &IR;
  const InvocationSchedule &Inv;
  const long long AllocHalo;
  const long long MinExtent;
  AnalysisReport &Report;
  std::vector<Span> TapRange; ///< Per axis, streaming axis first.
};

/// A215: the Section 4.3.1 host schedule for \p Steps time-steps keeps
/// its postconditions, and every degree it issues has a lowered
/// invocation.
void proveHostSchedule(const ScheduleIR &IR, long long Steps,
                       AnalysisReport &Report) {
  const int BT = IR.Config.BT;
  if (BT < 1) {
    addFinding(Report, "AN5D-A215", "host schedule",
               format("temporal degree bT=%d must be >= 1", BT));
    return;
  }
  const std::vector<int> Degrees = scheduleTimeBlocks(Steps, BT);
  std::string Broken = describeTimeBlockScheduleViolation(Degrees, Steps, BT);
  if (Broken.empty()) {
    for (int Degree : Degrees) {
      const std::size_t I = static_cast<std::size_t>(Degree) - 1;
      if (I >= IR.Invocations.size() || IR.Invocations[I].Degree != Degree) {
        Broken = format("host schedule for %lld time-steps issues degree %d "
                        "but the schedule lowers no invocation for it",
                        Steps, Degree);
        break;
      }
    }
  }
  if (!Broken.empty())
    addFinding(Report, "AN5D-A215", "host schedule", std::move(Broken));
}

} // namespace

void proveSchedule(const ScheduleIR &IR, long long AllocHalo,
                   const ProblemSize *Problem, AnalysisReport &Report,
                   long long MinExtent) {
  if (IR.Invocations.empty()) {
    addFinding(Report, "AN5D-A210", IR.StencilName,
               format("schedule lowered no invocations (bT = %d)",
                      IR.Config.BT));
    return;
  }
  for (const InvocationSchedule &Inv : IR.Invocations)
    InvocationProof(IR, Inv, AllocHalo, MinExtent, Report).run();
  if (Problem && Problem->TimeSteps > 0)
    proveHostSchedule(IR, Problem->TimeSteps, Report);
}

ScheduleVerifyResult verifyScheduleIR(const ScheduleIR &IR,
                                      const ProblemSize *Problem) {
  AnalysisReport Report;
  proveSchedule(IR, IR.Radius, Problem, Report);
  return {std::move(Report.Findings)};
}

void ScheduleProverPass::run(const AnalysisInput &Input,
                             AnalysisReport &Report) const {
  if (!Input.Schedule || !Input.Program)
    return;
  proveSchedule(*Input.Schedule, Input.Program->radius(), Input.Problem,
                Report);
}

} // namespace an5d
