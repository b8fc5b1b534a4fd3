//===- AnalysisPassTest.cpp - Static dataflow pass framework -----------------===//
//
// Part of the AN5D reproduction project, under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// The static analysis pipeline in three layers:
///
///  - framework: finding rendering (string / diagnostic / JSON), report
///    aggregation, pass manager wiring and its obs metrics;
///  - soundness: every builtin stencil, at every enumerated configuration,
///    lowers to a schedule the pre-JIT gate accepts exactly when the
///    configuration is feasible;
///  - completeness: mutation tests corrupt exactly one fact of a known-good
///    tape or schedule and assert the one finding ID that must catch it,
///    plus fixed-seed fuzzing over random DSL programs and random tape
///    corruptions (never crash; structured findings or success only).
///
//===----------------------------------------------------------------------===//

#include "analysis/ScheduleVerifier.h"
#include "analysis/passes/AnalysisPass.h"
#include "analysis/passes/ResourceEstimator.h"
#include "analysis/passes/TapeVerifier.h"
#include "frontend/StencilExtractor.h"
#include "model/PerformanceModel.h"
#include "model/RegisterModel.h"
#include "model/SharedMemoryModel.h"
#include "obs/JsonLite.h"
#include "obs/Metrics.h"
#include "schedule/ScheduleIR.h"
#include "stencils/Benchmarks.h"
#include "tuning/Tuner.h"

#include <gtest/gtest.h>

#include <climits>
#include <cmath>
#include <limits>
#include <random>

using namespace an5d;

namespace {

TapeFacts factsOf(const StencilProgram &Program) {
  return TapeFacts::of(Program.plan(), Program);
}

/// A known-good schedule the mutation tests corrupt one field at a time:
/// j2d5pt (radius 1) at bT=2 bS=64 by default; a 1D \p Stencil such as
/// star1d1r lowers to the pure-streaming schedule (bS stays empty).
struct GoodSchedule {
  std::unique_ptr<StencilProgram> Program;
  ScheduleIR IR;

  explicit GoodSchedule(long long HS = 0, const char *Stencil = "j2d5pt",
                        int BT = 2, int BS = 64) {
    Program = makeBenchmarkStencil(Stencil, ScalarType::Float);
    BlockConfig Config;
    Config.BT = BT;
    Config.BS.assign(Program->numDims() - 1, BS);
    Config.HS = HS;
    IR = lowerSchedule(*Program, Config);
  }

  AnalysisReport prove(const ProblemSize *Problem = nullptr) const {
    AnalysisReport Report;
    proveSchedule(IR, Program->radius(), Problem, Report);
    return Report;
  }

  /// Shared invariants must change on the IR and every invocation in
  /// lockstep, or AN5D-A210 (structural disagreement) fires instead of
  /// the invariant check under test.
  template <typename Fn> void mutateShared(Fn &&Mutate) {
    Mutate(IR.GridHalo, IR.RingDepth, IR.Radius, IR.HaloPolicy);
    for (InvocationSchedule &Inv : IR.Invocations)
      Mutate(Inv.GridHalo, Inv.RingDepth, Inv.Radius, Inv.HaloPolicy);
  }
};

/// Passes when \p Report carries \p Id as an Error finding.
::testing::AssertionResult hasError(const AnalysisReport &Report,
                                    const char *Id) {
  for (const AnalysisFinding &F : Report.Findings)
    if (F.Id == Id && F.Severity == FindingSeverity::Error)
      return ::testing::AssertionSuccess();
  return ::testing::AssertionFailure()
         << "no Error " << Id << " among:\n"
         << Report.toString();
}

std::vector<std::string> allBuiltinNames() {
  std::vector<std::string> Names = benchmarkStencilNames();
  for (const std::string &Name : extraStencilNames())
    Names.push_back(Name);
  return Names;
}

} // namespace

//===----------------------------------------------------------------------===//
// Framework: findings, reports, pass manager
//===----------------------------------------------------------------------===//

TEST(AnalysisFramework, FindingRendersStably) {
  AnalysisFinding F;
  F.Id = "AN5D-A101";
  F.Severity = FindingSeverity::Error;
  F.Pass = "tape-verifier";
  F.Subject = "op 3 Add";
  F.Message = "stack underflow";
  EXPECT_EQ(F.toString(),
            "[AN5D-A101][error] tape-verifier: stack underflow (op 3 Add)");

  Diagnostic D = F.toDiagnostic();
  EXPECT_EQ(D.Kind, DiagnosticKind::Error);
  EXPECT_EQ(D.Message, "[AN5D-A101] stack underflow (op 3 Add)");

  F.Severity = FindingSeverity::Warn;
  EXPECT_EQ(F.toDiagnostic().Kind, DiagnosticKind::Warning);
  F.Severity = FindingSeverity::Info;
  EXPECT_EQ(F.toDiagnostic().Kind, DiagnosticKind::Note);
}

TEST(AnalysisFramework, SeverityNames) {
  EXPECT_STREQ(findingSeverityName(FindingSeverity::Error), "error");
  EXPECT_STREQ(findingSeverityName(FindingSeverity::Warn), "warn");
  EXPECT_STREQ(findingSeverityName(FindingSeverity::Info), "info");
}

TEST(AnalysisFramework, ReportAggregates) {
  AnalysisReport Report;
  EXPECT_TRUE(Report.proven());
  EXPECT_EQ(Report.toString(), "analysis clean\n");

  AnalysisFinding E;
  E.Id = "AN5D-A201";
  E.Severity = FindingSeverity::Error;
  Report.Findings.push_back(E);
  AnalysisFinding W = E;
  W.Id = "AN5D-A114";
  W.Severity = FindingSeverity::Warn;
  Report.Findings.push_back(W);

  EXPECT_EQ(Report.errorCount(), 1u);
  EXPECT_EQ(Report.countBySeverity(FindingSeverity::Warn), 1u);
  EXPECT_EQ(Report.countBySeverity(FindingSeverity::Info), 0u);
  EXPECT_FALSE(Report.proven());
  EXPECT_TRUE(Report.hasFinding("AN5D-A201"));
  EXPECT_TRUE(Report.hasFinding("AN5D-A114"));
  EXPECT_FALSE(Report.hasFinding("AN5D-A101"));

  DiagnosticEngine Diags;
  Report.render(Diags);
  EXPECT_TRUE(Diags.hasErrors());
  EXPECT_EQ(Diags.diagnostics().size(), 2u);
}

TEST(AnalysisFramework, ReportJsonRoundTrips) {
  AnalysisReport Report;
  AnalysisFinding F;
  F.Id = "AN5D-A207";
  F.Severity = FindingSeverity::Error;
  F.Pass = "schedule-prover";
  F.Subject = "degree 2 tier 1 axis 1";
  F.Message = "ring lane overflow with \"quotes\" and\nnewline";
  Report.Findings.push_back(F);
  F.Id = "AN5D-A302";
  F.Severity = FindingSeverity::Info;
  Report.Findings.push_back(F);

  std::string Error;
  std::optional<obs::JsonValue> Parsed = obs::parseJson(Report.toJson(), &Error);
  ASSERT_TRUE(Parsed.has_value()) << Error;
  ASSERT_TRUE(Parsed->isArray());
  ASSERT_EQ(Parsed->Items.size(), 2u);

  const obs::JsonValue &First = Parsed->Items[0];
  ASSERT_TRUE(First.isObject());
  ASSERT_NE(First.find("id"), nullptr);
  EXPECT_EQ(First.find("id")->String, "AN5D-A207");
  EXPECT_EQ(First.find("severity")->String, "error");
  EXPECT_EQ(First.find("pass")->String, "schedule-prover");
  EXPECT_EQ(First.find("subject")->String, "degree 2 tier 1 axis 1");
  EXPECT_EQ(First.find("message")->String,
            "ring lane overflow with \"quotes\" and\nnewline");
  EXPECT_EQ(Parsed->Items[1].find("severity")->String, "info");
}

TEST(AnalysisFramework, StandardPipelineRunsAllPassesWithMetrics) {
  auto Program = makeBenchmarkStencil("j2d5pt", ScalarType::Float);
  ASSERT_NE(Program, nullptr);
  BlockConfig Config;
  Config.BT = 2;
  Config.BS = {64};
  Config.HS = 0;
  ScheduleIR IR = lowerSchedule(*Program, Config);

  AnalysisPassManager Passes = AnalysisPassManager::standardPipeline();
  EXPECT_EQ(Passes.numPasses(), 3u);

  obs::MetricsRegistry &Registry = obs::MetricsRegistry::global();
  long long RunsBefore = Registry.counterValue("analysis.pass_runs");
  long long FindingsBefore = Registry.counterValue("analysis.findings");

  AnalysisInput Input;
  Input.Program = Program.get();
  Input.Schedule = &IR;
  AnalysisReport Report = Passes.run(Input);

  EXPECT_TRUE(Report.Findings.empty()) << Report.toString();
  EXPECT_EQ(Registry.counterValue("analysis.pass_runs") - RunsBefore, 3);
  EXPECT_EQ(Registry.counterValue("analysis.findings") - FindingsBefore, 0);
}

TEST(AnalysisFramework, PlanDefaultsToProgramAndScheduleIsOptional) {
  auto Program = makeBenchmarkStencil("star2d2r", ScalarType::Float);
  AnalysisInput Input;
  Input.Program = Program.get(); // no Plan, no Schedule
  AnalysisReport Report = AnalysisPassManager::standardPipeline().run(Input);
  EXPECT_TRUE(Report.Findings.empty()) << Report.toString();
}

TEST(AnalysisFramework, PipelineProvesHostScheduleOnlyWithProblem) {
  // Five steps at bT=2 run as degrees {2, 2, 1}; drop the degree-2
  // invocation the host schedule needs.
  GoodSchedule S;
  S.IR.Invocations.pop_back();
  ProblemSize Problem;
  Problem.TimeSteps = 5;
  AnalysisInput Input;
  Input.Program = S.Program.get();
  Input.Schedule = &S.IR;
  const AnalysisPassManager Passes = AnalysisPassManager::standardPipeline();
  EXPECT_TRUE(Passes.run(Input).Findings.empty());
  Input.Problem = &Problem;
  AnalysisReport Report = Passes.run(Input);
  EXPECT_TRUE(hasError(Report, "AN5D-A215"));
  ASSERT_EQ(Report.Findings.size(), 1u) << Report.toString();
  EXPECT_EQ(Report.Findings.front().Pass, "schedule-prover");
}

//===----------------------------------------------------------------------===//
// Soundness: every builtin, every enumerated feasible configuration
//===----------------------------------------------------------------------===//

TEST(AnalysisSoundness, EveryBuiltinTapeVerifies) {
  for (const std::string &Name : allBuiltinNames())
    for (ScalarType Type : {ScalarType::Float, ScalarType::Double}) {
      auto Program = makeBenchmarkStencil(Name, Type);
      ASSERT_NE(Program, nullptr) << Name;
      AnalysisReport Report = verifyTape(factsOf(*Program));
      EXPECT_TRUE(Report.Findings.empty())
          << Name << ": " << Report.toString();
    }
}

// The one property behind the tuner's zero-rejection invariant: lowering
// is total and structurally faithful for every enumerated configuration
// of every builtin, and the pre-JIT gate (the standard pipeline, with the
// problem's host schedule) accepts the lowered IR exactly when the
// feasibility model does — thread caps excepted, a hardware limit rather
// than a schedule property. A refused configuration is refused because
// its halo consumes the block.
TEST(AnalysisSoundness, GateAcceptsExactlyTheFeasibleEnumeratedConfigs) {
  Tuner T(GpuSpec::teslaV100());
  const AnalysisPassManager Passes = AnalysisPassManager::standardPipeline();
  std::size_t Proven = 0, Refused = 0;
  for (const std::string &Name : allBuiltinNames()) {
    auto Program = makeBenchmarkStencil(Name, ScalarType::Float);
    ASSERT_NE(Program, nullptr) << Name;
    const ProblemSize Problem = ProblemSize::paperDefault(Program->numDims());
    for (const BlockConfig &Config : T.enumerateConfigs(*Program)) {
      const std::string Where = Name + " " + Config.toString();
      ASSERT_EQ(static_cast<int>(Config.BS.size()), Program->numDims() - 1)
          << Where;
      ScheduleIR IR = lowerSchedule(*Program, Config);
      EXPECT_EQ(IR.StencilName, Program->name());
      EXPECT_EQ(IR.NumDims, Program->numDims());
      EXPECT_EQ(IR.Radius, Program->radius());
      EXPECT_EQ(IR.Config.toString(), Config.toString());
      ASSERT_EQ(static_cast<int>(IR.Invocations.size()), Config.BT) << Where;

      AnalysisInput Input;
      Input.Program = Program.get();
      Input.Schedule = &IR;
      Input.Problem = &Problem;
      AnalysisReport Report = Passes.run(Input);
      const bool Feasible = Config.isFeasible(Program->radius(), INT_MAX);
      EXPECT_EQ(Report.proven(), Feasible)
          << Where << ": " << Report.toString();
      if (Feasible) {
        ++Proven;
      } else {
        EXPECT_TRUE(hasError(Report, "AN5D-A216")) << Where;
        ++Refused;
      }
    }
  }
  // The grid is supposed to be dense on both sides; an accidentally empty
  // sweep would vacuously pass everything above.
  EXPECT_GT(Proven, 1000u);
  EXPECT_GT(Refused, 0u);
}

//===----------------------------------------------------------------------===//
// Tape mutations: one corrupted fact, one finding ID
//===----------------------------------------------------------------------===//

TEST(TapeMutation, A101StackUnderflow) {
  auto P = makeBenchmarkStencil("j2d5pt", ScalarType::Float);
  TapeFacts Facts = factsOf(*P);
  Facts.Ops.insert(Facts.Ops.begin(), TapeOp{TapeOpKind::Add, 0});
  AnalysisReport Report = verifyTape(Facts);
  EXPECT_TRUE(Report.hasFinding("AN5D-A101")) << Report.toString();
  EXPECT_FALSE(Report.proven());
}

TEST(TapeMutation, A102StackResidue) {
  auto P = makeBenchmarkStencil("j2d5pt", ScalarType::Float);
  TapeFacts Facts = factsOf(*P);
  Facts.Ops.push_back(TapeOp{TapeOpKind::PushConst, 0});
  AnalysisReport Report = verifyTape(Facts);
  EXPECT_TRUE(Report.hasFinding("AN5D-A102")) << Report.toString();
  EXPECT_FALSE(Report.proven());
}

TEST(TapeMutation, A103DepthDeclaredTooSmallIsError) {
  auto P = makeBenchmarkStencil("j2d5pt", ScalarType::Float);
  TapeFacts Facts = factsOf(*P);
  Facts.MaxStackDepth -= 1;
  AnalysisReport Report = verifyTape(Facts);
  EXPECT_TRUE(Report.hasFinding("AN5D-A103")) << Report.toString();
  EXPECT_FALSE(Report.proven());
}

TEST(TapeMutation, A103DepthDeclaredTooLargeIsWarn) {
  auto P = makeBenchmarkStencil("j2d5pt", ScalarType::Float);
  TapeFacts Facts = factsOf(*P);
  Facts.MaxStackDepth += 1;
  AnalysisReport Report = verifyTape(Facts);
  EXPECT_TRUE(Report.hasFinding("AN5D-A103")) << Report.toString();
  EXPECT_TRUE(Report.proven()) << "loose declaration must stay advisory";
  EXPECT_EQ(Report.countBySeverity(FindingSeverity::Warn), 1u);
}

TEST(TapeMutation, A104ConstantIndexOutOfRange) {
  auto P = makeBenchmarkStencil("j2d5pt", ScalarType::Float);
  TapeFacts Facts = factsOf(*P);
  bool Mutated = false;
  for (TapeOp &Op : Facts.Ops)
    if (!Mutated && Op.Kind == TapeOpKind::PushConst) {
      Op.Arg = static_cast<std::uint16_t>(Facts.Constants.size());
      Mutated = true;
    }
  ASSERT_TRUE(Mutated) << "expected at least one PushConst in j2d5pt";
  AnalysisReport Report = verifyTape(Facts);
  EXPECT_TRUE(Report.hasFinding("AN5D-A104")) << Report.toString();
  EXPECT_FALSE(Report.proven());
}

TEST(TapeMutation, A105TapIndexOutOfRange) {
  auto P = makeBenchmarkStencil("j2d5pt", ScalarType::Float);
  TapeFacts Facts = factsOf(*P);
  bool Mutated = false;
  for (TapeOp &Op : Facts.Ops)
    if (!Mutated && Op.Kind == TapeOpKind::LoadTap) {
      Op.Arg = static_cast<std::uint16_t>(Facts.Taps.size());
      Mutated = true;
    }
  ASSERT_TRUE(Mutated) << "expected at least one LoadTap in j2d5pt";
  AnalysisReport Report = verifyTape(Facts);
  EXPECT_TRUE(Report.hasFinding("AN5D-A105")) << Report.toString();
  EXPECT_FALSE(Report.proven());
}

TEST(TapeMutation, A106MathSelectorOutsideEnum) {
  auto P = makeBenchmarkStencil("j2d5pt", ScalarType::Float);
  TapeFacts Facts = factsOf(*P);
  Facts.Ops.push_back(TapeOp{TapeOpKind::MathCall, 17});
  AnalysisReport Report = verifyTape(Facts);
  EXPECT_TRUE(Report.hasFinding("AN5D-A106")) << Report.toString();
  EXPECT_FALSE(Report.proven());
}

TEST(TapeMutation, A107FusedOpInBasePlan) {
  auto P = makeBenchmarkStencil("j2d5pt", ScalarType::Float);
  TapeFacts Facts = factsOf(*P);
  Facts.Ops.push_back(TapeOp{TapeOpKind::MacConstTap, 0});
  AnalysisReport Report = verifyTape(Facts);
  EXPECT_TRUE(Report.hasFinding("AN5D-A107")) << Report.toString();
  EXPECT_FALSE(Report.proven());
}

TEST(TapeMutation, A108TapArityMismatch) {
  auto P = makeBenchmarkStencil("j2d5pt", ScalarType::Float);
  TapeFacts Facts = factsOf(*P);
  ASSERT_FALSE(Facts.Taps.empty());
  Facts.Taps[0].pop_back();
  AnalysisReport Report = verifyTape(Facts);
  EXPECT_TRUE(Report.hasFinding("AN5D-A108")) << Report.toString();
  EXPECT_FALSE(Report.proven());
}

TEST(TapeMutation, A109TapOffsetBeyondRadius) {
  auto P = makeBenchmarkStencil("j2d5pt", ScalarType::Float);
  TapeFacts Facts = factsOf(*P);
  ASSERT_FALSE(Facts.Taps.empty());
  Facts.Taps[0] = {0, Facts.Radius + 1};
  AnalysisReport Report = verifyTape(Facts);
  EXPECT_TRUE(Report.hasFinding("AN5D-A109")) << Report.toString();
  EXPECT_FALSE(Report.proven());
}

TEST(TapeMutation, A110NonFiniteConstant) {
  auto P = makeBenchmarkStencil("j2d5pt", ScalarType::Float);
  TapeFacts Facts = factsOf(*P);
  ASSERT_FALSE(Facts.Constants.empty());
  Facts.Constants[0] = std::numeric_limits<double>::quiet_NaN();
  AnalysisReport Report = verifyTape(Facts);
  EXPECT_TRUE(Report.hasFinding("AN5D-A110")) << Report.toString();
  EXPECT_FALSE(Report.proven());
}

TEST(TapeMutation, A111DivisionByConstantZero) {
  TapeFacts Facts;
  Facts.Ops = {TapeOp{TapeOpKind::LoadTap, 0}, TapeOp{TapeOpKind::PushConst, 0},
               TapeOp{TapeOpKind::Div, 0}};
  Facts.Constants = {0.0};
  Facts.Taps = {{0, 0}};
  Facts.MaxStackDepth = 2;
  Facts.HasConstantDivision = true;
  Facts.NumDims = 2;
  Facts.Radius = 1;
  AnalysisReport Report = verifyTape(Facts);
  EXPECT_TRUE(Report.hasFinding("AN5D-A111")) << Report.toString();
  EXPECT_FALSE(Report.proven());
}

TEST(TapeMutation, A112PredicateFalseNegativeIsError) {
  TapeFacts Facts;
  Facts.Ops = {TapeOp{TapeOpKind::LoadTap, 0}, TapeOp{TapeOpKind::PushConst, 0},
               TapeOp{TapeOpKind::Div, 0}};
  Facts.Constants = {2.0};
  Facts.Taps = {{0, 0}};
  Facts.MaxStackDepth = 2;
  Facts.HasConstantDivision = false; // the lie under test
  Facts.NumDims = 2;
  Facts.Radius = 1;
  AnalysisReport Report = verifyTape(Facts);
  EXPECT_TRUE(Report.hasFinding("AN5D-A112")) << Report.toString();
  EXPECT_FALSE(Report.proven());
}

TEST(TapeMutation, A112StalePredicateIsWarn) {
  auto P = makeBenchmarkStencil("star2d1r", ScalarType::Float);
  TapeFacts Facts = factsOf(*P);
  ASSERT_FALSE(Facts.HasConstantDivision)
      << "star2d1r is expected to be division-free";
  Facts.HasConstantDivision = true;
  AnalysisReport Report = verifyTape(Facts);
  EXPECT_TRUE(Report.hasFinding("AN5D-A112")) << Report.toString();
  EXPECT_TRUE(Report.proven());
  EXPECT_EQ(Report.countBySeverity(FindingSeverity::Warn), 1u);
}

TEST(TapeMutation, A113UnusedConstantIsInfo) {
  auto P = makeBenchmarkStencil("j2d5pt", ScalarType::Float);
  TapeFacts Facts = factsOf(*P);
  Facts.Constants.push_back(42.0);
  AnalysisReport Report = verifyTape(Facts);
  EXPECT_TRUE(Report.hasFinding("AN5D-A113")) << Report.toString();
  EXPECT_TRUE(Report.proven());
  EXPECT_EQ(Report.countBySeverity(FindingSeverity::Info), 1u);
}

TEST(TapeMutation, A114UnusedTapIsWarn) {
  auto P = makeBenchmarkStencil("j2d5pt", ScalarType::Float);
  TapeFacts Facts = factsOf(*P);
  Facts.Taps.push_back({1, 1});
  AnalysisReport Report = verifyTape(Facts);
  EXPECT_TRUE(Report.hasFinding("AN5D-A114")) << Report.toString();
  EXPECT_TRUE(Report.proven());
  EXPECT_EQ(Report.countBySeverity(FindingSeverity::Warn), 1u);
}

TEST(TapeMutation, A115NonFiniteConstantFold) {
  TapeFacts Facts;
  Facts.Ops = {TapeOp{TapeOpKind::PushConst, 0},
               TapeOp{TapeOpKind::MathCall,
                      static_cast<std::uint16_t>(MathFn::Sqrt)}};
  Facts.Constants = {-1.0}; // sqrt(-1) folds to NaN at CompiledTape build
  Facts.MaxStackDepth = 1;
  Facts.NumDims = 1;
  Facts.Radius = 0;
  AnalysisReport Report = verifyTape(Facts);
  EXPECT_TRUE(Report.hasFinding("AN5D-A115")) << Report.toString();
  EXPECT_FALSE(Report.proven());
}

//===----------------------------------------------------------------------===//
// Schedule mutations: one corrupted invariant, one Error finding ID
//===----------------------------------------------------------------------===//

TEST(ScheduleMutation, BaselineIsClean) {
  ProblemSize Problem;
  Problem.TimeSteps = 7;
  const ProblemSize *Problems[] = {nullptr, &Problem};
  for (auto [HS, Stencil] : {std::pair<long long, const char *>{0, "j2d5pt"},
                             {128, "j2d5pt"},
                             {8, "star1d1r"}}) {
    GoodSchedule S(HS, Stencil);
    for (const ProblemSize *P : Problems) {
      AnalysisReport Report = S.prove(P);
      EXPECT_TRUE(Report.Findings.empty())
          << Stencil << " " << S.IR.Config.toString() << ": "
          << Report.toString();
    }
  }
}

TEST(ScheduleMutation, A201GridHaloRaisedPastAllocation) {
  GoodSchedule S;
  S.mutateShared([](long long &GridHalo, long long &, int &,
                    ScheduleHaloPolicy &) { GridHalo += 1; });
  EXPECT_TRUE(hasError(S.prove(), "AN5D-A201"));
}

TEST(ScheduleMutation, A202BlockedLoadsPastAllocation) {
  GoodSchedule S;
  S.mutateShared([](long long &, long long &, int &Radius,
                    ScheduleHaloPolicy &) { Radius += 1; });
  EXPECT_TRUE(hasError(S.prove(), "AN5D-A202"));
}

TEST(ScheduleMutation, A203GridHaloBelowTaps) {
  GoodSchedule S;
  S.mutateShared([](long long &GridHalo, long long &, int &,
                    ScheduleHaloPolicy &) { GridHalo = 0; });
  AnalysisReport Report = S.prove();
  EXPECT_TRUE(hasError(Report, "AN5D-A203"));
  EXPECT_FALSE(Report.hasFinding("AN5D-A201"))
      << "shrunk halo stays inside the allocation";
  // Both the stream axis and the blocked axis carry radius-1 taps.
  std::size_t Axes = 0;
  for (const AnalysisFinding &F : Report.Findings)
    Axes += F.Id == "AN5D-A203" && F.Subject.rfind("degree 1 ", 0) == 0;
  EXPECT_EQ(Axes, 2u) << Report.toString();
}

TEST(ScheduleMutation, A204RingTooShallowOn1dStream) {
  GoodSchedule S(/*HS=*/8, "star1d1r");
  S.mutateShared([](long long &, long long &RingDepth, int &,
                    ScheduleHaloPolicy &) { RingDepth -= 1; });
  AnalysisReport Report = S.prove();
  EXPECT_TRUE(hasError(Report, "AN5D-A204"));
  for (const AnalysisFinding &F : Report.Findings)
    EXPECT_EQ(F.Id, "AN5D-A204") << F.toString();
}

TEST(ScheduleMutation, A204RingTooShallowForLifetime) {
  GoodSchedule S;
  S.mutateShared([](long long &, long long &RingDepth, int &,
                    ScheduleHaloPolicy &) { RingDepth -= 1; });
  AnalysisReport Report = S.prove();
  EXPECT_TRUE(hasError(Report, "AN5D-A204"));
  for (const AnalysisFinding &F : Report.Findings)
    EXPECT_EQ(F.Id, "AN5D-A204") << F.toString();
}

TEST(ScheduleMutation, A205ConsumerOutrunsProducer) {
  GoodSchedule S;
  S.IR.Invocations[1].Tiers[0].StreamLag = 0;
  EXPECT_TRUE(hasError(S.prove(), "AN5D-A205"));
}

TEST(ScheduleMutation, A205SwappedStreamLags) {
  // Tier 2 now runs ahead of tier 1 in the stream: it reads planes its
  // producer has not written.
  GoodSchedule S;
  InvocationSchedule &Inv = S.IR.Invocations[1];
  std::swap(Inv.Tiers[0].StreamLag, Inv.Tiers[1].StreamLag);
  EXPECT_TRUE(hasError(S.prove(), "AN5D-A205"));
}

TEST(ScheduleMutation, A205SwappedWaveOrder) {
  // Tier 1 now runs after tier 2 within a streaming step, so tier 2's
  // same-step read of its producer's newest plane breaks.
  GoodSchedule S;
  InvocationSchedule &Inv = S.IR.Invocations[1];
  std::swap(Inv.Tiers[0].OrderPosition, Inv.Tiers[1].OrderPosition);
  EXPECT_TRUE(hasError(S.prove(), "AN5D-A205"));
}

TEST(ScheduleMutation, A206RingLaneUnderflow) {
  GoodSchedule S;
  S.IR.Invocations[1].LoadSpanHalo -= 1;
  EXPECT_TRUE(hasError(S.prove(), "AN5D-A206"));
}

TEST(ScheduleMutation, A207RingLaneOverflow) {
  GoodSchedule S;
  // Tier 1 needs exactly BS lanes (halo + compute + reach + tap), so any
  // shrink of the loaded span overflows the span's last lanes.
  S.IR.Invocations[1].BS[0] -= 2;
  EXPECT_TRUE(hasError(S.prove(), "AN5D-A207"));
}

TEST(ScheduleMutation, A208StoreWiderThanCompute) {
  GoodSchedule S;
  S.IR.Invocations[0].StoreWidth[0] += 1;
  AnalysisReport Report = S.prove();
  EXPECT_TRUE(hasError(Report, "AN5D-A208"));
  // The extra lane also lands in the neighbouring block's region.
  EXPECT_TRUE(hasError(Report, "AN5D-A213"));
}

TEST(ScheduleMutation, A210StructurallyMalformed) {
  GoodSchedule S;
  S.IR.Invocations.clear();
  EXPECT_TRUE(hasError(S.prove(), "AN5D-A210"));
}

TEST(ScheduleMutation, A210NonPositiveTemporalDegree) {
  GoodSchedule S(/*HS=*/0, "j2d5pt", /*BT=*/0);
  EXPECT_TRUE(S.IR.Invocations.empty());
  EXPECT_TRUE(hasError(S.prove(), "AN5D-A210"));
}

TEST(ScheduleMutation, A210MissingTier) {
  GoodSchedule S; // degree 2, two tiers
  S.IR.Invocations[1].Tiers.pop_back();
  EXPECT_TRUE(hasError(S.prove(), "AN5D-A210"));
}

TEST(ScheduleMutation, A210BlockedAxisArity) {
  // A 1D stream has no blocked axes.
  GoodSchedule S(/*HS=*/8, "star1d1r");
  S.IR.Invocations[1].BS.push_back(10);
  AnalysisReport Report = S.prove();
  EXPECT_TRUE(hasError(Report, "AN5D-A210"));
  EXPECT_EQ(Report.Findings.size(), 1u) << Report.toString();
}

TEST(ScheduleMutation, A210MissingBlockedAxis) {
  // A 2D stencil needs one blocked dimension.
  auto P = makeBenchmarkStencil("j2d5pt", ScalarType::Float);
  BlockConfig C;
  C.BT = 2;
  C.HS = 128;
  AnalysisReport Report;
  proveSchedule(lowerSchedule(*P, C), P->radius(), nullptr, Report);
  EXPECT_TRUE(hasError(Report, "AN5D-A210"));
}

TEST(ScheduleMutation, A211HaloPolicyContradictsShape) {
  GoodSchedule S;
  S.mutateShared([](long long &, long long &, int &,
                    ScheduleHaloPolicy &Policy) {
    Policy = ScheduleHaloPolicy::PinBoundaryOnly;
  });
  EXPECT_TRUE(hasError(S.prove(), "AN5D-A211"));
}

TEST(ScheduleMutation, A212ShrunkTierReach) {
  // Degree 2: tier 1 reach = rad. Tier 2's taps now escape tier 1's
  // valid region on the blocked and the streaming axis.
  GoodSchedule S;
  S.IR.Invocations[1].Tiers[0].Reach -= 1;
  AnalysisReport Report = S.prove();
  EXPECT_TRUE(hasError(Report, "AN5D-A212"));
  for (const AnalysisFinding &F : Report.Findings)
    EXPECT_EQ(F.Id, "AN5D-A212") << F.toString();
}

TEST(ScheduleMutation, A212ShrunkTierReachOn1dStream) {
  // With no blocked axis, tier 2's taps escape tier 1's valid region on
  // the stream axis alone.
  GoodSchedule S(/*HS=*/8, "star1d1r");
  S.IR.Invocations[1].Tiers[0].Reach -= 1;
  AnalysisReport Report = S.prove();
  EXPECT_TRUE(hasError(Report, "AN5D-A212"));
  for (const AnalysisFinding &F : Report.Findings)
    EXPECT_EQ(F.Subject, "degree 2 tier 2 stream axis") << F.toString();
}

TEST(ScheduleMutation, A212ShrunkLoadStreamReach) {
  // Tier 1 reads stream planes the tier-0 load no longer covers.
  GoodSchedule S;
  S.IR.Invocations[1].LoadStreamReach -= 1;
  AnalysisReport Report = S.prove();
  EXPECT_TRUE(hasError(Report, "AN5D-A212"));
  ASSERT_EQ(Report.Findings.size(), 1u) << Report.toString();
  EXPECT_EQ(Report.Findings.front().Subject, "degree 2 tier 1 stream axis");
}

TEST(ScheduleMutation, A213OverlappingBlocks) {
  GoodSchedule S;
  --S.IR.Invocations[1].BlockStride[0];
  AnalysisReport Report = S.prove();
  EXPECT_TRUE(hasError(Report, "AN5D-A213"));
  ASSERT_EQ(Report.Findings.size(), 1u) << Report.toString();
  EXPECT_EQ(Report.Findings.front().Subject, "degree 2 axis 1");
}

TEST(ScheduleMutation, A213OverlappingBlocksOnSecondBlockedAxis) {
  GoodSchedule S(/*HS=*/0, "star3d1r");
  --S.IR.Invocations[1].BlockStride[1];
  AnalysisReport Report = S.prove();
  EXPECT_TRUE(hasError(Report, "AN5D-A213"));
  ASSERT_EQ(Report.Findings.size(), 1u) << Report.toString();
  EXPECT_EQ(Report.Findings.front().Subject, "degree 2 axis 2");
}

TEST(ScheduleMutation, A213OverlappingChunks) {
  GoodSchedule S(/*HS=*/8, "star1d1r");
  --S.IR.Invocations[0].ChunkStride;
  AnalysisReport Report = S.prove();
  EXPECT_TRUE(hasError(Report, "AN5D-A213"));
  ASSERT_EQ(Report.Findings.size(), 1u) << Report.toString();
  EXPECT_EQ(Report.Findings.front().Subject, "degree 1 stream axis");
}

TEST(ScheduleMutation, A214StretchedBlockStride) {
  GoodSchedule S;
  ++S.IR.Invocations[1].BlockStride[0];
  AnalysisReport Report = S.prove();
  EXPECT_TRUE(hasError(Report, "AN5D-A214"));
  EXPECT_EQ(Report.Findings.size(), 1u) << Report.toString();
}

TEST(ScheduleMutation, A214StretchedBlockStrideOnSecondBlockedAxis) {
  GoodSchedule S(/*HS=*/0, "star3d1r");
  ++S.IR.Invocations[1].BlockStride[1];
  AnalysisReport Report = S.prove();
  EXPECT_TRUE(hasError(Report, "AN5D-A214"));
  ASSERT_EQ(Report.Findings.size(), 1u) << Report.toString();
  EXPECT_EQ(Report.Findings.front().Subject, "degree 2 axis 2");
}

TEST(ScheduleMutation, A214StretchedChunkStride) {
  GoodSchedule S(/*HS=*/128);
  ASSERT_GT(S.IR.Invocations[0].ChunkLength, 0);
  S.IR.Invocations[0].ChunkStride += 16;
  AnalysisReport Report = S.prove();
  EXPECT_TRUE(hasError(Report, "AN5D-A214"));
  EXPECT_EQ(Report.Findings.size(), 1u) << Report.toString();
}

TEST(ScheduleMutation, A214StretchedChunkStrideOn1dStream) {
  GoodSchedule S(/*HS=*/8, "star1d1r");
  ++S.IR.Invocations[0].ChunkStride;
  AnalysisReport Report = S.prove();
  EXPECT_TRUE(hasError(Report, "AN5D-A214"));
  ASSERT_EQ(Report.Findings.size(), 1u) << Report.toString();
  EXPECT_EQ(Report.Findings.front().Subject, "degree 1 stream axis");
}

TEST(ScheduleMutation, A215HostScheduleNeedsEveryIssuedDegree) {
  // Five steps at bT=2 run as degrees {2, 2, 1}: the degree-2
  // invocation is required.
  GoodSchedule S;
  ProblemSize Problem;
  Problem.TimeSteps = 5;
  S.IR.Invocations.pop_back();
  EXPECT_TRUE(S.prove().Findings.empty()) << "no problem, no host check";
  AnalysisReport Report = S.prove(&Problem);
  EXPECT_TRUE(hasError(Report, "AN5D-A215"));
  EXPECT_EQ(Report.Findings.size(), 1u) << Report.toString();
  EXPECT_FALSE(verifyScheduleIR(S.IR, &Problem).proven());
}

TEST(ScheduleMutation, A215HostScheduleIsProvenForRealProblems) {
  auto P = makeJacobi2d5pt(ScalarType::Float);
  BlockConfig C;
  C.BT = 4;
  C.BS = {128};
  C.HS = 256;
  ProblemSize Problem;
  Problem.Extents = {512, 512};
  Problem.TimeSteps = 1000;
  ScheduleVerifyResult Verdict = verifyScheduleIR(lowerSchedule(*P, C),
                                                  &Problem);
  EXPECT_TRUE(Verdict.proven())
      << (Verdict.Violations.empty() ? ""
                                     : Verdict.Violations.front().toString());
}

TEST(ScheduleMutation, A216HaloConsumesBlock) {
  // bS=8 at bT=4, radius 1: 8 - 2*4*1 = 0 lanes left at full degree.
  GoodSchedule S(/*HS=*/128, "j2d5pt", /*BT=*/4, /*BS=*/8);
  EXPECT_FALSE(S.IR.Config.isFeasible(S.Program->radius(), INT_MAX));
  AnalysisReport Report = S.prove();
  EXPECT_TRUE(hasError(Report, "AN5D-A216"));
  // Only the full degree overflows (degree 3 leaves width 2), and the
  // finding names it.
  for (const AnalysisFinding &F : Report.Findings)
    EXPECT_EQ(F.Subject, "degree 4 axis 1") << F.toString();
}

TEST(ScheduleMutation, A216HaloConsumesSecondBlockedAxis) {
  // bS=64,8 at bT=4, radius 1: only the second blocked axis runs out of
  // compute lanes, and only at the full degree.
  auto P = makeBenchmarkStencil("star3d1r", ScalarType::Float);
  BlockConfig C;
  C.BT = 4;
  C.BS = {64, 8};
  C.HS = 128;
  EXPECT_FALSE(C.isFeasible(P->radius(), INT_MAX));
  AnalysisReport Report;
  proveSchedule(lowerSchedule(*P, C), P->radius(), nullptr, Report);
  EXPECT_TRUE(hasError(Report, "AN5D-A216"));
  for (const AnalysisFinding &F : Report.Findings)
    EXPECT_EQ(F.Subject, "degree 4 axis 2") << F.toString();
}

TEST(ScheduleVerifier, ViolationsAreTheProversErrorFindings) {
  // verifyScheduleIR is the standalone entry point: the same findings as
  // the pass, against an allocation of IR.Radius cells per side.
  GoodSchedule S;
  EXPECT_TRUE(verifyScheduleIR(S.IR).proven());
  S.mutateShared([](long long &, long long &RingDepth, int &,
                    ScheduleHaloPolicy &) { RingDepth -= 1; });
  ScheduleVerifyResult Verdict = verifyScheduleIR(S.IR);
  AnalysisReport Report = S.prove();
  ASSERT_FALSE(Verdict.proven());
  ASSERT_EQ(Verdict.Violations.size(), Report.Findings.size());
  for (std::size_t I = 0; I < Report.Findings.size(); ++I) {
    const AnalysisFinding &V = Verdict.Violations[I];
    EXPECT_EQ(V.toString(), Report.Findings[I].toString());
    EXPECT_EQ(V.Severity, FindingSeverity::Error) << V.toString();
    EXPECT_EQ(V.Pass, "schedule-prover") << V.toString();
  }
}

TEST(ScheduleMutation, FindingRendersAsDiagnostic) {
  GoodSchedule S;
  S.mutateShared([](long long &, long long &RingDepth, int &,
                    ScheduleHaloPolicy &) { RingDepth -= 1; });
  AnalysisReport Report = S.prove();
  ASSERT_FALSE(Report.proven());
  DiagnosticEngine Diags;
  Report.render(Diags);
  EXPECT_EQ(Diags.errorCount(), Report.Findings.size());
  EXPECT_NE(Diags.toString().find("[AN5D-A204]"), std::string::npos);
}

TEST(SymBoundProof, AffineComparisonNeedsBothTerms) {
  // E - 3 <= E for all E >= 1: coefficient diff 0, offset diff 3.
  EXPECT_TRUE(provedLE(SymBound{1, -3}, SymBound{1, 0}, 1));
  // E <= 5 is unprovable for unbounded E even though it holds at E = 1.
  EXPECT_FALSE(provedLE(SymBound{1, 0}, SymBound{0, 5}, 1));
  // 2E - 8 <= E holds at the minimum extent 1 but fails for large E.
  EXPECT_FALSE(provedLE(SymBound{2, -8}, SymBound{1, 0}, 1));
  // 0 <= E - 4 only once the schedule's minimum extent reaches 4.
  EXPECT_FALSE(provedLE(SymBound{0, 0}, SymBound{1, -4}, 1));
  EXPECT_TRUE(provedLE(SymBound{0, 0}, SymBound{1, -4}, 4));
  EXPECT_EQ((SymBound{2, -3}).value(10), 17);
}

//===----------------------------------------------------------------------===//
// Resource estimation: features and grading
//===----------------------------------------------------------------------===//

TEST(ResourceEstimation, MatchesOccupancyModels) {
  auto P = makeBenchmarkStencil("j2d5pt", ScalarType::Float);
  BlockConfig Config;
  Config.BT = 4;
  Config.BS = {128};
  Config.HS = 0;
  ResourceEstimate E = estimateResources(*P, Config);
  ASSERT_TRUE(E.Valid);
  EXPECT_EQ(E.RegistersPerThread, an5dRegistersPerThread(*P, Config.BT));
  EXPECT_EQ(E.SmemBytesPerBlock,
            an5dSmemBytesPerBlock(*P, Config.numThreads()));
  // bT=4 tiers x RingDepth 3 x 8-byte words.
  EXPECT_EQ(E.RingBytesPerThread, 96);
  EXPECT_EQ(E.RingBytesPerBlock, 96 * Config.numThreads());
  EXPECT_GT(E.TapeFlops, 0);
  EXPECT_GT(E.ArithmeticIntensity, 0.0);
  EXPECT_GE(E.LoadRedundancy, 1.0);
}

TEST(ResourceEstimation, OccupancySliceAgreesWithFullEstimate) {
  auto P = makeBenchmarkStencil("star3d2r", ScalarType::Float);
  BlockConfig Config;
  Config.BT = 2;
  Config.BS = {32, 32};
  Config.HS = 0;
  ResourceEstimate Full = estimateResources(*P, Config);
  ResourceEstimate Occ = estimateOccupancy(*P, Config);
  ASSERT_TRUE(Full.Valid);
  ASSERT_TRUE(Occ.Valid);
  EXPECT_EQ(Occ.RegistersPerThread, Full.RegistersPerThread);
  EXPECT_EQ(Occ.SmemBytesPerBlock, Full.SmemBytesPerBlock);
  EXPECT_EQ(Occ.RingBytesPerThread, Full.RingBytesPerThread);
  EXPECT_EQ(Occ.RingBytesPerBlock, Full.RingBytesPerBlock);
}

TEST(ResourceEstimation, ModelBreakdownCarriesTheEstimate) {
  auto P = makeBenchmarkStencil("j2d5pt", ScalarType::Float);
  BlockConfig Config;
  Config.BT = 4;
  Config.BS = {256};
  Config.HS = 0;
  ModelBreakdown Out = evaluateModel(*P, GpuSpec::teslaV100(), Config,
                                     ProblemSize::paperDefault(2));
  ASSERT_TRUE(Out.Feasible);
  ASSERT_TRUE(Out.Resources.Valid);
  EXPECT_EQ(Out.Resources.RegistersPerThread,
            an5dRegistersPerThread(*P, Config.BT));
  EXPECT_EQ(Out.Resources.SmemBytesPerBlock,
            an5dSmemBytesPerBlock(*P, Config.numThreads()));
}

TEST(ResourceEstimation, A301FiresOnRegisterOverflow) {
  // Double-precision star2d4r at bT=16: 2*16*9 + 16 + 30 = 334 registers
  // per thread, far past the 255-register ISA encoding bound.
  auto P = makeBenchmarkStencil("star2d4r", ScalarType::Double);
  BlockConfig Config;
  Config.BT = 16;
  Config.BS = {512};
  Config.HS = 0;
  ASSERT_TRUE(Config.isFeasible(P->radius(), /*CUDA threads per block=*/1024));
  ASSERT_GT(an5dRegistersPerThread(*P, Config.BT), 255);
  ScheduleIR IR = lowerSchedule(*P, Config);
  AnalysisInput Input;
  Input.Program = P.get();
  Input.Schedule = &IR;
  AnalysisReport Report = AnalysisPassManager::standardPipeline().run(Input);
  EXPECT_TRUE(Report.hasFinding("AN5D-A301")) << Report.toString();
  EXPECT_TRUE(Report.proven()) << "register pressure is advisory for the "
                                  "tuner (the model prunes it)";
}

TEST(ResourceEstimation, A302FiresOnLowArithmeticIntensity) {
  // star1d1r at bT=1: ~5 FLOP against 16 amortized gmem bytes per cell.
  auto P = makeBenchmarkStencil("star1d1r", ScalarType::Float);
  BlockConfig Config;
  Config.BT = 1;
  Config.BS = {};
  Config.HS = 0;
  ScheduleIR IR = lowerSchedule(*P, Config);
  ResourceEstimate E = estimateResources(*P, IR);
  ASSERT_TRUE(E.Valid);
  ASSERT_LT(E.ArithmeticIntensity, 1.0);
  AnalysisInput Input;
  Input.Program = P.get();
  Input.Schedule = &IR;
  AnalysisReport Report = AnalysisPassManager::standardPipeline().run(Input);
  EXPECT_TRUE(Report.hasFinding("AN5D-A302")) << Report.toString();
  EXPECT_TRUE(Report.proven());
}

TEST(ResourceEstimation, InvalidOnDegenerateSchedule) {
  auto P = makeBenchmarkStencil("j2d5pt", ScalarType::Float);
  BlockConfig Config;
  Config.BT = 0; // lowers to an empty invocation list
  Config.BS = {64};
  ScheduleIR IR = lowerSchedule(*P, Config);
  ResourceEstimate E = estimateResources(*P, IR);
  EXPECT_FALSE(E.Valid);
}

//===----------------------------------------------------------------------===//
// Tuner integration: the pipeline gates candidates pre-JIT
//===----------------------------------------------------------------------===//

TEST(AnalysisTunerGate, EnumeratedCandidatesAreNeverRejected) {
  auto P = makeBenchmarkStencil("j2d5pt", ScalarType::Float);
  Tuner T(GpuSpec::teslaV100());
  TuneOutcome Outcome = T.tune(*P, ProblemSize::paperDefault(2));
  EXPECT_TRUE(Outcome.Feasible);
  EXPECT_EQ(Outcome.VerifierRejections, 0u) << Outcome.FirstRejectionReason;
  EXPECT_EQ(Outcome.AnalysisRejections, 0u) << Outcome.FirstRejectionReason;
  EXPECT_TRUE(Outcome.FirstRejectionReason.empty());
}

TEST(AnalysisTunerGate, EveryBuiltinTunesWithoutRejections) {
  // The gate proves each candidate against the problem's own host
  // schedule, at every dimensionality.
  Tuner T(GpuSpec::teslaV100());
  for (const std::string &Name : allBuiltinNames()) {
    auto P = makeBenchmarkStencil(Name, ScalarType::Float);
    TuneOutcome Outcome = T.tune(*P, ProblemSize::paperDefault(P->numDims()));
    EXPECT_TRUE(Outcome.Feasible) << Name;
    EXPECT_EQ(Outcome.VerifierRejections + Outcome.AnalysisRejections, 0u)
        << Name << ": " << Outcome.FirstRejectionReason;
  }
}

TEST(AnalysisTunerGate, TapeErrorsCountAsAnalysisRejections) {
  // A[i][j] / 0.0: every candidate's tape fails A111, so the gate refuses
  // each one before the sweep and books it under the tape family.
  StencilProgram P("div0", 2, ScalarType::Float, "A",
                   makeDiv(makeGridRead("A", {0, 0}), makeNumber(0.0)));
  Tuner T(GpuSpec::teslaV100());
  TuneOutcome Outcome = T.tune(P, ProblemSize::paperDefault(2));
  ASSERT_FALSE(Outcome.TopByModel.empty());
  EXPECT_FALSE(Outcome.Feasible);
  EXPECT_EQ(Outcome.AnalysisRejections, Outcome.TopByModel.size());
  EXPECT_EQ(Outcome.VerifierRejections, 0u);
  EXPECT_NE(Outcome.FirstRejectionReason.find("AN5D-A111"),
            std::string::npos)
      << Outcome.FirstRejectionReason;
}

TEST(AnalysisTunerGate, RankedCandidatesCarryOccupancyFeatures) {
  auto P = makeBenchmarkStencil("star2d2r", ScalarType::Float);
  Tuner T(GpuSpec::teslaV100());
  TuneOutcome Outcome = T.tune(*P, ProblemSize::paperDefault(2));
  ASSERT_TRUE(Outcome.Feasible);
  ASSERT_FALSE(Outcome.TopByModel.empty());
  // rankByModel's model breakdown carries the occupancy slice of the
  // resource estimate (estimateOccupancy) the model scored it with.
  const RankedConfig &Best = Outcome.TopByModel.front();
  EXPECT_TRUE(Best.Model.Resources.Valid);
  EXPECT_EQ(Best.Model.Resources.RegistersPerThread,
            an5dRegistersPerThread(*P, Best.Config.BT));
}

//===----------------------------------------------------------------------===//
// Fixed-seed fuzzing: DSL programs and tape corruptions
//===----------------------------------------------------------------------===//

namespace {

/// Deliberate corruptions with known-graceful failure modes (each trips a
/// parser or extractor diagnostic, never an assert).
enum class SourceCorruption {
  None,
  DropSemicolon,
  UnbalanceParen,
  TimeVarInValue,
  LoopVarAsCoefficient,
  ModuloInValue,
  Count,
};

std::string makeRandomStencilSource(std::mt19937 &Rng,
                                    SourceCorruption Corruption) {
  std::uniform_int_distribution<int> DimDist(1, 3);
  std::uniform_int_distribution<int> RadiusDist(1, 2);
  const int Dims = DimDist(Rng);
  const int Radius = RadiusDist(Rng);
  const char *Vars[] = {"i", "j", "k"};

  std::string Src = "for (t = 0; t < I_T; t++)\n";
  for (int D = 0; D < Dims; ++D) {
    Src += std::string(2 * (D + 1), ' ') + "for (" + Vars[D] + " = 1; " +
           Vars[D] + " <= I_S" + std::to_string(Dims - D) + "; " + Vars[D] +
           "++)\n";
  }

  auto Subscript = [&](const std::vector<int> &Offsets) {
    std::string Ref = "A[t%2]";
    for (int D = 0; D < Dims; ++D) {
      Ref += "[" + std::string(Vars[D]);
      if (Offsets[D] > 0)
        Ref += "+" + std::to_string(Offsets[D]);
      else if (Offsets[D] < 0)
        Ref += std::to_string(Offsets[D]);
      Ref += "]";
    }
    return Ref;
  };

  std::string Lhs = "A[(t+1)%2]";
  for (int D = 0; D < Dims; ++D)
    Lhs += "[" + std::string(Vars[D]) + "]";

  std::uniform_int_distribution<int> TermDist(1, 6);
  std::uniform_int_distribution<int> OffsetDist(-Radius, Radius);
  std::uniform_int_distribution<int> CoefDist(1, 99);
  const int Terms = TermDist(Rng);
  std::string Rhs;
  for (int T = 0; T < Terms; ++T) {
    std::vector<int> Offsets(Dims, 0);
    // Star-style taps keep one axis active so the extractor's shape
    // classification stays within supported territory.
    Offsets[static_cast<std::size_t>(T) % Dims] = OffsetDist(Rng);
    if (T > 0)
      Rhs += (Rng() % 2 ? " + " : " - ");
    Rhs += "0." + std::to_string(CoefDist(Rng)) + "f * " + Subscript(Offsets);
  }
  // Ensure at least one tap reads the center cell (keeps the program
  // non-degenerate whatever the offsets rolled above).
  Rhs += " + 0.5f * " + Subscript(std::vector<int>(Dims, 0));

  switch (Corruption) {
  case SourceCorruption::TimeVarInValue:
    Rhs += " + t";
    break;
  case SourceCorruption::LoopVarAsCoefficient:
    Rhs += " + " + std::string(Vars[0]);
    break;
  case SourceCorruption::ModuloInValue:
    Rhs += " % 2";
    break;
  default:
    break;
  }

  Src += std::string(2 * (Dims + 1), ' ') + Lhs + " = " + Rhs +
         (Corruption == SourceCorruption::DropSemicolon ? "\n" : ";\n");
  if (Corruption == SourceCorruption::UnbalanceParen) {
    std::size_t Paren = Src.find('(');
    Src[Paren] = ' ';
  }
  return Src;
}

} // namespace

TEST(AnalysisFuzz, RandomDslProgramsNeverCrashTheFrontend) {
  std::mt19937 Rng(0xA5D51u); // fixed seed: reproducible corpus
  int Extracted = 0, Rejected = 0;
  for (int Iter = 0; Iter < 300; ++Iter) {
    // Half the corpus stays uncorrupted so both outcomes get coverage.
    SourceCorruption Corruption =
        (Rng() % 2) ? SourceCorruption::None
                    : static_cast<SourceCorruption>(
                          1 + Rng() % (static_cast<unsigned>(
                                           SourceCorruption::Count) -
                                       1));
    std::string Src = makeRandomStencilSource(Rng, Corruption);

    DiagnosticEngine Diags;
    StencilExtractor Extractor(Diags);
    auto Result =
        Extractor.extractFromSource(Src, "fuzz" + std::to_string(Iter));

    if (Result) {
      // Success implies a TapeVerifier-clean plan (extraction re-verifies
      // at lowering time and refuses anything the interpreter refutes).
      AnalysisReport Report = verifyTape(factsOf(*Result->Program));
      EXPECT_EQ(Report.errorCount(), 0u)
          << "iteration " << Iter << "\n"
          << Src << Report.toString();
      ++Extracted;
    } else {
      EXPECT_TRUE(Diags.hasErrors())
          << "iteration " << Iter
          << ": rejection without a structured diagnostic\n"
          << Src;
      ++Rejected;
    }
    if (Corruption == SourceCorruption::None)
      EXPECT_TRUE(Result.has_value())
          << "iteration " << Iter << ": uncorrupted program rejected\n"
          << Src << Diags.toString();
  }
  // The corpus must exercise both outcomes or the loop proves nothing.
  EXPECT_GT(Extracted, 50);
  EXPECT_GT(Rejected, 50);
}

TEST(AnalysisFuzz, RandomTapeCorruptionsNeverCrashTheVerifier) {
  auto P = makeBenchmarkStencil("j2d5pt", ScalarType::Float);
  const TapeFacts Pristine = factsOf(*P);
  std::mt19937 Rng(0xA5D52u); // fixed seed: reproducible corpus
  for (int Iter = 0; Iter < 500; ++Iter) {
    TapeFacts Facts = Pristine;
    std::uniform_int_distribution<int> MutationCount(1, 3);
    for (int M = MutationCount(Rng); M > 0; --M) {
      switch (Rng() % 8) {
      case 0:
        if (!Facts.Ops.empty())
          Facts.Ops[Rng() % Facts.Ops.size()].Kind =
              static_cast<TapeOpKind>(Rng() % 17);
        break;
      case 1:
        if (!Facts.Ops.empty())
          Facts.Ops[Rng() % Facts.Ops.size()].Arg =
              static_cast<std::uint16_t>(Rng() % 1000);
        break;
      case 2:
        if (!Facts.Ops.empty())
          Facts.Ops.erase(Facts.Ops.begin() +
                          static_cast<long>(Rng() % Facts.Ops.size()));
        break;
      case 3:
        Facts.Ops.push_back(TapeOp{static_cast<TapeOpKind>(Rng() % 17),
                                   static_cast<std::uint16_t>(Rng() % 64)});
        break;
      case 4:
        Facts.MaxStackDepth += static_cast<int>(Rng() % 7) - 3;
        break;
      case 5:
        if (!Facts.Constants.empty())
          Facts.Constants[Rng() % Facts.Constants.size()] =
              (Rng() % 2) ? std::numeric_limits<double>::infinity() : -1.0;
        break;
      case 6:
        if (!Facts.Taps.empty()) {
          std::vector<int> &Tap = Facts.Taps[Rng() % Facts.Taps.size()];
          if (Rng() % 2 && !Tap.empty())
            Tap.pop_back();
          else
            Tap.push_back(static_cast<int>(Rng() % 9) - 4);
        }
        break;
      default:
        Facts.HasConstantDivision = !Facts.HasConstantDivision;
        break;
      }
    }
    // Whatever the corruption, the verifier must terminate with a
    // well-formed, JSON-renderable report — never crash or hang.
    AnalysisReport Report = verifyTape(Facts);
    std::string Rendered = Report.toString();
    EXPECT_FALSE(Rendered.empty());
    std::string Error;
    EXPECT_TRUE(obs::parseJson(Report.toJson(), &Error).has_value())
        << Error << " in iteration " << Iter;
  }
}
