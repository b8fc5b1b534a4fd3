//===- AnalysisPass.cpp - Static dataflow pass framework ------------------===//
//
// Part of the AN5D reproduction project, under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "analysis/passes/AnalysisPass.h"

#include "analysis/ScheduleVerifier.h"
#include "analysis/passes/ResourceEstimator.h"
#include "analysis/passes/TapeVerifier.h"
#include "ir/StencilProgram.h"
#include "obs/JsonLite.h"
#include "obs/Metrics.h"
#include "obs/Trace.h"

namespace an5d {

const char *findingSeverityName(FindingSeverity Severity) {
  switch (Severity) {
  case FindingSeverity::Error:
    return "error";
  case FindingSeverity::Warn:
    return "warn";
  case FindingSeverity::Info:
    return "info";
  }
  return "error";
}

std::string AnalysisFinding::toString() const {
  std::string Out;
  Out += "[" + Id + "][";
  Out += findingSeverityName(Severity);
  Out += "] " + Pass + ": " + Message;
  if (!Subject.empty())
    Out += " (" + Subject + ")";
  return Out;
}

Diagnostic AnalysisFinding::toDiagnostic() const {
  Diagnostic D;
  switch (Severity) {
  case FindingSeverity::Error:
    D.Kind = DiagnosticKind::Error;
    break;
  case FindingSeverity::Warn:
    D.Kind = DiagnosticKind::Warning;
    break;
  case FindingSeverity::Info:
    D.Kind = DiagnosticKind::Note;
    break;
  }
  D.Message = "[" + Id + "] " + Message;
  if (!Subject.empty())
    D.Message += " (" + Subject + ")";
  return D;
}

void AnalysisFinding::appendJson(std::string &Out) const {
  Out += "{\"id\":";
  obs::appendJsonString(Out, Id);
  Out += ",\"severity\":\"";
  Out += findingSeverityName(Severity);
  Out += "\",\"pass\":";
  obs::appendJsonString(Out, Pass);
  Out += ",\"subject\":";
  obs::appendJsonString(Out, Subject);
  Out += ",\"message\":";
  obs::appendJsonString(Out, Message);
  Out += "}";
}

std::size_t AnalysisReport::errorCount() const {
  return countBySeverity(FindingSeverity::Error);
}

std::size_t AnalysisReport::countBySeverity(FindingSeverity Severity) const {
  std::size_t N = 0;
  for (const AnalysisFinding &F : Findings)
    if (F.Severity == Severity)
      ++N;
  return N;
}

bool AnalysisReport::hasFinding(const std::string &Id) const {
  for (const AnalysisFinding &F : Findings)
    if (F.Id == Id)
      return true;
  return false;
}

std::string AnalysisReport::toString() const {
  if (Findings.empty())
    return "analysis clean\n";
  std::string Out;
  for (const AnalysisFinding &F : Findings) {
    Out += F.toString();
    Out += "\n";
  }
  return Out;
}

std::string AnalysisReport::toJson() const {
  std::string Out = "[";
  for (std::size_t I = 0; I < Findings.size(); ++I) {
    if (I)
      Out += ",";
    Findings[I].appendJson(Out);
  }
  Out += "]";
  return Out;
}

void AnalysisReport::render(DiagnosticEngine &Diags) const {
  for (const AnalysisFinding &F : Findings)
    Diags.report(F.toDiagnostic());
}

AnalysisPassManager &
AnalysisPassManager::add(std::unique_ptr<AnalysisPass> Pass) {
  Passes.push_back(std::move(Pass));
  return *this;
}

AnalysisPassManager AnalysisPassManager::standardPipeline() {
  AnalysisPassManager PM;
  PM.add(std::make_unique<TapeVerifierPass>());
  PM.add(std::make_unique<ScheduleProverPass>());
  PM.add(std::make_unique<ResourceEstimatorPass>());
  return PM;
}

AnalysisReport AnalysisPassManager::run(const AnalysisInput &Input) const {
  AnalysisInput Resolved = Input;
  if (!Resolved.Plan && Resolved.Program)
    Resolved.Plan = &Resolved.Program->plan();

  AnalysisReport Report;
  for (const std::unique_ptr<AnalysisPass> &Pass : Passes) {
    AN5D_TRACE_SPAN("analysis.pass", {{"pass", Pass->name()}});
    std::size_t Before = Report.Findings.size();
    Pass->run(Resolved, Report);
    obs::count("analysis.pass_runs");
    obs::count("analysis.findings",
               static_cast<long long>(Report.Findings.size() - Before));
  }
  return Report;
}

} // namespace an5d
