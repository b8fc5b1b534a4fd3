//===- NativeCompiler.cpp - Host C++ compiler driver -------------------------===//
//
// Part of the AN5D reproduction project, under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "runtime/NativeCompiler.h"

#include "runtime/KernelCache.h"

#include <algorithm>
#include <array>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <map>
#include <mutex>

#if !defined(_WIN32)
#include <sys/wait.h>
#include <unistd.h>
#endif

namespace an5d {

namespace {

/// Runs \p Command with stderr folded into stdout; returns (exit code,
/// captured output). Exit code -1 means the shell could not be spawned
/// or the command died abnormally (e.g. a signal-killed cc1plus must not
/// masquerade as exit 0, which WEXITSTATUS alone would report).
std::pair<int, std::string> runCommand(const std::string &Command) {
  std::string Full = Command + " 2>&1";
  FILE *Pipe = ::popen(Full.c_str(), "r");
  if (!Pipe)
    return {-1, "popen failed"};
  std::string Output;
  std::array<char, 4096> Buffer;
  while (std::fgets(Buffer.data(), Buffer.size(), Pipe))
    Output += Buffer.data();
  int Status = ::pclose(Pipe);
  if (Status == -1)
    return {-1, Output};
#if !defined(_WIN32)
  if (!WIFEXITED(Status)) {
    if (WIFSIGNALED(Status))
      Output += "\ncommand terminated by signal " +
                std::to_string(WTERMSIG(Status));
    else
      Output += "\ncommand terminated abnormally";
    return {-1, Output};
  }
  return {WEXITSTATUS(Status), Output};
#else
  return {Status, Output};
#endif
}

/// Single-quotes \p Path for the shell (cache and temp dirs may contain
/// spaces).
std::string shellQuote(const std::string &Path) {
  std::string Out = "'";
  for (char C : Path) {
    if (C == '\'')
      Out += "'\\''";
    else
      Out += C;
  }
  Out += "'";
  return Out;
}

/// The flags every kernel build starts from; the probe adds what the
/// compiler accepts of kernelProbeFlags().
const std::vector<std::string> &baseFlags() {
  static const std::vector<std::string> Flags = {
      "-std=c++17", "-O2", "-shared", "-fPIC", "-ffp-contract=off"};
  return Flags;
}

/// Flags a kernel build keeps only if the compiler accepts them, in the
/// order they are probed and appended: OpenMP worksharing, the ISA of the
/// host that loads the kernel, and a link that does not read libstdc++
/// (the kernel references nothing from it).
const std::vector<std::string> &kernelProbeFlags() {
  static const std::vector<std::string> Flags = {"-fopenmp", "-march=native",
                                                 "-static-libstdc++"};
  return Flags;
}

/// One-time probe results for a compiler command. Probing forks the
/// compiler a few times (--version, a -shared build of a tiny OpenMP
/// library, a predefined-macro dump), so results are memoized per
/// process: NativeExecutor constructs a NativeCompiler per kernel and
/// must not pay the probe on every cache hit.
struct CompilerProbe {
  std::string Version;
  /// The accepted subset of kernelProbeFlags(), in order.
  std::vector<std::string> Accepted;
  /// Hash of the predefined macros under baseFlags() + Accepted.
  std::string TargetDigest;
};

const CompilerProbe &probeCompiler(const std::string &Command) {
  static std::mutex RegistryMutex;
  static std::map<std::string, CompilerProbe> Registry;
  std::lock_guard<std::mutex> Lock(RegistryMutex);
  auto It = Registry.find(Command);
  if (It != Registry.end())
    return It->second;

  CompilerProbe Probe;
  auto [Code, Output] = runCommand(shellQuote(Command) + " --version");
  if (Code == 0) {
    std::size_t Eol = Output.find('\n');
    Probe.Version = Eol == std::string::npos ? Output : Output.substr(0, Eol);
  }

  if (!Probe.Version.empty()) {
    namespace fs = std::filesystem;
    std::error_code Ec;
    fs::path Tmp = fs::temp_directory_path(Ec);
    if (Ec)
      Tmp = "/tmp";
#if defined(_WIN32)
    std::string Tag = "an5d_probe";
#else
    std::string Tag = "an5d_probe_" + std::to_string(::getpid());
#endif
    fs::path Source = Tmp / (Tag + ".cpp");
    fs::path Library = Tmp / (Tag + ".so");
    {
      std::ofstream Out(Source);
      Out << "extern \"C\" int an5d_omp_probe(void) {\n"
             "  int n = 0;\n"
             "#pragma omp parallel\n"
             "  { n = 1; }\n"
             "  return n;\n"
             "}\n";
    }
    auto Line = [&](const std::vector<std::string> &Flags) {
      std::string Cmd = shellQuote(Command);
      for (const std::string &Flag : baseFlags())
        Cmd += " " + Flag;
      for (const std::string &Flag : Flags)
        Cmd += " " + Flag;
      return Cmd;
    };
    // A real shared-library build, since e.g. clang without libomp only
    // fails at link time.
    auto Builds = [&](const std::vector<std::string> &Flags) {
      return runCommand(Line(Flags) + " -o " + shellQuote(Library.string()) +
                        " " + shellQuote(Source.string()))
                 .first == 0;
    };
    // One build accepts every flag on a usual toolchain; otherwise each
    // flag is kept only if it still builds beside the ones kept before it.
    if (Builds(kernelProbeFlags())) {
      Probe.Accepted = kernelProbeFlags();
    } else {
      for (const std::string &Flag : kernelProbeFlags()) {
        std::vector<std::string> Trial = Probe.Accepted;
        Trial.push_back(Flag);
        if (Builds(Trial))
          Probe.Accepted = std::move(Trial);
      }
    }
    fs::remove(Source, Ec);
    fs::remove(Library, Ec);

    // The macros the compiler predefines under the kept flags name the
    // target it builds for (-march=native resolves to the host's ISA
    // extensions), so a cache shared between hosts keys them apart.
    auto [DumpCode, Macros] =
        runCommand(Line(Probe.Accepted) + " -dM -E -x c++ /dev/null");
    Probe.TargetDigest = KernelCache::hashKey(DumpCode == 0 ? Macros : "", "");
  }

  return Registry.emplace(Command, std::move(Probe)).first->second;
}

} // namespace

std::string NativeCompiler::detect() {
  if (const char *Env = std::getenv("AN5D_CXX"); Env && *Env)
    return Env;
#ifdef AN5D_HOST_CXX
  return AN5D_HOST_CXX;
#else
  return "c++";
#endif
}

NativeCompiler::NativeCompiler(std::string Command)
    : Command_(Command.empty() ? detect() : std::move(Command)) {
  const CompilerProbe &Probe = probeCompiler(Command_);
  Version = Probe.Version;
  Accepted = Probe.Accepted;
  TargetDigest = Probe.TargetDigest;
}

bool NativeCompiler::openMpSupported() const {
  return std::find(Accepted.begin(), Accepted.end(), "-fopenmp") !=
         Accepted.end();
}

std::vector<std::string> NativeCompiler::sanitizerFlags() {
  std::string Raw;
  if (const char *Env = std::getenv("AN5D_KERNEL_SANITIZE"))
    Raw = Env;
#ifdef AN5D_SANITIZE_FLAGS
  else
    Raw = AN5D_SANITIZE_FLAGS;
#endif
  if (Raw.empty() || Raw == "none" || Raw == "0")
    return {};
  std::vector<std::string> Flags;
  std::string Current;
  for (char C : Raw) {
    if (C == ' ' || C == ';') {
      if (!Current.empty())
        Flags.push_back(std::move(Current));
      Current.clear();
    } else {
      Current += C;
    }
  }
  if (!Current.empty())
    Flags.push_back(std::move(Current));
  return Flags;
}

std::vector<std::string> NativeCompiler::flags() const {
  // -ffp-contract=off keeps the bit-for-bit contract with the in-process
  // executors (no fused mul/add); see the file comment. The probed flags
  // appear only when the compiler built with them, and through
  // fingerprint() they are part of the cache key — so a toolchain gaining
  // or losing one (or a sanitizer appearing) can never be served a stale
  // artifact.
  std::vector<std::string> Flags = baseFlags();
  const std::vector<std::string> Sanitize = sanitizerFlags();
  bool ThreadSanitizer = false;
  for (const std::string &Flag : Sanitize)
    if (Flag.find("thread") != std::string::npos)
      ThreadSanitizer = true;
  // Under -fsanitize=thread kernels build without OpenMP: the system
  // libgomp is not TSan-instrumented, so every worksharing barrier would
  // be reported as a false-positive race. The kernels' serial path is
  // schedule-identical (the pair loop just runs on one thread), so TSan
  // still exercises the full tier pipeline. See README "Static
  // verification & sanitizers".
  for (const std::string &Flag : Accepted)
    if (!(ThreadSanitizer && Flag == "-fopenmp"))
      Flags.push_back(Flag);
  Flags.insert(Flags.end(), Sanitize.begin(), Sanitize.end());
  return Flags;
}

std::string
NativeCompiler::fingerprint(const std::vector<std::string> &ExtraFlags) const {
  std::string Out =
      Command_ + "\n" + Version + "\ntarget " + TargetDigest + "\n";
  for (const std::string &Flag : flags())
    Out += Flag + " ";
  for (const std::string &Flag : ExtraFlags)
    Out += Flag + " ";
  return Out;
}

CompileOutcome NativeCompiler::compileSharedLibrary(
    const std::string &SourcePath, const std::string &OutputPath,
    const std::vector<std::string> &ExtraFlags) const {
  CompileOutcome Outcome;
  auto Start = std::chrono::steady_clock::now();

  std::string Cmd = shellQuote(Command_);
  for (const std::string &Flag : flags())
    Cmd += " " + Flag;
  for (const std::string &Flag : ExtraFlags)
    Cmd += " " + Flag;
  Cmd += " -o " + shellQuote(OutputPath) + " " + shellQuote(SourcePath);

  Outcome.Command = Cmd;
  auto [Code, Output] = runCommand(Cmd);
  Outcome.Log = Output;
  Outcome.Success = Code == 0;
  Outcome.Seconds = std::chrono::duration<double>(
                        std::chrono::steady_clock::now() - Start)
                        .count();
  return Outcome;
}

} // namespace an5d
