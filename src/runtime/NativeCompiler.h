//===- NativeCompiler.h - Host C++ compiler driver --------------*- C++ -*-===//
//
// Part of the AN5D reproduction project, under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Shells out to the host C++ compiler to build a generated kernel
/// translation unit into a shared library for the host that loads it.
/// The compiler is resolved once (AN5D_CXX environment variable, then the
/// compiler CMake configured the project with, then plain `c++`) and
/// probed once per process per command: its version string, which of the
/// optional kernel flags it accepts (a tiny OpenMP shared library is
/// actually built, so a clang without libomp fails the probe and kernels
/// compile serially), and a hash of the macros it predefines under the
/// kept flags (`-dM -E`). The (command, version, target macros, effective
/// flags) tuple forms the fingerprint KernelCache hashes, so a toolchain
/// change, a flag appearing or vanishing, or a host of another ISA sharing
/// the cache lands on fresh keys instead of serving a foreign artifact.
///
/// Every build uses -std=c++17 -O2 -shared -fPIC -ffp-contract=off plus
/// the accepted subset of:
///   -fopenmp            OpenMP worksharing over the kernel's blocks;
///   -march=native       the host's vector ISA (AVX2/AVX-512 where present
///                       instead of x86-64's 16-byte SSE2);
///   -static-libstdc++   a link that skips libstdc++.so: the kernel TU
///                       references nothing from it, so nothing is pulled
///                       in and the built object needs no C++ runtime.
/// The contraction flag is load-bearing — the kernels promise bit-for-bit
/// agreement with the in-process executors, and a fused mul/add would
/// break that (see the root CMakeLists rationale); no fast-math flag is
/// ever added, so a wider vector ISA changes speed, not results. A caller
/// overrides any of these through the extra flags (e.g. -march=x86-64).
///
//===----------------------------------------------------------------------===//

#ifndef AN5D_RUNTIME_NATIVECOMPILER_H
#define AN5D_RUNTIME_NATIVECOMPILER_H

#include <string>
#include <vector>

namespace an5d {

/// Result of one shared-library build.
struct CompileOutcome {
  bool Success = false;
  /// The exact command line run.
  std::string Command;
  /// Captured compiler stdout+stderr.
  std::string Log;
  double Seconds = 0;
};

class NativeCompiler {
public:
  /// \p Command overrides compiler detection when non-empty. Probes
  /// (version, OpenMP) run once per process per distinct command.
  explicit NativeCompiler(std::string Command = "");

  /// Resolution order: $AN5D_CXX, the configure-time compiler
  /// (AN5D_HOST_CXX), `c++`.
  static std::string detect();

  const std::string &command() const { return Command_; }

  /// First line of `<command> --version`; empty if the probe failed.
  const std::string &version() const { return Version; }

  /// True if the version probe succeeded (the compiler exists and runs).
  bool available() const { return !Version.empty(); }

  /// True if the probe built a -fopenmp shared library successfully;
  /// kernels then compile with OpenMP worksharing enabled.
  bool openMpSupported() const;

  /// Hash of the compiler's predefined macros under the probed flags;
  /// part of fingerprint(). Empty if the compiler is unavailable.
  const std::string &targetDigest() const { return TargetDigest; }

  /// The sanitizer flags kernel builds inherit so dlopen'd kernels run
  /// under the *same* sanitizer as the host process: the
  /// AN5D_KERNEL_SANITIZE environment variable when set (raw flags;
  /// "none" disables), otherwise the flags CMake baked in when the
  /// project was configured with AN5D_SANITIZE. Empty in a plain build.
  static std::vector<std::string> sanitizerFlags();

  /// The flags every kernel build uses with this compiler, in order (the
  /// probed flags the compiler accepted included, sanitizerFlags()
  /// appended; under -fsanitize=thread the OpenMP flag is dropped — see
  /// flags() for the uninstrumented-libgomp rationale). \p ExtraFlags of
  /// compileSharedLibrary are appended after these, so callers can
  /// override (e.g. a test passing -O1 for faster builds).
  std::vector<std::string> flags() const;

  /// Compiler identity + effective flag set; hashed into the kernel-cache
  /// key.
  std::string fingerprint(const std::vector<std::string> &ExtraFlags) const;

  /// Builds \p SourcePath into the shared library \p OutputPath.
  CompileOutcome
  compileSharedLibrary(const std::string &SourcePath,
                       const std::string &OutputPath,
                       const std::vector<std::string> &ExtraFlags) const;

private:
  std::string Command_;
  std::string Version;
  /// The probed flags the compiler accepted, in probe order.
  std::vector<std::string> Accepted;
  std::string TargetDigest;
};

} // namespace an5d

#endif // AN5D_RUNTIME_NATIVECOMPILER_H
