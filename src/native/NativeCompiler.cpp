//===- native/NativeCompiler.cpp - Host toolchain probe + C compilation ---===//
//
// Part of the ILDP-DBT project (CGO 2003 reproduction).
//
//===----------------------------------------------------------------------===//

#include "native/NativeCompiler.h"

#include "iisa/Executor.h"
#include "native/NativeAbi.h"
#include "native/NativeEmitter.h"

#include <atomic>
#include <cstdio>
#include <fcntl.h>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <mutex>
#include <spawn.h>
#include <sys/wait.h>
#include <unistd.h>

using namespace ildp;
using namespace ildp::native;

extern "C" char **environ;

namespace {

/// Compile flags shared by the probe, real compilations, and the command
/// checksum. -fPIC -shared because we dlopen the result; -O2 because
/// eliminating interpretive dispatch only pays off if the host compiler
/// actually optimizes the straight-line body.
const char *const CompileFlags[] = {"-O2", "-fPIC", "-shared", "-x", "c"};

std::string uniqueTempBase(const char *Tag) {
  static std::atomic<uint64_t> Counter{0};
  const char *Dir = ::getenv("TMPDIR");
  if (!Dir || !*Dir)
    Dir = "/tmp";
  return std::string(Dir) + "/ildp-native-" + Tag + "-" +
         std::to_string(uint64_t(::getpid())) + "-" +
         std::to_string(Counter.fetch_add(1));
}

/// Runs \p Argv with stdout and stderr redirected to \p OutputPath.
/// Returns the exit status, or -1 on spawn failure.
int runCommand(const std::vector<std::string> &Argv,
               const std::string &OutputPath) {
  std::vector<char *> Args;
  Args.reserve(Argv.size() + 1);
  for (const std::string &A : Argv)
    Args.push_back(const_cast<char *>(A.c_str()));
  Args.push_back(nullptr);

  posix_spawn_file_actions_t Actions;
  posix_spawn_file_actions_init(&Actions);
  posix_spawn_file_actions_addopen(&Actions, 1, OutputPath.c_str(),
                                   O_WRONLY | O_CREAT | O_TRUNC, 0600);
  posix_spawn_file_actions_adddup2(&Actions, 1, 2);
  posix_spawn_file_actions_addopen(&Actions, 0, "/dev/null", O_RDONLY, 0);

  pid_t Pid = -1;
  int Rc = ::posix_spawnp(&Pid, Args[0], &Actions, nullptr, Args.data(),
                          environ);
  posix_spawn_file_actions_destroy(&Actions);
  if (Rc != 0)
    return -1;
  int Status = 0;
  if (::waitpid(Pid, &Status, 0) != Pid)
    return -1;
  return WIFEXITED(Status) ? WEXITSTATUS(Status) : -1;
}

std::string readFileText(const std::string &Path, size_t MaxBytes) {
  std::ifstream In(Path, std::ios::binary);
  if (!In)
    return "";
  std::string Text((std::istreambuf_iterator<char>(In)),
                   std::istreambuf_iterator<char>());
  if (Text.size() > MaxBytes)
    Text.resize(MaxBytes);
  return Text;
}

std::vector<uint8_t> readFileBytes(const std::string &Path) {
  std::ifstream In(Path, std::ios::binary);
  if (!In)
    return {};
  return std::vector<uint8_t>((std::istreambuf_iterator<char>(In)),
                              std::istreambuf_iterator<char>());
}

uint64_t fnv1a64(const void *Data, size_t Size, uint64_t H) {
  const uint8_t *P = static_cast<const uint8_t *>(Data);
  for (size_t I = 0; I != Size; ++I) {
    H ^= P[I];
    H *= 0x100000001b3ull;
  }
  return H;
}

std::string firstLine(const std::string &Text) {
  size_t Nl = Text.find('\n');
  return Nl == std::string::npos ? Text : Text.substr(0, Nl);
}

/// Full verification of one candidate: query its version and compile a
/// trivial translation unit to a shared object.
bool verifyCandidate(const std::string &Cmd, HostCompiler &Out) {
  std::string VerPath = uniqueTempBase("ver");
  int Rc = runCommand({Cmd, "--version"}, VerPath);
  std::string VerText = readFileText(VerPath, 4096);
  std::remove(VerPath.c_str());
  if (Rc != 0)
    return false;

  std::string SrcPath = uniqueTempBase("probe") + ".c";
  std::string ObjPath = SrcPath + ".so";
  std::string LogPath = SrcPath + ".log";
  {
    std::ofstream Src(SrcPath);
    Src << "int ildp_native_probe(int x) { return x + 1; }\n";
  }
  std::vector<std::string> Argv{Cmd};
  for (const char *F : CompileFlags)
    Argv.push_back(F);
  Argv.push_back(SrcPath);
  Argv.push_back("-o");
  Argv.push_back(ObjPath);
  Rc = runCommand(Argv, LogPath);
  bool Ok = Rc == 0 && !readFileBytes(ObjPath).empty();
  std::remove(SrcPath.c_str());
  std::remove(ObjPath.c_str());
  std::remove(LogPath.c_str());
  if (!Ok)
    return false;

  Out.Found = true;
  Out.Path = Cmd;
  Out.Version = firstLine(VerText);

  // Everything that can change the meaning of a compiled object.
  uint64_t H = 0xcbf29ce484222325ull;
  H = fnv1a64(Out.Path.data(), Out.Path.size(), H);
  H = fnv1a64(Out.Version.data(), Out.Version.size(), H);
  for (const char *F : CompileFlags)
    H = fnv1a64(F, std::strlen(F), H);
  // The slot layout too: emitted code indexes the context's slots by it.
  using S = iisa::IExecState;
  const uint32_t Versions[] = {NativeAbiVersion, NativeEmitterVersion,
                               S::AccSlot0,      S::GprSlot0,
                               S::VpcBaseSlot,   S::ZeroSlot,
                               S::SinkSlot,      S::NumSlots};
  H = fnv1a64(Versions, sizeof(Versions), H);
  Out.Checksum = H;
  return true;
}

HostCompiler probe() {
  HostCompiler CC;
  // The env override is authoritative: if set, we use it or nothing.
  // Pointing it at a nonexistent command is the deterministic
  // no-toolchain test hook.
  if (const char *Env = ::getenv("ILDP_NATIVE_CC")) {
    if (*Env)
      verifyCandidate(Env, CC);
    return CC;
  }
  for (const char *Cand : {"cc", "gcc", "clang"})
    if (verifyCandidate(Cand, CC))
      return CC;
  return CC;
}

} // namespace

const HostCompiler &native::hostCompiler() {
  static std::mutex Mutex;
  static HostCompiler CC;
  static std::string ProbedEnv;
  static bool Probed = false;
  std::lock_guard<std::mutex> Lock(Mutex);
  const char *Env = ::getenv("ILDP_NATIVE_CC");
  std::string Key = Env ? Env : "";
  if (!Probed || Key != ProbedEnv) {
    CC = probe();
    ProbedEnv = std::move(Key);
    Probed = true;
  }
  return CC;
}

CompileResult native::compileToObject(const HostCompiler &CC,
                                      const std::string &Source) {
  CompileResult R;
  if (!CC.found()) {
    R.Diag = "no host compiler";
    return R;
  }
  std::string SrcPath = uniqueTempBase("frag") + ".c";
  std::string ObjPath = SrcPath + ".so";
  std::string LogPath = SrcPath + ".log";
  {
    std::ofstream Src(SrcPath, std::ios::binary);
    Src << Source;
    if (!Src) {
      R.Diag = "cannot write temp source";
      std::remove(SrcPath.c_str());
      return R;
    }
  }
  std::vector<std::string> Argv{CC.Path};
  for (const char *F : CompileFlags)
    Argv.push_back(F);
  Argv.push_back(SrcPath);
  Argv.push_back("-o");
  Argv.push_back(ObjPath);
  int Rc = runCommand(Argv, LogPath);
  if (Rc == 0)
    R.Object = readFileBytes(ObjPath);
  R.Ok = Rc == 0 && !R.Object.empty();
  if (!R.Ok)
    R.Diag = readFileText(LogPath, 2048);
  std::remove(SrcPath.c_str());
  std::remove(ObjPath.c_str());
  std::remove(LogPath.c_str());
  return R;
}
