// The child-process harness of the chaos tools and the load benches: one
// place that forks, execs, scrapes, signals and reaps skycube_serve and
// skycube_router children (docs/TESTING.md, "Process harness").
//
// A Child is started in one of two modes:
//
//   listening  the child's stderr is piped to this process and scanned
//              for the "listening on HOST:PORT" line the servers print in
//              socket mode (earlier lines are skipped); stdin and stdout
//              are inherited;
//   REPL       the child's stdin and stdout are piped to this process for
//              the line protocol, stderr goes to /dev/null, and
//              SKYCUBE_ARM_FAULTS is set to the given spec (or unset).
//
// Every pipe end this process keeps is O_CLOEXEC, so a later child never
// inherits an earlier one's pipes (a leaked stdin write end would keep the
// earlier child from ever seeing EOF). A Child owns its process: the
// destructor SIGKILLs a child still running and always reaps it, so no
// exit path of a harness leaves a zombie or an orphan server behind.
//
// Not thread-safe; a Child is used from one thread.
#ifndef SKYCUBE_TOOLS_HARNESS_HARNESS_H_
#define SKYCUBE_TOOLS_HARNESS_HARNESS_H_

#include <sys/types.h>

#include <cstdint>
#include <cstdio>
#include <string>
#include <string_view>
#include <vector>

#include "common/status.h"

namespace skycube::harness {

class Child {
 public:
  /// What Wait() returns when there is no process to wait for.
  static constexpr int kNoChild = -1000;

  /// Listening mode: starts `binary` with `args` and blocks until its
  /// stderr shows "listening on HOST:PORT". If the child closes stderr
  /// first (it exited, or exec failed), it is killed and reaped and the
  /// error names its exit status and last stderr line.
  static Result<Child> SpawnListening(const std::string& binary,
                                      const std::vector<std::string>& args);

  /// REPL mode: starts `binary` with `args`, stdin/stdout piped for Send()
  /// and ReadLine(), stderr silenced. `faults` lands in SKYCUBE_ARM_FAULTS;
  /// empty unsets it.
  static Result<Child> SpawnRepl(const std::string& binary,
                                 const std::vector<std::string>& args,
                                 const std::string& faults);

  Child() = default;
  Child(Child&& other) noexcept;
  /// Kills and reaps the process this Child held, then takes `other`'s.
  Child& operator=(Child&& other) noexcept;
  Child(const Child&) = delete;
  Child& operator=(const Child&) = delete;
  ~Child();

  /// -1 when no process is held (never spawned, or already waited for).
  pid_t pid() const { return pid_; }
  /// The scraped port (listening mode; 0 otherwise).
  uint16_t port() const { return port_; }

  /// REPL mode: writes all of `text` to the child's stdin. False once the
  /// pipe is closed or broken (callers ignore SIGPIPE when the child may
  /// die first).
  bool Send(std::string_view text);
  /// REPL mode: one stdout line without its '\n'. False at EOF (a final
  /// unterminated line still counts as a line).
  bool ReadLine(std::string* line);

  /// Sends `sig` to the child. False when no process is held.
  bool Kill(int sig);
  /// Closes the child's stdin (a REPL child sees EOF), waits for it to
  /// exit and closes the remaining pipes. Returns its exit status, or -SIG
  /// when a signal ended it. Later calls return the same value; kNoChild
  /// if nothing was ever spawned.
  int Wait();

 private:
  /// Forks and execs `binary` with `args` and environment `env`; each of
  /// `in`/`out`/`err` that is >= 0 becomes the child's fd 0/1/2.
  Status Start(const std::string& binary,
               const std::vector<std::string>& args,
               const std::vector<std::string>& env, int in, int out, int err);
  void Release();

  pid_t pid_ = -1;
  uint16_t port_ = 0;
  int stdin_fd_ = -1;     // REPL: write end of the child's stdin
  FILE* from_ = nullptr;  // REPL: child's stdout; listening: its stderr
  int exit_code_ = kNoChild;
};

/// skycube_serve next to the calling binary's build directory:
/// dirname(argv0)/../tools/skycube_serve. Holds for the benches (bench/)
/// and the tools (tools/) of one build tree.
std::string DefaultServePath(const char* argv0);

/// kReplState asked straight of the server on 127.0.0.1:`port`: its
/// applied LSN and, when `role` is non-null, its role ("primary" or
/// "replica"). False on a transport failure, a timeout or an error answer.
bool ReplState(uint16_t port, int64_t timeout_millis, uint64_t* lsn,
               std::string* role);

}  // namespace skycube::harness

#endif  // SKYCUBE_TOOLS_HARNESS_HARNESS_H_
