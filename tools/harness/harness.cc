#include "harness/harness.h"

#include <fcntl.h>
#include <libgen.h>
#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <cstdlib>
#include <cstring>
#include <utility>

#include "common/deadline.h"
#include "common/macros.h"
#include "net/client.h"
#include "net/protocol.h"

extern char** environ;

namespace skycube::harness {
namespace {

constexpr char kFaultsVar[] = "SKYCUBE_ARM_FAULTS=";

Status Errno(const char* what) {
  return Status::Internal(std::string(what) + ": " + std::strerror(errno));
}

void CloseFd(int* fd) {
  if (*fd >= 0) close(*fd);
  *fd = -1;
}

/// A read stream over the pipe end `fd` (fdopen fails only on ENOMEM).
FILE* ReadStream(int fd) {
  FILE* stream = fdopen(fd, "r");
  SKYCUBE_CHECK(stream != nullptr);
  return stream;
}

/// This process's environment; with `faults` given, SKYCUBE_ARM_FAULTS is
/// replaced by it (or dropped when it is empty).
std::vector<std::string> Environment(const std::string* faults) {
  std::vector<std::string> env;
  for (char** entry = environ; *entry != nullptr; ++entry) {
    if (faults == nullptr ||
        std::strncmp(*entry, kFaultsVar, sizeof(kFaultsVar) - 1) != 0) {
      env.emplace_back(*entry);
    }
  }
  if (faults != nullptr && !faults->empty()) {
    env.push_back(kFaultsVar + *faults);
  }
  return env;
}

}  // namespace

Status Child::Start(const std::string& binary,
                    const std::vector<std::string>& args,
                    const std::vector<std::string>& env, int in, int out,
                    int err) {
  // Everything the child needs is built before the fork: between fork and
  // exec it only calls async-signal-safe functions.
  std::vector<char*> argv;
  argv.reserve(args.size() + 2);  // program name + args + trailing null
  argv.push_back(const_cast<char*>(binary.c_str()));
  for (const std::string& arg : args) {
    argv.push_back(const_cast<char*>(arg.c_str()));
  }
  argv.push_back(nullptr);
  std::vector<char*> envp;
  envp.reserve(env.size() + 1);
  for (const std::string& entry : env) {
    envp.push_back(const_cast<char*>(entry.c_str()));
  }
  envp.push_back(nullptr);
  pid_ = fork();
  if (pid_ < 0) return Errno("fork");
  if (pid_ > 0) return Status::Ok();
  // dup2 clears O_CLOEXEC on the new descriptor; the originals close at
  // exec.
  if ((in >= 0 && dup2(in, STDIN_FILENO) < 0) ||
      (out >= 0 && dup2(out, STDOUT_FILENO) < 0) ||
      (err >= 0 && dup2(err, STDERR_FILENO) < 0)) {
    _exit(127);
  }
  execve(binary.c_str(), argv.data(), envp.data());
  _exit(127);
}

Result<Child> Child::SpawnListening(const std::string& binary,
                                    const std::vector<std::string>& args) {
  int err_pipe[2];
  if (pipe2(err_pipe, O_CLOEXEC) != 0) return Errno("pipe2");
  Child child;  // owns our pipe end from here on, and reaps the process
  child.from_ = ReadStream(err_pipe[0]);
  const Status started =
      child.Start(binary, args, Environment(nullptr), -1, -1, err_pipe[1]);
  close(err_pipe[1]);
  if (!started.ok()) return started;
  std::string line;
  std::string last;  // the last complete line, for the error
  int c = 0;
  while ((c = std::fgetc(child.from_)) != EOF) {
    if (c != '\n') {
      line.push_back(static_cast<char>(c));
      continue;
    }
    const size_t colon = line.rfind(':');
    if (line.rfind("listening on ", 0) == 0 && colon != std::string::npos) {
      child.port_ = static_cast<uint16_t>(
          std::strtoul(line.c_str() + colon + 1, nullptr, 10));
      return child;
    }
    last = std::move(line);
    line.clear();
  }
  if (!line.empty()) last = std::move(line);
  child.Kill(SIGKILL);
  const int code = child.Wait();
  return Status::Unavailable("no listen line from " + binary + " (status " +
                             std::to_string(code) + ", last: '" + last +
                             "')");
}

Result<Child> Child::SpawnRepl(const std::string& binary,
                               const std::vector<std::string>& args,
                               const std::string& faults) {
  int to_child[2];
  int from_child[2];
  if (pipe2(to_child, O_CLOEXEC) != 0) return Errno("pipe2");
  Child child;  // owns our pipe ends from here on, and reaps the process
  child.stdin_fd_ = to_child[1];
  if (pipe2(from_child, O_CLOEXEC) != 0) {
    const Status status = Errno("pipe2");
    close(to_child[0]);
    return status;
  }
  child.from_ = ReadStream(from_child[0]);
  // Child-process setup, not storage I/O: the REPL child's stderr sink.
  int devnull = open("/dev/null", O_WRONLY | O_CLOEXEC);  // lint:allow-raw-io
  const Status started = child.Start(binary, args, Environment(&faults),
                                     to_child[0], from_child[1], devnull);
  close(to_child[0]);
  close(from_child[1]);
  CloseFd(&devnull);
  if (!started.ok()) return started;
  return child;
}

Child::Child(Child&& other) noexcept { *this = std::move(other); }

Child& Child::operator=(Child&& other) noexcept {
  if (this != &other) {
    Release();
    pid_ = std::exchange(other.pid_, -1);
    port_ = std::exchange(other.port_, 0);
    stdin_fd_ = std::exchange(other.stdin_fd_, -1);
    from_ = std::exchange(other.from_, nullptr);
    exit_code_ = std::exchange(other.exit_code_, kNoChild);
  }
  return *this;
}

Child::~Child() { Release(); }

void Child::Release() {
  Kill(SIGKILL);
  Wait();
}

bool Child::Send(std::string_view text) {
  while (!text.empty()) {
    if (stdin_fd_ < 0) return false;
    const ssize_t n = write(stdin_fd_, text.data(), text.size());
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) return false;
    text.remove_prefix(static_cast<size_t>(n));
  }
  return true;
}

bool Child::ReadLine(std::string* line) {
  line->clear();
  if (from_ == nullptr) return false;
  int c = 0;
  while ((c = std::fgetc(from_)) != EOF) {
    if (c == '\n') return true;
    line->push_back(static_cast<char>(c));
  }
  return !line->empty();
}

bool Child::Kill(int sig) { return pid_ > 0 && kill(pid_, sig) == 0; }

int Child::Wait() {
  CloseFd(&stdin_fd_);
  if (pid_ > 0) {
    int status = 0;
    while (waitpid(pid_, &status, 0) < 0 && errno == EINTR) continue;
    pid_ = -1;
    exit_code_ = kNoChild;
    if (WIFEXITED(status)) exit_code_ = WEXITSTATUS(status);
    if (WIFSIGNALED(status)) exit_code_ = -WTERMSIG(status);
  }
  if (from_ != nullptr) {
    std::fclose(from_);
    from_ = nullptr;
  }
  return exit_code_;
}

std::string DefaultServePath(const char* argv0) {
  std::vector<char> buffer(argv0, argv0 + std::strlen(argv0) + 1);
  return std::string(dirname(buffer.data())) + "/../tools/skycube_serve";
}

bool ReplState(uint16_t port, int64_t timeout_millis, uint64_t* lsn,
               std::string* role) {
  net::NetClient client;
  if (!client.Connect("127.0.0.1", port).ok()) return false;
  net::WireRequest request;
  request.op = net::Opcode::kReplState;
  request.id = 1;
  if (!client.SendRequest(request).ok()) return false;
  net::WireResponse response;
  std::string error;
  if (client.ReadResponse(&response, Deadline::AfterMillis(timeout_millis),
                          &error) != net::NetClient::Got::kFrame ||
      response.status != StatusCode::kOk) {
    return false;
  }
  *lsn = response.lsn;
  if (role != nullptr) *role = response.text;
  return true;
}

}  // namespace skycube::harness
