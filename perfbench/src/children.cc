#include "children.h"

#include <fcntl.h>
#include <signal.h>
#include <sys/prctl.h>
#include <sys/wait.h>
#include <unistd.h>

#include <chrono>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <thread>

#include "common/deadline.h"

namespace perfbench {
namespace {

using Clock = std::chrono::steady_clock;

double SecondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

/// Port of the first "listening on HOST:PORT" line in `path`, or 0.
uint16_t ScrapePort(const std::string& path) {
  std::ifstream in(path);
  std::string line;
  while (std::getline(in, line)) {
    const size_t at = line.find("listening on ");
    if (at == std::string::npos) continue;
    const size_t colon = line.find(':', at);
    if (colon == std::string::npos) continue;
    return static_cast<uint16_t>(std::atoi(line.c_str() + colon + 1));
  }
  return 0;
}

}  // namespace

std::unique_ptr<Child> Child::Start(const std::vector<std::string>& argv,
                                    const std::string& log_path,
                                    std::string* error) {
  std::vector<char*> args;
  for (const std::string& arg : argv) {
    args.push_back(const_cast<char*>(arg.c_str()));
  }
  args.push_back(nullptr);
  // A log left by an earlier child must not be scraped for this one's port.
  unlink(log_path.c_str());
  const pid_t parent = getpid();
  const pid_t pid = fork();
  if (pid < 0) {
    *error = std::string("fork: ") + std::strerror(errno);
    return nullptr;
  }
  if (pid == 0) {
    // Die with the benchmark, even if it is SIGKILLed.
    prctl(PR_SET_PDEATHSIG, SIGKILL);
    if (getppid() != parent) _exit(127);
    const int null_fd = open("/dev/null", O_RDWR);
    const int log_fd =
        open(log_path.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
    if (null_fd < 0 || log_fd < 0) _exit(127);
    dup2(null_fd, STDIN_FILENO);
    dup2(null_fd, STDOUT_FILENO);
    dup2(log_fd, STDERR_FILENO);
    execv(args[0], args.data());
    _exit(127);
  }
  return std::unique_ptr<Child>(new Child(pid, log_path));
}

Child::~Child() { Stop(); }

uint16_t Child::WaitForPort(double timeout_s) {
  const Clock::time_point start = Clock::now();
  while (SecondsSince(start) < timeout_s) {
    const uint16_t port = ScrapePort(log_path_);
    if (port != 0) return port;
    if (!Alive()) return 0;
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  return 0;
}

bool Child::Alive() {
  if (reaped_) return false;
  const pid_t done = waitpid(pid_, &exit_status_, WNOHANG);
  if (done == pid_) reaped_ = true;
  return !reaped_;
}

uint64_t Child::PeakRssKb() const {
  return reaped_ ? 0 : perfbench::PeakRssKb(std::to_string(pid_));
}

double Child::CpuSeconds() const {
  return reaped_ ? 0 : perfbench::ProcessCpuSeconds(std::to_string(pid_));
}

void Child::ResetPeakRss() const {
  if (!reaped_) perfbench::ResetPeakRss(std::to_string(pid_));
}

bool Child::Stop(double grace_s) {
  if (!reaped_) {
    kill(pid_, SIGTERM);
    const Clock::time_point start = Clock::now();
    while (Alive() && SecondsSince(start) < grace_s) {
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
    if (!reaped_) {
      kill(pid_, SIGKILL);
      waitpid(pid_, &exit_status_, 0);
      reaped_ = true;
    }
  }
  return WIFEXITED(exit_status_) && WEXITSTATUS(exit_status_) == 0;
}

uint64_t PeakRssKb(const std::string& pid) {
  std::ifstream in("/proc/" + pid + "/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtoull(line.c_str() + 6, nullptr, 10);
    }
  }
  return 0;
}

void ResetPeakRss(const std::string& pid) {
  std::ofstream("/proc/" + pid + "/clear_refs") << "5";
}

double ProcessCpuSeconds(const std::string& pid) {
  // The first field of each thread's schedstat is its time on a CPU in
  // nanoseconds; /proc/<pid>/stat has only clock ticks (10 ms), too coarse
  // for a set-up of a few ticks.
  uint64_t nanos = 0;
  std::error_code error;
  for (const auto& task : std::filesystem::directory_iterator(
           "/proc/" + pid + "/task", error)) {
    std::ifstream in(task.path() / "schedstat");
    uint64_t run_nanos = 0;
    if (in >> run_nanos) nanos += run_nanos;
  }
  return static_cast<double>(nanos) / 1e9;
}

bool WireConnection::Connect(uint16_t port) {
  next_id_ = 1;
  return client_.Connect("127.0.0.1", port).ok();
}

bool WireConnection::Call(skycube::net::WireRequest request,
                          skycube::net::WireResponse* response) {
  request.id = next_id_++;
  if (!client_.SendRequest(request).ok()) {
    client_.Close();
    return false;
  }
  std::string error;
  const auto got = client_.ReadResponse(
      response, skycube::Deadline::AfterMillis(30000), &error);
  if (got != skycube::net::NetClient::Got::kFrame ||
      response->id != request.id) {
    client_.Close();
    return false;
  }
  return true;
}

bool WaitForPing(uint16_t port, double timeout_s) {
  const Clock::time_point start = Clock::now();
  while (SecondsSince(start) < timeout_s) {
    WireConnection connection;
    skycube::net::WireRequest ping;
    ping.op = skycube::net::Opcode::kPing;
    skycube::net::WireResponse pong;
    if (connection.Connect(port) && connection.Call(ping, &pong) &&
        pong.status == skycube::StatusCode::kOk) {
      return true;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  return false;
}

}  // namespace perfbench
