// Child server processes (skycube_serve, skycube_router) and the wire
// client the load loops use against them.
//
// A Child is started on an ephemeral port with its stderr going to a log
// file; the "listening on HOST:PORT" line the servers print once they
// serve gives the port. Every Child is stopped (SIGTERM, then SIGKILL after
// a grace period) and reaped by its destructor, so every exit path of the
// benchmark tears its servers down; children also get SIGKILL from the
// kernel if the benchmark process itself dies.
#ifndef PERFBENCH_CHILDREN_H_
#define PERFBENCH_CHILDREN_H_

#include <sys/types.h>

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "net/client.h"
#include "net/protocol.h"

namespace perfbench {

class Child {
 public:
  /// Starts argv[0] with arguments argv[1..]; stdout goes to /dev/null and
  /// stderr to `log_path`. Returns null (with *error set) if fork fails.
  static std::unique_ptr<Child> Start(const std::vector<std::string>& argv,
                                      const std::string& log_path,
                                      std::string* error);
  ~Child();

  Child(const Child&) = delete;
  Child& operator=(const Child&) = delete;


  /// Waits until the log shows the listening line; returns the port, or 0
  /// if the child exited or `timeout_s` passed first.
  uint16_t WaitForPort(double timeout_s);

  /// True while the process has not exited.
  bool Alive();

  /// Peak resident set size (VmHWM) in KiB; 0 once the child exited.
  uint64_t PeakRssKb() const;
  void ResetPeakRss() const;
  /// CPU seconds the child's live threads have used; 0 once it exited.
  double CpuSeconds() const;

  /// SIGTERM, up to `grace_s` for a clean exit, then SIGKILL; reaps.
  /// Returns true when the child exited on its own with status 0.
  bool Stop(double grace_s = 10);

 private:
  Child(pid_t pid, std::string log_path)
      : pid_(pid), log_path_(std::move(log_path)) {}

  pid_t pid_;
  std::string log_path_;
  bool reaped_ = false;
  int exit_status_ = 0;
};

/// VmHWM of process `pid` in KiB ("self" for this process); 0 if unknown.
uint64_t PeakRssKb(const std::string& pid);

/// Resets the VmHWM of process `pid` to its current RSS (clear_refs 5), so
/// a later PeakRssKb covers only what happened since.
void ResetPeakRss(const std::string& pid);

/// CPU seconds of process `pid` ("self" for this one): the time its
/// live threads have spent on a CPU, to the nanosecond; 0 if the process
/// is gone.
double ProcessCpuSeconds(const std::string& pid);

/// A blocking wire connection with request ids and a fixed reply timeout.
class WireConnection {
 public:
  bool Connect(uint16_t port);
  /// Sends `request` (its id is overwritten) and waits for the reply.
  /// False on a transport failure (closed socket, timeout, goaway).
  bool Call(skycube::net::WireRequest request,
            skycube::net::WireResponse* response);

 private:
  skycube::net::NetClient client_;
  uint64_t next_id_ = 1;
};

/// Retries a ping on `port` until one answers or `timeout_s` passes.
bool WaitForPing(uint16_t port, double timeout_s);

}  // namespace perfbench

#endif  // PERFBENCH_CHILDREN_H_
