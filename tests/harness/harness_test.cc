// The child-process harness (tools/harness/harness.h) that the chaos tools
// and the load benches share: listen-line scraping, REPL stdio, exit
// statuses, reaping, and pipe hygiene across children. The children are
// /bin/sh scripts, so the contract is checked without a server binary.
#include "harness/harness.h"

#include <signal.h>
#include <stdlib.h>
#include <sys/wait.h>

#include <atomic>
#include <cerrno>
#include <chrono>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "gtest/gtest.h"

namespace skycube::harness {
namespace {

std::vector<std::string> Script(const std::string& script) {
  return {"-c", script};
}

/// True when this process has no child left, reaped or not.
bool NoChildren() {
  errno = 0;
  return waitpid(-1, nullptr, WNOHANG) == -1 && errno == ECHILD;
}

TEST(HarnessTest, ScrapesThePortAfterEarlierStderrLines) {
  Result<Child> spawned = Child::SpawnListening(
      "/bin/sh", Script("echo 'recovering: 3 records' >&2; "
                        "echo 'note: host:1 is not the port' >&2; "
                        "echo 'listening on 127.0.0.1:4242 (2-dim cube, "
                        "version 1)' >&2; exec sleep 30"));
  ASSERT_TRUE(spawned.ok()) << spawned.status().ToString();
  Child child = std::move(spawned).value();
  EXPECT_EQ(child.port(), 4242);
  EXPECT_GT(child.pid(), 0);

  EXPECT_TRUE(child.Kill(SIGKILL));
  EXPECT_EQ(child.Wait(), -SIGKILL);
  EXPECT_EQ(child.Wait(), -SIGKILL);  // the status is kept, not re-read
  EXPECT_EQ(child.pid(), -1);
  EXPECT_FALSE(child.Kill(SIGTERM));
  EXPECT_TRUE(NoChildren());
}

TEST(HarnessTest, ChildWithoutListenLineIsAnErrorAndIsReaped) {
  Result<Child> spawned = Child::SpawnListening(
      "/bin/sh", Script("echo 'bad flag --nope' >&2; exit 3"));
  ASSERT_FALSE(spawned.ok());
  const std::string message = spawned.status().ToString();
  EXPECT_NE(message.find("status 3"), std::string::npos) << message;
  EXPECT_NE(message.find("bad flag --nope"), std::string::npos) << message;
  EXPECT_TRUE(NoChildren());

  // A binary that cannot be executed reads the same way: exec failed (127).
  spawned = Child::SpawnListening("/nonexistent/skycube_serve", {});
  ASSERT_FALSE(spawned.ok());
  EXPECT_NE(spawned.status().ToString().find("status 127"),
            std::string::npos);
  EXPECT_TRUE(NoChildren());
}

TEST(HarnessTest, ReplRoundTripAndExitCodeComeBackUnchanged) {
  Result<Child> spawned = Child::SpawnRepl(
      "/bin/sh",
      Script("read a; read b; echo \"got $a\"; printf '%s' \"$b\"; exit 7"),
      "");
  ASSERT_TRUE(spawned.ok()) << spawned.status().ToString();
  Child child = std::move(spawned).value();
  EXPECT_TRUE(child.Send("hello\nunterminated\n"));
  std::string line;
  ASSERT_TRUE(child.ReadLine(&line));
  EXPECT_EQ(line, "got hello");
  ASSERT_TRUE(child.ReadLine(&line));  // a final line without '\n' counts
  EXPECT_EQ(line, "unterminated");
  EXPECT_FALSE(child.ReadLine(&line));
  EXPECT_EQ(child.Wait(), 7);
  EXPECT_FALSE(child.Send("late\n"));
  EXPECT_TRUE(NoChildren());
}

TEST(HarnessTest, FaultSpecIsSetOrUnset) {
  ASSERT_EQ(setenv("SKYCUBE_ARM_FAULTS", "inherited=1", 1), 0);
  const auto faults_seen = [](const std::string& faults) {
    Result<Child> spawned = Child::SpawnRepl(
        "/bin/sh", Script("echo \"[${SKYCUBE_ARM_FAULTS-unset}]\""), faults);
    EXPECT_TRUE(spawned.ok());
    if (!spawned.ok()) return std::string();
    Child child = std::move(spawned).value();
    std::string line;
    EXPECT_TRUE(child.ReadLine(&line));
    EXPECT_EQ(child.Wait(), 0);
    return line;
  };
  EXPECT_EQ(faults_seen("wal.append_torn=1"), "[wal.append_torn=1]");
  EXPECT_EQ(faults_seen(""), "[unset]");
  ASSERT_EQ(unsetenv("SKYCUBE_ARM_FAULTS"), 0);
}

TEST(HarnessTest, DestructorKillsAndReapsARunningChild) {
  {
    Result<Child> listening = Child::SpawnListening(
        "/bin/sh", Script("echo 'listening on 127.0.0.1:1' >&2; "
                          "exec sleep 30"));
    ASSERT_TRUE(listening.ok()) << listening.status().ToString();
    Result<Child> repl =
        Child::SpawnRepl("/bin/sh", Script("exec sleep 30"), "");
    ASSERT_TRUE(repl.ok()) << repl.status().ToString();
    Child first = std::move(listening).value();
    Child second = std::move(repl).value();
    // Move-assigning over a running child kills and reaps it too.
    first = std::move(second);
    EXPECT_FALSE(NoChildren());
  }
  EXPECT_TRUE(NoChildren());
}

TEST(HarnessTest, LaterChildDoesNotInheritEarlierPipes) {
  // `first` exits only once its stdin reaches EOF. If any child (`later`,
  // or `first` itself) had inherited the write end of that pipe, closing
  // ours would not end it; a watchdog then kills both so that the test
  // fails instead of hanging.
  Result<Child> spawned =
      Child::SpawnRepl("/bin/sh", Script("cat >/dev/null; exit 5"), "");
  ASSERT_TRUE(spawned.ok()) << spawned.status().ToString();
  Child first = std::move(spawned).value();
  spawned = Child::SpawnRepl("/bin/sh", Script("exec sleep 30"), "");
  ASSERT_TRUE(spawned.ok()) << spawned.status().ToString();
  Child later = std::move(spawned).value();

  const pid_t first_pid = first.pid();
  const pid_t later_pid = later.pid();
  std::atomic<bool> done{false};
  std::atomic<bool> fired{false};
  std::thread watchdog([&] {
    for (int i = 0; i < 1000 && !done.load(); ++i) {
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
    if (!done.load()) {
      fired = true;
      kill(later_pid, SIGKILL);
      kill(first_pid, SIGKILL);
    }
  });
  const int code = first.Wait();
  done = true;
  watchdog.join();
  EXPECT_FALSE(fired.load()) << "a child held the stdin pipe's write end";
  EXPECT_EQ(code, 5);
}

TEST(HarnessTest, DefaultServePathIsTheToolsSibling) {
  EXPECT_EQ(DefaultServePath("/b/bench/bench_net_throughput"),
            "/b/bench/../tools/skycube_serve");
  EXPECT_EQ(DefaultServePath("bench_net_throughput"),
            "./../tools/skycube_serve");
}

}  // namespace
}  // namespace skycube::harness
