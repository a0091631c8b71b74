/// Serving when the process runs out of file descriptors.  A forked child
/// serves a design under a lowered RLIMIT_NOFILE, and this process opens
/// more connections than the child has descriptors for.  While they wait,
/// the child must not spin on its level-triggered listen socket (it
/// counts the failed accepts instead), a client connected before the
/// exhaustion keeps bit-exact answers, and a client that connects after
/// the idle peers leave is served.

#include <gtest/gtest.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <csignal>
#include <ctime>
#include <filesystem>
#include <iostream>
#include <string>
#include <thread>
#include <vector>

#include "serve_test_util.hpp"

namespace pnm::serve {
namespace {

constexpr std::uint64_t kModelSeed = 41;
/// Descriptors the child leaves free for connections; 40 idle peers need
/// far more.
constexpr rlim_t kSpareFds = 4;
constexpr std::size_t kIdlePeers = 40;
/// CPU the child may burn in one exhausted second.  A reactor spinning on
/// its listen socket burns about one CPU-second per second.
constexpr double kMaxCpuSeconds = 0.2;

/// Highest descriptor number open in this process.
int highest_open_fd() {
  int highest = 0;
  for (const auto& entry : std::filesystem::directory_iterator("/proc/self/fd")) {
    highest = std::max(highest, std::stoi(entry.path().filename().string()));
  }
  return highest;
}

/// The child: serves make_model(kModelSeed), writes its port to `port_fd`
/// once its reactor runs and its descriptor limit is lowered, and stops
/// when `ctl_fd` reaches EOF.  Exits 0 after a clean stop.
[[noreturn]] void run_child(int port_fd, int ctl_fd) {
  int status = 1;
  try {
    Server server(ServeConfig{}, ServedModel{make_model(kModelSeed), 0, "", ""});
    server.start();
    {
      // A stats round trip proves the reactor's own descriptors exist.
      ServeClient self;
      std::string json;
      if (!self.connect("127.0.0.1", server.port()) || !self.stats(json)) _exit(2);
    }
    rlimit limit{};
    if (getrlimit(RLIMIT_NOFILE, &limit) != 0) _exit(3);
    limit.rlim_cur = static_cast<rlim_t>(highest_open_fd()) + 1 + kSpareFds;
    if (setrlimit(RLIMIT_NOFILE, &limit) != 0) _exit(4);
    const std::uint16_t port = server.port();
    if (write(port_fd, &port, sizeof port) != static_cast<ssize_t>(sizeof port)) _exit(5);
    char byte = 0;
    while (read(ctl_fd, &byte, 1) < 0 && errno == EINTR) {
    }
    server.stop();
    status = 0;
  } catch (...) {
    status = 6;
  }
  _exit(status);
}

/// Owns the child: closing the control pipe asks it to stop; a child that
/// has not exited by the deadline is killed.
class Child {
 public:
  Child(pid_t pid, int ctl_fd) : pid_(pid), ctl_fd_(ctl_fd) {}
  ~Child() {
    if (pid_ > 0) (void)finish();
  }
  Child(const Child&) = delete;
  Child& operator=(const Child&) = delete;

  [[nodiscard]] pid_t pid() const { return pid_; }

  /// Stops the child and returns its exit status (-1 if it had to be
  /// killed or did not exit normally).
  int finish() {
    if (ctl_fd_ >= 0) close(ctl_fd_);
    ctl_fd_ = -1;
    int status = 0;
    const auto deadline = std::chrono::steady_clock::now() +
                          std::chrono::seconds(10 * build_info::timing_multiplier());
    while (waitpid(pid_, &status, WNOHANG) == 0) {
      if (std::chrono::steady_clock::now() > deadline) {
        kill(pid_, SIGKILL);
        waitpid(pid_, &status, 0);
        pid_ = -1;
        return -1;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
    pid_ = -1;
    return WIFEXITED(status) ? WEXITSTATUS(status) : -1;
  }

 private:
  pid_t pid_;
  int ctl_fd_;
};

double cpu_seconds(clockid_t clock) {
  timespec ts{};
  clock_gettime(clock, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

/// accept_failures from the child's stats JSON, read over `client`.
std::uint64_t accept_failures(ServeClient& client) {
  std::string json;
  if (!client.stats(json)) return 0;
  const std::string key = "\"accept_failures\": ";
  const std::size_t at = json.find(key);
  return at == std::string::npos ? 0 : std::stoull(json.substr(at + key.size()));
}

/// Sends every sample over `client` and checks each answer bit-exactly.
void expect_served(ServeClient& client, const QuantizedMlp& model,
                   const std::vector<std::vector<double>>& samples) {
  InferScratch scratch;
  for (std::uint32_t i = 0; i < samples.size(); ++i) {
    ASSERT_TRUE(client.send_predict(i, samples[i]));
    PredictResponse resp;
    ASSERT_TRUE(client.read_predict(resp, 5000 * build_info::timing_multiplier()));
    EXPECT_EQ(resp.id, i);
    EXPECT_EQ(resp.predicted_class, offline_predict(model, samples[i], scratch));
  }
}

TEST(ServeFdExhaustion, ExhaustedServerIdlesCountsAndRecovers) {
  const QuantizedMlp model = make_model(kModelSeed);
  const auto samples = make_samples(16, model.input_size(), 5);
  int port_pipe[2];
  int ctl_pipe[2];
  ASSERT_EQ(pipe(port_pipe), 0);
  ASSERT_EQ(pipe(ctl_pipe), 0);
  // Forked while this process runs no other thread: the child builds its
  // own server.
  const pid_t pid = fork();
  ASSERT_GE(pid, 0);
  if (pid == 0) {
    close(port_pipe[0]);
    close(ctl_pipe[1]);
    run_child(port_pipe[1], ctl_pipe[0]);
  }
  close(port_pipe[1]);
  close(ctl_pipe[0]);
  Child child(pid, ctl_pipe[1]);
  std::uint16_t port = 0;
  const ssize_t got = read(port_pipe[0], &port, sizeof port);
  close(port_pipe[0]);
  ASSERT_EQ(got, static_cast<ssize_t>(sizeof port)) << "the child did not come up";

  ServeClient existing;
  ASSERT_TRUE(existing.connect("127.0.0.1", port));
  expect_served(existing, model, samples);

  // More peers than the child has descriptors for; the kernel completes
  // every handshake, and the ones the child cannot accept wait queued.
  std::vector<ServeClient> idle(kIdlePeers);
  for (ServeClient& peer : idle) ASSERT_TRUE(peer.connect("127.0.0.1", port));
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::seconds(5 * build_info::timing_multiplier());
  while (accept_failures(existing) == 0 && std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  ASSERT_GT(accept_failures(existing), 0u) << "the child never ran out of descriptors";

  clockid_t clock{};
  ASSERT_EQ(clock_getcpuclockid(child.pid(), &clock), 0);
  const double before = cpu_seconds(clock);
  std::this_thread::sleep_for(std::chrono::seconds(1));
  const double burned = cpu_seconds(clock) - before;
  std::cout << "  exhausted child CPU: " << burned << " s over 1 s\n";
  EXPECT_LT(burned, kMaxCpuSeconds) << "the reactor spins while descriptors are exhausted";

  expect_served(existing, model, samples);

  idle.clear();  // the idle peers leave
  ServeClient late;
  ASSERT_TRUE(late.connect("127.0.0.1", port));
  expect_served(late, model, samples);

  late.close();
  existing.close();
  EXPECT_EQ(child.finish(), 0);
}

}  // namespace
}  // namespace pnm::serve
