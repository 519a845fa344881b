#include "procs.h"

#include <algorithm>
#include <arpa/inet.h>
#include <cerrno>
#include <csignal>
#include <cstring>
#include <fcntl.h>
#include <fstream>
#include <iterator>
#include <netinet/in.h>
#include <poll.h>
#include <sched.h>
#include <sstream>
#include <stdexcept>
#include <sys/prctl.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <thread>
#include <unistd.h>

namespace perfbench {

void pin_to_cpu(int cpu) {
  cpu_set_t set;
  CPU_ZERO(&set);
  const int cpus = static_cast<int>(std::max(1u, std::thread::hardware_concurrency()));
  if (cpu < 0) {
    for (int i = 0; i < cpus; ++i) CPU_SET(i, &set);
  } else {
    CPU_SET(cpu % cpus, &set);
  }
  ::sched_setaffinity(0, sizeof set, &set);
}

Child::Child(const std::vector<std::string>& argv, int cpu) {
  int pipe_fds[2];
  if (::pipe2(pipe_fds, O_CLOEXEC) != 0) throw std::runtime_error("pipe2 failed");
  const pid_t parent = ::getpid();
  std::vector<char*> args;
  for (const std::string& arg : argv) args.push_back(const_cast<char*>(arg.c_str()));
  args.push_back(nullptr);
  pid_ = ::fork();
  if (pid_ < 0) {
    ::close(pipe_fds[0]);
    ::close(pipe_fds[1]);
    throw std::runtime_error("fork failed");
  }
  if (pid_ == 0) {
    ::prctl(PR_SET_PDEATHSIG, SIGKILL);
    if (::getppid() != parent) ::_exit(127);
    ::dup2(pipe_fds[1], STDOUT_FILENO);
    pin_to_cpu(cpu);
    ::execv(args[0], args.data());
    ::_exit(127);
  }
  ::close(pipe_fds[1]);
  out_fd_ = pipe_fds[0];
}

Child::~Child() {
  kill();
  if (out_fd_ >= 0) ::close(out_fd_);
}

std::string Child::read_line(std::chrono::milliseconds timeout) {
  const auto deadline = std::chrono::steady_clock::now() + timeout;
  for (;;) {
    const std::size_t newline = buffer_.find('\n');
    if (newline != std::string::npos) {
      std::string line = buffer_.substr(0, newline);
      buffer_.erase(0, newline + 1);
      return line;
    }
    const auto left = std::chrono::duration_cast<std::chrono::milliseconds>(
        deadline - std::chrono::steady_clock::now());
    if (left.count() <= 0) throw std::runtime_error("child " + std::to_string(pid_) +
                                                    ": timed out waiting for output");
    pollfd fd{out_fd_, POLLIN, 0};
    if (::poll(&fd, 1, static_cast<int>(left.count())) < 0 && errno != EINTR)
      throw std::runtime_error("poll failed");
    if (fd.revents == 0) continue;
    char chunk[4096];
    const ssize_t n = ::read(out_fd_, chunk, sizeof chunk);
    if (n == 0) throw std::runtime_error("child " + std::to_string(pid_) + ": exited early");
    if (n > 0) buffer_.append(chunk, static_cast<std::size_t>(n));
  }
}

std::string Child::read_all() {
  char chunk[4096];
  for (;;) {
    const ssize_t n = ::read(out_fd_, chunk, sizeof chunk);
    if (n == 0) break;
    if (n < 0) {
      if (errno == EINTR) continue;
      throw std::runtime_error("read failed");
    }
    buffer_.append(chunk, static_cast<std::size_t>(n));
  }
  std::string all = std::move(buffer_);
  buffer_.clear();
  return all;
}

int Child::wait() {
  if (pid_ < 0) return 0;
  int status = 0;
  while (::waitpid(pid_, &status, 0) < 0) {
    if (errno != EINTR) break;
  }
  pid_ = -1;
  if (WIFEXITED(status)) return WEXITSTATUS(status);
  return 128 + (WIFSIGNALED(status) ? WTERMSIG(status) : 0);
}

void Child::kill() {
  if (pid_ < 0) return;
  ::kill(pid_, SIGKILL);
  wait();
}

std::vector<std::uint16_t> free_ports(std::size_t n) {
  std::vector<int> fds;
  std::vector<std::uint16_t> ports;
  for (std::size_t i = 0; i < n; ++i) {
    const int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
    if (fd < 0) break;
    fds.push_back(fd);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    addr.sin_port = 0;
    socklen_t len = sizeof addr;
    if (::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr) != 0 ||
        ::getsockname(fd, reinterpret_cast<sockaddr*>(&addr), &len) != 0)
      break;
    ports.push_back(ntohs(addr.sin_port));
  }
  for (const int fd : fds) ::close(fd);
  if (ports.size() != n) throw std::runtime_error("cannot reserve free ports");
  return ports;
}

namespace {

std::string proc_path(pid_t pid, const char* leaf) {
  return pid == 0 ? std::string("/proc/self/") + leaf
                  : "/proc/" + std::to_string(pid) + "/" + leaf;
}

}  // namespace

double cpu_seconds(pid_t pid) {
  std::ifstream in(proc_path(pid, "stat"));
  std::string stat((std::istreambuf_iterator<char>(in)), std::istreambuf_iterator<char>());
  // Fields after the parenthesised command name; utime and stime are the
  // 14th and 15th fields of the whole line.
  const std::size_t close = stat.rfind(')');
  if (close == std::string::npos) throw std::runtime_error("cannot read " + proc_path(pid, "stat"));
  std::istringstream fields(stat.substr(close + 2));
  std::string field;
  double ticks = 0;
  for (int i = 3; i <= 15 && fields >> field; ++i)
    if (i >= 14) ticks += std::stod(field);
  return ticks / static_cast<double>(::sysconf(_SC_CLK_TCK));
}

double peak_rss_mb(pid_t pid) {
  std::ifstream in(proc_path(pid, "status"));
  std::string line;
  while (std::getline(in, line))
    if (line.rfind("VmHWM:", 0) == 0) return std::stod(line.substr(6)) / 1024.0;
  throw std::runtime_error("cannot read " + proc_path(pid, "status"));
}

}  // namespace perfbench
