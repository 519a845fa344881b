// Child processes the benchmark spawns (d3c, d3_node workers, the reference
// process) and the /proc readings it takes of them.
//
// Every Child is reaped on every exit path: the destructor SIGKILLs a child
// that is still running and waits for it, and each child is started with
// PR_SET_PDEATHSIG so it dies with the benchmark even if the benchmark itself
// is killed.
#pragma once

#include <chrono>
#include <cstdint>
#include <string>
#include <sys/types.h>
#include <vector>

namespace perfbench {

// Restricts the calling process (and the threads and children it creates
// afterwards) to one CPU, `cpu` modulo the CPU count; -1 allows every CPU.
void pin_to_cpu(int cpu);

class Child {
 public:
  // Starts argv[0] with the given arguments, pinned as by pin_to_cpu(cpu);
  // its stdout is a pipe the caller reads with read_line()/read_all().
  Child(const std::vector<std::string>& argv, int cpu);
  ~Child();
  Child(const Child&) = delete;
  Child& operator=(const Child&) = delete;

  pid_t pid() const { return pid_; }
  // One line of stdout (without the newline); throws on EOF or timeout.
  std::string read_line(std::chrono::milliseconds timeout);
  // Everything on stdout until EOF.
  std::string read_all();
  // Waits for exit; returns the exit status (128 + signal when killed).
  int wait();
  // SIGKILL + reap, if still running.
  void kill();

 private:
  pid_t pid_ = -1;
  int out_fd_ = -1;
  std::string buffer_;
};

// `n` distinct TCP ports on 127.0.0.1 that were free a moment ago.
std::vector<std::uint16_t> free_ports(std::size_t n);

// User+system CPU seconds of `pid` (0 = this process), all threads.
double cpu_seconds(pid_t pid);
// Peak resident set size of `pid` (0 = this process), MiB.
double peak_rss_mb(pid_t pid);

}  // namespace perfbench
