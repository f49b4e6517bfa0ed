// One pass per child process. With tracing off, every pass runs in a
// freshly forked child, so the child's ru_maxrss is the peak resident
// memory of serving exactly that pass: the median over passes is then a
// steady figure, while the spread across passes still shows how much
// the unbounded inter-operator queues swing. The parent must be
// single-threaded when it forks (every pass joins its threads before
// it returns).

#ifndef SERVEBENCH_CHILD_H_
#define SERVEBENCH_CHILD_H_

#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <cstdint>
#include <cstring>
#include <functional>
#include <string>
#include <vector>

#include "bench_util.h"

namespace servebench {

struct ChildResult {
  bool ran = false;  // the child exited cleanly and its output parsed
  std::vector<double> values;
  double maxrss_mb = 0;
};

namespace child_internal {

inline void Put(std::string* out, const void* p, size_t n) {
  out->append(static_cast<const char*>(p), n);
}

inline bool Get(const std::string& in, size_t* pos, void* p, size_t n) {
  if (in.size() - *pos < n) return false;
  std::memcpy(p, in.data() + *pos, n);
  *pos += n;
  return true;
}

}  // namespace child_internal

/// Run `body` in a forked child. The checks it records land in
/// `report`; the values it returns come back in the result. A child
/// that is killed, hangs past `timeout_s` or writes a short result
/// counts as one failed check.
inline ChildResult RunInChild(
    const std::function<std::vector<double>(Report*)>& body, Report* report,
    unsigned timeout_s = 120) {
  using child_internal::Get;
  using child_internal::Put;
  ChildResult out;
  int fds[2];
  if (::pipe(fds) != 0) {
    report->Check(false, "pipe failed");
    return out;
  }
  const pid_t pid = ::fork();
  if (pid < 0) {
    ::close(fds[0]);
    ::close(fds[1]);
    report->Check(false, "fork failed");
    return out;
  }
  if (pid == 0) {
    ::close(fds[0]);
    ::alarm(timeout_s);  // a wedged pass must not outlive the run
    Report r;
    std::vector<double> values = body(&r);
    std::string buf;
    Put(&buf, &r.attempted, 8);
    Put(&buf, &r.failed, 8);
    const uint64_t nprob = r.problems.size();
    Put(&buf, &nprob, 8);
    for (const std::string& p : r.problems) {
      const uint64_t len = p.size();
      Put(&buf, &len, 8);
      Put(&buf, p.data(), p.size());
    }
    const uint64_t nval = values.size();
    Put(&buf, &nval, 8);
    if (nval > 0) Put(&buf, values.data(), nval * sizeof(double));
    size_t off = 0;
    while (off < buf.size()) {
      const ssize_t n = ::write(fds[1], buf.data() + off, buf.size() - off);
      if (n <= 0) break;
      off += static_cast<size_t>(n);
    }
    ::_exit(off == buf.size() ? 0 : 1);
  }
  ::close(fds[1]);
  std::string in;
  char chunk[65536];
  for (;;) {
    const ssize_t n = ::read(fds[0], chunk, sizeof(chunk));
    if (n > 0) {
      in.append(chunk, static_cast<size_t>(n));
    } else if (n == 0 || errno != EINTR) {
      break;
    }
  }
  ::close(fds[0]);
  int status = 0;
  rusage ru{};
  while (::wait4(pid, &status, 0, &ru) < 0 && errno == EINTR) {
  }
  out.maxrss_mb = static_cast<double>(ru.ru_maxrss) / 1024.0;

  size_t pos = 0;
  uint64_t attempted = 0, failed = 0, nprob = 0, nval = 0;
  bool ok = WIFEXITED(status) && WEXITSTATUS(status) == 0 &&
            Get(in, &pos, &attempted, 8) && Get(in, &pos, &failed, 8) &&
            Get(in, &pos, &nprob, 8);
  std::vector<std::string> problems;
  for (uint64_t i = 0; ok && i < nprob; ++i) {
    uint64_t len = 0;
    ok = Get(in, &pos, &len, 8) && len <= in.size() - pos;
    if (ok) {
      problems.emplace_back(in.data() + pos, len);
      pos += len;
    }
  }
  ok = ok && Get(in, &pos, &nval, 8) &&
       nval <= (in.size() - pos) / sizeof(double);
  if (!ok) {
    report->Check(false, "a pass's child process died or wrote no result");
    return out;
  }
  out.values.resize(nval);
  if (nval > 0) Get(in, &pos, out.values.data(), nval * sizeof(double));
  report->attempted += attempted;
  report->failed += failed;
  for (std::string& p : problems) {
    if (report->problems.size() < 20) report->problems.push_back(std::move(p));
  }
  out.ran = true;
  return out;
}

}  // namespace servebench

#endif  // SERVEBENCH_CHILD_H_
