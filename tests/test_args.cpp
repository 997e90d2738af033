// Tier-1: bench_common.hpp Args hardening — unknown flags are rejected,
// values must parse and fit their type and bounds, valid command lines
// pass.  The bound cases run the real bench binaries from KPS_BENCH_DIR.
#include <fcntl.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cassert>
#include <cstdio>
#include <string>
#include <vector>

#include "bench/bench_common.hpp"

namespace {

/// Run KPS_BENCH_DIR/bench with `args` in a forked child: returns its
/// wait status, with its stderr appended to *err and stdout discarded.
int run_bench(const std::string& bench, std::vector<std::string> args,
              std::string* err) {
  const std::string path = std::string(KPS_BENCH_DIR) + "/" + bench;
  args.insert(args.begin(), path);
  std::vector<char*> argv;
  for (auto& a : args) argv.push_back(a.data());
  argv.push_back(nullptr);
  int fds[2];
  assert(pipe(fds) == 0);
  std::fflush(nullptr);
  const pid_t child = fork();
  assert(child >= 0);
  if (child == 0) {
    dup2(fds[1], 2);
    dup2(open("/dev/null", O_WRONLY), 1);
    close(fds[0]);
    close(fds[1]);
    execv(path.c_str(), argv.data());
    _exit(127);
  }
  close(fds[1]);
  char buf[256];
  ssize_t n = 0;
  while ((n = read(fds[0], buf, sizeof buf)) > 0) {
    err->append(buf, static_cast<std::size_t>(n));
  }
  close(fds[0]);
  int status = 0;
  assert(waitpid(child, &status, 0) == child);
  return status;
}

}  // namespace

int main() {
  using kps::bench::Args;

  std::string err;
  const auto workload = Args::with_workload({});
  const auto fig4 = Args::with_workload({"k", "maxp"});
  const std::vector<std::string> placement = {"per-thread", "threads"};

  // Valid shapes.
  assert(Args::check({}, workload, &err));
  assert(Args::check({"--paper"}, workload, &err));
  assert(Args::check({"--n", "500", "--p", "0.3", "--paper"}, workload,
                     &err));
  assert(Args::check({"--per-thread", "1000", "--threads", "4"}, placement,
                     &err));
  assert(Args::check({"--k", "8", "--maxp", "8", "--n", "10"}, fig4, &err));

  // Unknown flag: fail-fast.
  assert(!Args::check({"--frobnicate"}, workload, &err));
  assert(err.find("unknown flag") != std::string::npos);
  assert(!Args::check({"--n", "5", "--bogus", "1"}, workload, &err));

  // A flag valid for *another* bench is still rejected here (per-bench
  // accept lists, not a global union).
  assert(!Args::check({"--tasks", "100"}, fig4, &err));
  assert(!Args::check({"--n", "5"}, placement, &err));

  // Stray non-flag token.
  assert(!Args::check({"n", "5"}, workload, &err));

  // Duplicate flags fail fast (the accessors return the FIRST occurrence,
  // so a repeated flag would silently win with the value the operator
  // thought they had overridden).  Both spellings, booleans included.
  assert(!Args::check({"--n", "5", "--n", "9"}, workload, &err));
  assert(err.find("duplicate flag") != std::string::npos);
  assert(!Args::check({"--paper", "--paper"}, workload, &err));
  assert(err.find("duplicate flag") != std::string::npos);
  {
    std::vector<std::string> v = {"--n=5", "--n", "9"};
    assert(Args::split_attached(&v, &err));
    assert(!Args::check(v, workload, &err));  // mixed spellings too
    assert(err.find("duplicate flag") != std::string::npos);
  }
  // Same value twice is still a duplicate — the ambiguity is the flag
  // appearing twice, not the values disagreeing.
  assert(!Args::check({"--n", "5", "--n", "5"}, workload, &err));

  // Value flag with missing value.
  assert(!Args::check({"--n"}, workload, &err));
  assert(!Args::check({"--n", "--paper"}, workload, &err));

  // Numeric parsing: non-numeric must be detected, not read as 0.
  std::uint64_t u = 99;
  assert(Args::parse_u64("123", &u) && u == 123);
  assert(!Args::parse_u64("12x", &u));
  assert(!Args::parse_u64("", &u));
  assert(!Args::parse_u64("x12", &u));
  assert(!Args::parse_u64("-5", &u));   // strtoull would wrap to 2^64-5
  assert(!Args::parse_u64("+5", &u));
  assert(!Args::parse_u64(" 5", &u));

  double d = 0;
  assert(Args::parse_double("0.5", &d) && d == 0.5);
  assert(Args::parse_double("1e-3", &d));
  assert(!Args::parse_double("half", &d));
  assert(!Args::parse_double("0.5garbage", &d));
  assert(!Args::parse_double("nan", &d));
  assert(!Args::parse_double("inf", &d));
  assert(!Args::parse_double("-1", &d));  // all double flags are >= 0

  // Narrowing: a value the target type cannot hold is rejected, never
  // wrapped (2^32 + 256 into an int or a u32 would read as 256).
  int narrow_i = 0;
  assert(Args::narrow<int>(2147483647, &narrow_i) && narrow_i == 2147483647);
  assert(!Args::narrow<int>(2147483648ull, &narrow_i));
  assert(!Args::narrow<int>(4294967552ull, &narrow_i));
  std::uint32_t narrow_u = 0;
  assert(Args::narrow<std::uint32_t>(4294967295ull, &narrow_u) &&
         narrow_u == 4294967295u);
  assert(!Args::narrow<std::uint32_t>(4294967552ull, &narrow_u));

  // --name=value splitting: canonicalized before validation, so both
  // spellings hit the same accept-list and value checks.
  {
    const std::vector<std::string> wl = {"workload", "n", "paper"};
    std::vector<std::string> v = {"--workload=des", "--n=5"};
    assert(Args::split_attached(&v, &err));
    assert((v == std::vector<std::string>{"--workload", "des", "--n", "5"}));
    assert(Args::check(v, wl, &err));

    // Unknown flags stay fail-fast through the attached spelling.
    v = {"--frobnicate=1"};
    assert(Args::split_attached(&v, &err));
    assert(!Args::check(v, wl, &err));
    assert(err.find("unknown flag") != std::string::npos);

    // Empty name / empty value / boolean-with-value are all typos.
    v = {"--=des"};
    assert(!Args::split_attached(&v, &err));
    v = {"--workload="};
    assert(!Args::split_attached(&v, &err));
    assert(err.find("expects a value") != std::string::npos);
    v = {"--paper=1"};
    assert(Args::split_attached(&v, &err));
    assert(!Args::check(v, wl, &err));  // "1" becomes a stray argument

    // A string flag with a missing value is still rejected.
    v = {"--workload"};
    assert(!Args::check(v, wl, &err));
  }

  // End-to-end through the accessors.
  std::vector<std::string> raw = {"prog", "--n", "42", "--p", "0.25"};
  std::vector<char*> argv;
  for (auto& s : raw) argv.push_back(s.data());
  Args args(static_cast<int>(argv.size()), argv.data());
  assert(args.value("n", 0) == 42);
  assert(args.value_d("p", 0) == 0.25);
  assert(args.value("graphs", 7) == 7);  // default passthrough
  assert(!args.flag("paper"));
  assert(args.value_as<int>("n", 0) == 42);
  assert(args.value_as<std::uint32_t>("graphs", 7) == 7);

  // The narrowing accessor exits 2 like every other flag error; run it
  // in a child so the exit is observable.
  {
    std::vector<std::string> raw_k = {"prog", "--k", "4294967552"};
    std::vector<char*> argv_k;
    for (auto& s : raw_k) argv_k.push_back(s.data());
    std::fflush(nullptr);
    const pid_t child = fork();
    assert(child >= 0);
    if (child == 0) {
      const Args args_k(static_cast<int>(argv_k.size()), argv_k.data(),
                        std::vector<std::string>{"k"});
      (void)args_k.value_as<int>("k", 256);
      _exit(0);  // reached only if the value was narrowed silently
    }
    int status = 0;
    assert(waitpid(child, &status, 0) == child);
    assert(WIFEXITED(status) && WEXITSTATUS(status) == 2);
  }

  // Lower bound: a zero window or interval exits 2 naming the bound,
  // instead of an uncaught invalid_argument from a storage or policy
  // constructor aborting the bench.
  const struct {
    const char* bench;
    const char* flag;
  } zero_flags[] = {
      {"fig6_workloads", "--k"},   {"fig8_chain_scaling", "--k"},
      {"fig9_degradation", "--k"}, {"ablation_batch", "--k"},
      {"ablation_cancel", "--k"},  {"fig7_adaptive", "--k-max"},
      {"fig7_adaptive", "--interval"},
  };
  for (const auto& z : zero_flags) {
    std::string child_err;
    const int status = run_bench(z.bench, {z.flag, "0"}, &child_err);
    const std::string want =
        std::string("error: ") + z.flag + " must be at least 1, got 0";
    if (!WIFEXITED(status) || WEXITSTATUS(status) != 2 ||
        child_err.find(want) == std::string::npos) {
      std::fprintf(stderr, "%s %s 0: %s %d (want exit 2), stderr: %s\n",
                   z.bench, z.flag, WIFEXITED(status) ? "exit" : "signal",
                   WIFEXITED(status) ? WEXITSTATUS(status) : WTERMSIG(status),
                   child_err.c_str());
      assert(false && "a zero flag value must exit 2 with the bound");
    }
  }

  // String accessor end-to-end, attached spelling included.
  std::vector<std::string> raw_s = {"prog", "--workload=des", "--n", "3"};
  std::vector<char*> argv_s;
  for (auto& s : raw_s) argv_s.push_back(s.data());
  Args args_s(static_cast<int>(argv_s.size()), argv_s.data(),
              std::vector<std::string>{"workload", "n"});
  assert(args_s.value_s("workload", "all") == "des");
  assert(args_s.value_s("mode", "fallback") == "fallback");
  assert(args_s.value("n", 0) == 3);  // numeric flags accept = form too

  std::printf("test_args: OK\n");
  return 0;
}
