// perfbench_runner: runs one benchmark workload and prints its result.
//
//   perfbench_runner --workload svc_hot|svc_cold|stream_mixed --seed N
//                    --seconds S --trace 0|1 [--trace-out FILE]
//
// Output: one detail line (`{"detail": ...}`: determinism hash, exact
// per-round counts, errors), then the result line, last on stdout:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// --trace 0 reports the end-to-end metrics, --trace 1 the per-layer ones.
// Exits 1 when an output check fails, 2 on a usage error.
#include <cstdio>
#include <cstdlib>
#include <string>

#include "report.h"

namespace {

int Usage(const char* msg) {
  std::fprintf(stderr,
               "perfbench_runner: %s\n"
               "usage: perfbench_runner --workload svc_hot|svc_cold|"
               "stream_mixed --seed N --seconds S --trace 0|1 "
               "[--trace-out FILE]\n",
               msg);
  return 2;
}

bool ParseUint(const char* s, uint64_t* out) {
  char* end = nullptr;
  const unsigned long long v = std::strtoull(s, &end, 10);
  if (end == s || *end != '\0') return false;
  *out = v;
  return true;
}

std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out + "\"";
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::Options opt;
  bool have_seed = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) return Usage(("missing value for " + flag).c_str());
    const char* value = argv[++i];
    uint64_t n = 0;
    if (flag == "--workload") {
      opt.workload = value;
    } else if (flag == "--seed" && ParseUint(value, &n)) {
      opt.seed = n;
      have_seed = true;
    } else if (flag == "--seconds" && ParseUint(value, &n) && n > 0) {
      opt.seconds = static_cast<double>(n);
    } else if (flag == "--trace" && ParseUint(value, &n) && n <= 1) {
      opt.trace = n == 1;
    } else if (flag == "--trace-out") {
      opt.trace_out = value;
    } else {
      return Usage(("bad flag or value: " + flag + " " + value).c_str());
    }
  }
  if (!have_seed) return Usage("--seed is required");

  perfbench::RunResult result(opt.trace);
  if (opt.workload == "svc_hot") {
    result = perfbench::RunSvcWorkload(opt, /*cold=*/false);
  } else if (opt.workload == "svc_cold") {
    result = perfbench::RunSvcWorkload(opt, /*cold=*/true);
  } else if (opt.workload == "stream_mixed") {
    result = perfbench::RunStreamWorkload(opt);
  } else {
    return Usage(("unknown workload: " + opt.workload).c_str());
  }
  if (result.attempted == 0) result.Fail("no operation was attempted");

  std::string exact = "{";
  for (size_t i = 0; i < result.exact.size(); ++i) {
    if (i > 0) exact += ", ";
    exact += JsonString(result.exact[i].first) + ": " +
             std::to_string(result.exact[i].second);
  }
  exact += "}";
  std::string errors = "[";
  for (size_t i = 0; i < result.errors.size(); ++i) {
    if (i > 0) errors += ", ";
    errors += JsonString(result.errors[i]);
  }
  errors += "]";
  const double error_rate =
      result.attempted > 0
          ? static_cast<double>(result.failed) / result.attempted
          : 1.0;
  std::printf(
      "{\"detail\": {\"workload\": %s, \"seed\": %llu, \"det_hash\": "
      "\"%016llx\", \"rounds\": %llu, \"error_rate\": %.17g, \"exact\": %s, "
      "\"errors\": %s}}\n",
      JsonString(opt.workload).c_str(),
      static_cast<unsigned long long>(opt.seed),
      static_cast<unsigned long long>(result.det_hash),
      static_cast<unsigned long long>(result.rounds), error_rate,
      exact.c_str(), errors.c_str());
  std::printf(
      "{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
      "\"metrics\": %s}\n",
      result.correct ? "true" : "false",
      static_cast<unsigned long long>(result.attempted),
      static_cast<unsigned long long>(result.failed),
      result.metrics.ToJson().c_str());
  std::fflush(stdout);
  return result.correct ? 0 : 1;
}
