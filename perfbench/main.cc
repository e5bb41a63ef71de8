// Repository benchmark entry point.
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//
// Prints a human-readable report, then as its last line one JSON object
// {"correct", "attempted", "failed", "metrics"}: the end-to-end metrics with
// --trace 0, the per-layer metrics of the traced run with --trace 1. Exits 1
// when a response mismatches its reference, 2 on bad arguments or a failed
// set-up.

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "workloads.h"

namespace {

void Usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload <name> --seed <n> --seconds <s> "
               "--trace <0|1>\nworkloads:");
  for (const std::string& w : perfbench::WorkloadNames()) {
    std::fprintf(stderr, " %s", w.c_str());
  }
  std::fprintf(stderr, "\n");
}

bool ParseArgs(int argc, char** argv, perfbench::Options* opt) {
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    if (i + 1 >= argc) return false;
    const char* flag = argv[i];
    const char* value = argv[++i];
    char* end = nullptr;
    if (std::strcmp(flag, "--workload") == 0) {
      opt->workload = value;
      have_workload = true;
    } else if (std::strcmp(flag, "--seed") == 0) {
      opt->seed = std::strtoull(value, &end, 10);
      if (*end != '\0') return false;
    } else if (std::strcmp(flag, "--seconds") == 0) {
      opt->seconds = std::strtod(value, &end);
      if (*end != '\0' || !(opt->seconds > 0) || opt->seconds > 600) {
        return false;
      }
    } else if (std::strcmp(flag, "--trace") == 0) {
      if (std::strcmp(value, "0") != 0 && std::strcmp(value, "1") != 0) {
        return false;
      }
      opt->trace = value[0] == '1';
    } else {
      return false;
    }
  }
  return have_workload;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::Options opt;
  if (!ParseArgs(argc, argv, &opt)) {
    Usage();
    return 2;
  }
  perfbench::RunResult result;
  std::string error;
  if (!perfbench::RunWorkload(opt, &result, &error)) {
    std::fprintf(stderr, "perfbench: %s\n", error.c_str());
    return 2;
  }
  for (const std::string& line : result.report) std::printf("%s\n", line.c_str());

  std::string json = "{\"correct\": ";
  json += result.correct ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(result.attempted);
  json += ", \"failed\": " + std::to_string(result.failed);
  json += ", \"metrics\": {";
  char buf[128];
  for (size_t i = 0; i < result.metrics.size(); ++i) {
    const perfbench::Metric& m = result.metrics[i];
    // A tail that landed on a failed request has no finite latency.
    double v = std::isfinite(m.value) ? m.value : 1e9;
    std::snprintf(buf, sizeof(buf), "%s\"%s\": {\"value\": %.17g, ",
                  i == 0 ? "" : ", ", m.name.c_str(), v);
    json += buf;
    json += "\"unit\": \"" + m.unit + "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  int code = result.correct ? 0 : 1;
  if (result.wedged) {
    std::fflush(stdout);
    std::_Exit(code);
  }
  return code;
}
