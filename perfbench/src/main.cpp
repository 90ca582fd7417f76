// mem2_perfbench — the repository benchmark's measuring program.
//
//   mem2_perfbench --workload W --seed N --seconds S --trace 0|1 --data DIR
//       One measured run.  The last stdout line is the JSON result; lines
//       before it start with '#'.  Exit 0 when every output check passed,
//       1 when a correctness or replay-fidelity check failed (the result is
//       still printed, with "correct": false), 2 on a usage or setup error
//       (nothing printed).
//   mem2_perfbench --prepare --workload W --data DIR
//       Build the workload's reference index into DIR unless cached.
//   mem2_perfbench --selftest --data DIR
//       Self-tests of the benchmark's own helpers.
//
// run.py builds this program and drives it; see README.md here.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "common.h"

using namespace perfbench;

namespace {

void print_result(const Result& r, bool trace) {
  for (const auto& p : r.problems) std::printf("# CHECK FAILED: %s\n", p.c_str());
  const auto& names = trace ? per_layer_names() : end_to_end_names();
  const auto& units = metric_units();
  for (const auto& n : names) {
    const auto it = r.metrics.find(n);
    std::printf("# %-28s %18.6f %s%s\n", n.c_str(), it == r.metrics.end() ? 0.0 : it->second,
                units.at(n).c_str(), it == r.metrics.end() ? "  (not applicable)" : "");
  }
  std::string json = "{\"correct\": ";
  json += r.correct ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(r.attempted);
  json += ", \"failed\": " + std::to_string(r.failed);
  json += ", \"metrics\": {";
  bool first = true;
  for (const auto& n : names) {
    const auto it = r.metrics.find(n);
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.17g", it == r.metrics.end() ? 0.0 : it->second);
    json += first ? "" : ", ";
    json += "\"" + n + "\": {\"value\": " + buf + ", \"unit\": \"" + units.at(n) + "\"}";
    first = false;
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
}

int usage() {
  std::fprintf(stderr,
               "usage: mem2_perfbench --workload W --seed N --seconds S --trace 0|1 --data DIR\n"
               "       mem2_perfbench --prepare --workload W --data DIR\n"
               "       mem2_perfbench --selftest --data DIR\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  RunArgs a;
  std::string workload;
  bool prepare = false, selftest = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto value = [&]() -> const char* { return i + 1 < argc ? argv[++i] : nullptr; };
    const char* v = nullptr;
    if (arg == "--prepare") {
      prepare = true;
    } else if (arg == "--selftest") {
      selftest = true;
    } else if ((arg == "--workload") && (v = value())) {
      workload = v;
    } else if (arg == "--seed" && (v = value())) {
      a.seed = std::strtoull(v, nullptr, 10);
    } else if (arg == "--seconds" && (v = value())) {
      a.seconds = std::atof(v);
    } else if (arg == "--trace" && (v = value())) {
      a.trace = std::atoi(v) != 0;
    } else if (arg == "--data" && (v = value())) {
      a.data_dir = v;
    } else {
      return usage();
    }
  }
  if (a.data_dir.empty()) return usage();
  if (selftest) {
    try {
      const int failures = run_selftests(a.data_dir);
      std::printf("# selftest: %d failure(s)\n", failures);
      return failures ? 1 : 0;
    } catch (const std::exception& e) {
      std::fprintf(stderr, "mem2_perfbench: selftest: %s\n", e.what());
      return 2;
    }
  }
  a.workload = find_workload(workload);
  if (!a.workload) {
    std::fprintf(stderr, "unknown workload '%s'\n", workload.c_str());
    return usage();
  }
  if (prepare) return prepare_index(a.data_dir, a.workload->genome_len) ? 0 : 2;
  if (!(a.seconds > 0)) return usage();

  Result r;
  try {
    r = a.workload->kind == Kind::kServed ? run_served(a) : run_single_end(a);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "mem2_perfbench: %s\n", e.what());
    return 2;
  }
  std::fflush(stdout);
  print_result(r, a.trace);
  return r.correct ? 0 : 1;
}
