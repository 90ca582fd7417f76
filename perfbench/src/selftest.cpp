// Self-tests of the benchmark's own code: the percentile helper, seed
// handling (a changed seed changes the inputs but not the metric names), and
// the open- and closed-loop generators' due-time and lateness accounting.
#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <set>
#include <thread>

#include "common.h"
#include "util/rng.h"

namespace perfbench {

namespace {

int g_failures = 0;

void expect(bool ok, const std::string& what) {
  if (!ok) {
    ++g_failures;
    std::printf("# selftest FAILED: %s\n", what.c_str());
  }
}

void test_percentile() {
  util::Xoshiro256ss rng(7);
  const double qs[] = {0.0, 0.05, 0.25, 0.5, 0.75, 0.95, 0.99, 1.0};
  for (int n = 1; n <= 64; ++n) {
    std::vector<double> v(static_cast<std::size_t>(n));
    for (auto& x : v) x = static_cast<double>(rng.below(1000)) * 0.25;  // with ties
    std::vector<double> sorted = v;
    std::sort(sorted.begin(), sorted.end());
    for (double q : qs) {
      // Oracle: interpolate between the two order statistics around
      // q * (n - 1) of the fully sorted sample.
      const double pos = q * (n - 1);
      const auto lo = static_cast<std::size_t>(std::floor(pos));
      const auto hi = static_cast<std::size_t>(std::ceil(pos));
      const double want = sorted[lo] + (pos - std::floor(pos)) * (sorted[hi] - sorted[lo]);
      const double got = percentile(v, q);
      expect(std::fabs(got - want) <= 1e-9 * std::max(1.0, std::fabs(want)),
             "percentile n=" + std::to_string(n) + " q=" + std::to_string(q));
    }
  }
  expect(percentile({}, 0.5) == 0.0, "percentile of an empty sample is 0");
  expect(median({3.0, 1.0, 2.0}) == 2.0, "median of 3 values");
  expect(median({4.0, 1.0, 2.0, 3.0}) == 2.5, "median of 4 values interpolates");
}

std::set<std::string> keys(const Metrics& m) {
  std::set<std::string> s;
  for (const auto& [k, v] : m) s.insert(k);
  return s;
}

void test_seeds(const std::string& data_dir) {
  // A small reference stands in for the workloads' own, so this runs in
  // seconds; the code paths are the workloads'.
  const std::string dir = data_dir + "/selftest";
  constexpr std::int64_t kGenome = 300'000;
  if (!prepare_index(dir, kGenome)) {
    expect(false, "selftest index build");
    return;
  }
  const auto index = index::load_index(index_path(dir, kGenome));
  const std::set<std::string> e2e(end_to_end_names().begin(), end_to_end_names().end());
  const std::set<std::string> layer(per_layer_names().begin(), per_layer_names().end());

  for (const Workload& real : all_workloads()) {
    Workload w = real;
    w.genome_len = kGenome;
    w.reads_per_pass = 768;  // whole 128-read batches
    w.batch_size = 128;
    w.se_payload_reads = 24;
    w.pe_payload_pairs = 12;
    w.se_payloads = 3;
    w.pe_payloads = 1;
    w.rate_per_s = 1000;
    if (w.kind == Kind::kSingleEnd) {
      const auto a = make_se_inputs(index, w, 1, 200);
      const auto b = make_se_inputs(index, w, 2, 200);
      const auto a2 = make_se_inputs(index, w, 1, 200);
      expect(a.fastq != b.fastq, w.name + ": seeds 1 and 2 give different reads");
      expect(a.fastq == a2.fastq, w.name + ": one seed gives the same reads");
      expect(a.n_reads == b.n_reads, w.name + ": read count does not depend on the seed");
    } else {
      const auto a = make_served_payloads(index, w, 1);
      const auto b = make_served_payloads(index, w, 2);
      bool differ = a.size() == b.size();
      for (std::size_t k = 0; differ && k < a.size(); ++k) differ = a[k].fastq != b[k].fastq;
      expect(differ, w.name + ": seeds 1 and 2 give different payloads");
      expect(make_request_plan(w, 1, 64) != make_request_plan(w, 2, 64),
             w.name + ": seeds 1 and 2 give different request plans");
      std::size_t pe = 0;
      for (int p : make_request_plan(w, 1, 400)) pe += p >= w.se_payloads;
      expect(pe == 100, w.name + ": request plan keeps the 3:1 SE:PE mix");
    }
    for (bool trace : {false, true}) {
      std::set<std::string> first;
      for (std::uint64_t seed : {1u, 2u}) {
        RunArgs args;
        args.workload = &w;
        args.seed = seed;
        args.seconds = 0.05;
        args.trace = trace;
        args.data_dir = dir;
        const Result r = w.kind == Kind::kServed ? run_served(args) : run_single_end(args);
        expect(r.correct, w.name + ": selftest run passes its output checks");
        const auto names = keys(r.metrics);
        for (const auto& n : names)
          expect((trace ? layer : e2e).count(n) == 1,
                 w.name + ": metric " + n + " is a listed name");
        if (seed == 1)
          first = names;
        else
          expect(first == names, w.name + (trace ? " (trace)" : "") +
                                     ": both seeds set the same metric names");
      }
      if (!trace)
        expect(first == e2e, w.name + ": sets every end-to-end metric");
    }
  }
}

void test_open_loop() {
  // A deliberately slow handler: 2 clients, 30 ms per request, one request
  // due every 5 ms.  Client c serves requests c, c+2, ... back to back, so
  // request i starts at 30 ms * (i / 2) + 5 ms * (i % 2) after the first
  // due time and is late by that minus 5 ms * i.
  constexpr int kN = 12;
  constexpr double kServiceMs = 30, kGapMs = 5;
  const auto t = run_open_loop(1000.0 / kGapMs, 0.0, kN, 2, [](std::size_t) {
    std::this_thread::sleep_for(std::chrono::milliseconds(30));
    return true;
  });
  expect(t.size() == kN, "open loop issues min_requests when seconds is 0");
  std::vector<double> late;
  for (std::size_t i = 0; i < t.size(); ++i) {
    const double due = static_cast<double>(t[i].due_ns - t[0].due_ns) * 1e-6;
    expect(std::fabs(due - kGapMs * static_cast<double>(i)) < 1e-3,
           "request " + std::to_string(i) + " is due at i / rate");
    const double want_late = kServiceMs * static_cast<double>(i / 2) +
                             kGapMs * static_cast<double>(i % 2) - kGapMs * static_cast<double>(i);
    const double got_late = static_cast<double>(t[i].start_ns - t[i].due_ns) * 1e-6;
    late.push_back(got_late);
    // Sleeps overrun, never underrun: allow 1 ms early (clock reads) and a
    // drift of up to 4 ms per earlier request on the same client.
    expect(got_late >= want_late - 1.0 && got_late <= want_late + 4.0 * (1.0 + static_cast<double>(i / 2)),
           "request " + std::to_string(i) + " lateness " + std::to_string(got_late) +
               " ms, expected about " + std::to_string(want_late) + " ms");
    const double latency = static_cast<double>(t[i].end_ns - t[i].due_ns) * 1e-6;
    expect(latency >= got_late + kServiceMs - 1.0,
           "latency counts from the due time (includes lateness)");
    expect(t[i].ok, "handler result is recorded");
  }
  expect(percentile(late, 0.95) >= kServiceMs * 5 - kGapMs * 10 - 1.0,
         "late p95 reflects the backlog");

  // A fast handler at a low rate is never late by more than a timer slack.
  const auto f = run_open_loop(200.0, 0.0, 10, 2, [](std::size_t) { return true; });
  for (const auto& r : f)
    expect(static_cast<double>(r.start_ns - r.due_ns) * 1e-6 < 3.0,
           "an idle generator starts requests on time");
  // A failing handler is recorded as failed.
  const auto g = run_open_loop(1000.0, 0.0, 4, 1, [](std::size_t i) { return i != 2; });
  expect(!g[2].ok && g[1].ok, "a failed request is recorded as not ok");

  // Closed loop: 2 clients, 20 ms per request, 0.1 s.  Each client sends
  // back to back, so at most 2 requests overlap and each client finishes
  // about 0.1 s / 20 ms requests (at least one).
  std::atomic<int> in_flight{0}, max_in_flight{0};
  const auto c = run_closed_loop(0.1, 2, [&](std::size_t) {
    const int now = ++in_flight;
    int m = max_in_flight.load();
    while (now > m && !max_in_flight.compare_exchange_weak(m, now)) {
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    --in_flight;
    return true;
  });
  expect(c.size() >= 4 && c.size() <= 14,
         "closed loop issues about seconds / service time requests per client (got " +
             std::to_string(c.size()) + ")");
  expect(max_in_flight.load() <= 2, "closed loop keeps at most one request per client in flight");
  for (const auto& r : c)
    expect(r.ok && r.start_ns == r.due_ns && r.end_ns - r.start_ns >= 19'000'000,
           "closed-loop request starts when issued and records its service time");
}

}  // namespace

int run_selftests(const std::string& data_dir) {
  g_failures = 0;
  test_percentile();
  test_open_loop();
  test_seeds(data_dir);
  return g_failures;
}

}  // namespace perfbench
