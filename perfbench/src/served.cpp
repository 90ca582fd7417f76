// The served workload (served-mixed) and the open-loop request generator.
//
// Independent users make an open loop: request i is due at t0 + i / rate
// whatever the service's state, and its latency counts from the due time,
// so a stall also charges the requests queued behind it.  Each request is
// one ServiceStream session (open -> submit -> finish) carrying one payload
// of FASTQ text, parsed by io::FastqStream on the client thread.  Payloads
// come from a pool of distinct SE and PE read sets; every request's SAM
// digest must equal an untimed solo Stream run of the same payload.
//
// Below saturation an open loop delivers exactly its offered load, so the
// workload's throughput comes from a closed loop instead: before the open
// loop, an untraced run sends the same mix back to back on the same clients
// (each client's next request starts when its last one ends) and reports
// that capacity.
#include <algorithm>
#include <atomic>
#include <cstdio>
#include <sstream>
#include <mutex>
#include <thread>

#include "align/aligner.h"
#include "common.h"
#include "io/fastq.h"
#include "serve/align_service.h"
#include "util/big_alloc.h"

namespace perfbench {

std::vector<RequestTiming> run_open_loop(
    double rate_per_s, double seconds, std::size_t min_requests, int clients,
    const std::function<bool(std::size_t)>& handler) {
  const std::size_t n = std::max(
      min_requests, static_cast<std::size_t>(std::ceil(seconds * rate_per_s)));
  std::vector<RequestTiming> t(n);
  const double gap_ns = 1e9 / rate_per_s;
  const std::int64_t t0 = now_ns() + 5'000'000;  // first request due in 5 ms
  for (std::size_t i = 0; i < n; ++i)
    t[i].due_ns = t0 + static_cast<std::int64_t>(static_cast<double>(i) * gap_ns);
  std::atomic<std::size_t> next{0};
  auto client = [&] {
    for (std::size_t i = next.fetch_add(1); i < n; i = next.fetch_add(1)) {
      const std::int64_t wait = t[i].due_ns - now_ns();
      if (wait > 0) std::this_thread::sleep_for(std::chrono::nanoseconds(wait));
      t[i].start_ns = now_ns();
      bool ok = false;
      try {
        ok = handler(i);
      } catch (const std::exception& e) {
        std::fprintf(stderr, "[perfbench] request %zu threw: %s\n", i, e.what());
      }
      t[i].end_ns = now_ns();
      t[i].ok = ok;
    }
  };
  std::vector<std::thread> threads;
  for (int c = 0; c < clients; ++c) threads.emplace_back(client);
  for (auto& th : threads) th.join();
  return t;
}

std::vector<RequestTiming> run_closed_loop(
    double seconds, int clients, const std::function<bool(std::size_t)>& handler) {
  std::mutex mu;
  std::vector<std::pair<std::size_t, RequestTiming>> done;
  std::atomic<std::size_t> next{0};
  const std::int64_t t0 = now_ns();
  auto client = [&] {
    do {
      const std::size_t i = next.fetch_add(1);
      RequestTiming t;
      t.due_ns = t.start_ns = now_ns();
      try {
        t.ok = handler(i);
      } catch (const std::exception& e) {
        std::fprintf(stderr, "[perfbench] request %zu threw: %s\n", i, e.what());
      }
      t.end_ns = now_ns();
      std::lock_guard<std::mutex> lk(mu);
      done.emplace_back(i, t);
    } while (seconds_since(t0) < seconds);
  };
  std::vector<std::thread> threads;
  for (int c = 0; c < clients; ++c) threads.emplace_back(client);
  for (auto& th : threads) th.join();
  std::sort(done.begin(), done.end(),
            [](const auto& x, const auto& y) { return x.first < y.first; });
  std::vector<RequestTiming> out;
  for (const auto& [i, t] : done) out.push_back(t);
  return out;
}

namespace {

struct SoloRun {
  std::uint64_t digest = 0;
  align::DriverStats stats;
  std::vector<io::SamRecord> records;
};

/// One payload through a solo Stream with the service sessions' options.
SoloRun solo_run(const index::Mem2Index& index, const align::DriverOptions& opts,
                 const Payload& p) {
  SoloRun out;
  const align::Aligner aligner(index, opts);
  HashSink sink(&out.records);
  const auto reads = parse_fastq_text(p.fastq);
  align::Stream stream = aligner.open(sink);
  const align::Status st = stream.submit(std::span<const seq::Read>(reads));
  const align::Status fin = stream.finish();
  if (!st.ok() || !fin.ok())
    throw std::runtime_error("solo run failed: " + (st.ok() ? fin : st).message());
  out.digest = sink.digest();
  out.stats = stream.stats();
  return out;
}

struct RequestOut {
  int payload = -1;
  bool paired = false;
  bool refused = false;
  bool digest_ok = false;
  bool work_ok = false;  // work counters equal the solo run's
  std::uint64_t reads = 0;
  std::uint64_t sam_bytes = 0;
  // TSC stamps (util::tsc_now), so they can be handed to the tracer.
  std::uint64_t open_b = 0, open_e = 0, submit_e = 0, finish_e = 0;
  double parse_s = 0;
  double sam_write_s = 0;
  align::DriverStats stats;
};

/// Share of --seconds the untraced run spends on the closed-loop capacity
/// phase; the open loop gets the rest (and at least kMinRequests requests).
inline constexpr double kClosedShare = 0.4;
inline constexpr std::size_t kMinRequests = 200;  // >= 10 samples beyond p95
/// Chrome pid of the replay's first batch (request lanes start at 1).
inline constexpr std::uint32_t kReplayPidBase = 100000;

}  // namespace

Result run_served(const RunArgs& a) {
  const Workload& w = *a.workload;
  Result res;
  serve::ServeOptions sopt;
  sopt.workers = w.workers;
  const align::DriverOptions se_opt = driver_options(w, false);
  const align::DriverOptions pe_opt = driver_options(w, true);

  Setup setup = load_index_timed(a, [&](const index::Mem2Index& idx) {
    serve::AlignService probe(idx, sopt);
    if (!probe.ok()) throw std::runtime_error("AlignService: " + probe.status().message());
  });
  const index::Mem2Index& index = *setup.index;
  serve::AlignService service(index, sopt);

  const std::vector<Payload> payloads = make_served_payloads(index, w, a.seed);

  // Untimed: the solo digest of every distinct payload, and accuracy.
  std::vector<SoloRun> solo;
  Accuracy acc;
  for (const Payload& p : payloads) {
    solo.push_back(solo_run(index, p.paired ? pe_opt : se_opt, p));
    acc.add_records(solo.back().records);
    solo.back().records.clear();
  }

  auto handle = [&](const Payload& p, RequestOut& r) {
    HashSink sink;
    r.paired = p.paired;
    r.open_b = util::tsc_now();
    serve::ServiceStream stream = service.open(p.paired ? pe_opt : se_opt, sink);
    r.open_e = util::tsc_now();
    if (!stream.ok()) {
      r.refused = true;
      r.submit_e = r.finish_e = r.open_e;
      return false;
    }
    std::istringstream in(p.fastq);
    io::FastqStream fq(in);
    align::Status st;
    std::int64_t parse_ns = 0;
    for (;;) {
      std::vector<seq::Read> chunk;
      const std::int64_t tp = now_ns();
      const std::size_t n = fq.next_chunk(chunk, static_cast<std::size_t>(w.batch_size));
      parse_ns += now_ns() - tp;
      if (n == 0) break;
      r.reads += n;
      if (st = stream.submit(std::move(chunk)); !st.ok()) break;
    }
    r.submit_e = util::tsc_now();
    const align::Status fin = stream.finish();
    r.finish_e = util::tsc_now();
    r.parse_s = static_cast<double>(parse_ns) * 1e-9;
    r.sam_write_s = sink.write_seconds();
    r.sam_bytes = sink.bytes();
    r.stats = stream.stats();
    const SoloRun& ref = solo[static_cast<std::size_t>(r.payload)];
    r.digest_ok = sink.digest() == ref.digest;
    r.work_ok = work_signature(r.stats) == work_signature(ref.stats);
    return st.ok() && fin.ok();
  };

  // Warm-up: each distinct payload once through the service, in order.
  for (std::size_t k = 0; k < payloads.size(); ++k) {
    RequestOut r;
    r.payload = static_cast<int>(k);
    if (!handle(payloads[k], r) || !r.digest_ok || !r.work_ok)
      res.fail("warm-up request for payload " + std::to_string(k) + " failed or differs");
  }

  // Capacity (untraced runs only): a closed loop of the same mix on the
  // same clients, each request sent as soon as its client's last one ended.
  // Its rate of ok reads is the workload's throughput_reads_s; the open
  // loop's rate is fixed, so it only carries the offered load.
  std::uint64_t closed_reads = 0, closed_bad = 0;
  double closed_s = 0;
  std::size_t closed_n = 0;
  if (!a.trace) {
    const std::vector<int> cplan = make_request_plan(w, a.seed + 1, 4096);
    std::mutex mu;
    const auto ct = run_closed_loop(kClosedShare * a.seconds, w.clients, [&](std::size_t i) {
      RequestOut r;
      r.payload = cplan[i % cplan.size()];
      const bool ok = handle(payloads[static_cast<std::size_t>(r.payload)], r);
      std::lock_guard<std::mutex> lk(mu);
      if (ok) closed_reads += r.reads;
      return ok && r.digest_ok && r.work_ok;
    });
    std::int64_t first = ct.front().start_ns, last = 0;
    for (const auto& t : ct) {
      first = std::min(first, t.start_ns);
      last = std::max(last, t.end_ns);
      ++res.attempted;
      if (!t.ok) ++closed_bad;
    }
    closed_s = static_cast<double>(last - first) * 1e-9;
    closed_n = ct.size();
    res.failed += closed_bad;
    if (closed_bad)
      res.fail(std::to_string(closed_bad) +
               " closed-loop request(s) failed or differ from their solo run");
  }
  const serve::ServiceMetrics before = service.metrics();

  // The timed open loop at the workload's fixed rate.
  const double open_s = a.trace ? a.seconds : (1.0 - kClosedShare) * a.seconds;
  const std::size_t n_req = std::max(
      kMinRequests, static_cast<std::size_t>(std::ceil(open_s * w.rate_per_s)));
  const std::vector<int> plan = make_request_plan(w, a.seed, n_req);
  std::vector<RequestOut> outs(n_req);
  const std::int64_t loop_b = now_ns();
  const auto timings = run_open_loop(w.rate_per_s, open_s, kMinRequests, w.clients,
                                     [&](std::size_t i) {
                                       outs[i].payload = plan[i];
                                       return handle(payloads[static_cast<std::size_t>(plan[i])],
                                                     outs[i]);
                                     });
  const double loop_s = seconds_since(loop_b);
  const serve::ServiceMetrics after = service.metrics();

  std::vector<double> latency_ms, late_ms;
  double worker_busy = 0;
  std::uint64_t ok_reads = 0, good = 0, refused = 0, mismatched = 0, drifted = 0;
  std::int64_t last_end = 0;
  for (std::size_t i = 0; i < timings.size(); ++i) {
    const auto& t = timings[i];
    const auto& r = outs[i];
    ++res.attempted;
    late_ms.push_back(static_cast<double>(t.start_ns - t.due_ns) * 1e-6);
    last_end = std::max(last_end, t.end_ns);
    if (r.refused) ++refused;
    if (t.ok && !r.digest_ok) ++mismatched;
    if (t.ok && !r.work_ok) ++drifted;
    if (!t.ok) {
      ++res.failed;
      continue;
    }
    const double ms = static_cast<double>(t.end_ns - t.due_ns) * 1e-6;
    latency_ms.push_back(ms);
    ok_reads += r.reads;
    if (ms <= w.latency_limit_ms && r.digest_ok) ++good;
  }
  if (mismatched)
    res.fail(std::to_string(mismatched) + " request(s) differ from their solo run");
  if (drifted)
    res.fail(std::to_string(drifted) + " request(s) drifted from their solo run's work counters");
  if (res.failed > closed_bad)
    res.fail(std::to_string(res.failed - closed_bad) + " request(s) failed or were refused");

  if (!a.trace) {
    const double capacity = static_cast<double>(closed_n) / closed_s;
    std::printf("# %s seed=%llu clients=%d workers=%d; closed loop: %zu requests in %.2fs = "
                "%.2f req/s, %.0f reads/s\n",
                w.name.c_str(), static_cast<unsigned long long>(a.seed), w.clients, w.workers,
                closed_n, closed_s, capacity, static_cast<double>(closed_reads) / closed_s);
    std::printf("# open loop at %.2f/s = %.0f%% of that capacity\n", w.rate_per_s,
                100.0 * w.rate_per_s / capacity);
  }
  std::printf("# open loop: %zu requests in %.2fs\n", n_req, loop_s);
  std::printf("# accuracy (primary within +-%d bp of truth): fwd %.4f (median offset %+.1f bp)"
              ", rev %.4f (median offset %+.1f bp)\n",
              kTruthWindowBp, acc.strand_frac(0), acc.median_offset(0),
              acc.strand_frac(1), acc.median_offset(1));
  {
    std::vector<double> se_ms, pe_ms;
    for (std::size_t i = 0; i < timings.size(); ++i)
      if (timings[i].ok)
        (outs[i].paired ? pe_ms : se_ms)
            .push_back(static_cast<double>(timings[i].end_ns - timings[i].due_ns) * 1e-6);
    std::printf("# latency p50/p90/p99 SE %.1f/%.1f/%.1f ms (n=%zu), PE %.1f/%.1f/%.1f ms "
                "(n=%zu); generator late p95 %.2f ms\n",
                median(se_ms), percentile(se_ms, 0.9), percentile(se_ms, 0.99), se_ms.size(),
                median(pe_ms), percentile(pe_ms, 0.9), percentile(pe_ms, 0.99), pe_ms.size(),
                percentile(late_ms, 0.95));
  }

  {
    double busy = 0;
    for (std::size_t s = 0; s < after.stage_seconds.size(); ++s)
      busy += after.stage_seconds[s].sum() - before.stage_seconds[s].sum();
    const double span_s = static_cast<double>(last_end - timings.front().due_ns) * 1e-9;
    worker_busy = busy / (static_cast<double>(w.workers) * loop_s);
    std::printf("# open loop: %.0f reads/s delivered (the offered load), worker busy %.3f\n",
                static_cast<double>(ok_reads) / span_s, worker_busy);
  }

  if (!a.trace) {
    res.metrics["throughput_reads_s"] = static_cast<double>(closed_reads) / closed_s;
    res.metrics["setup_s"] = setup.setup_s;
    res.metrics["peak_rss_mb"] =
        static_cast<double>(util::peak_rss_bytes()) / (1024.0 * 1024.0);
    res.metrics["latency_p50_ms"] = percentile(latency_ms, 0.50);
    res.metrics["latency_p95_ms"] = percentile(latency_ms, 0.95);
    res.metrics["goodput_frac"] =
        static_cast<double>(good) / static_cast<double>(timings.size());
    res.metrics["mapped_correct_frac"] = acc.correct_frac();
    return res;
  }

  // ---- Per-layer numbers.  pair and serve have no standalone entry point:
  // they come from the program's own snapshots (DriverStats, StreamMetrics,
  // ServiceMetrics) and from timing the outside open/submit/finish calls.
  std::vector<double> open_ms, pe_finish_s;
  double pair_busy = 0, parse_s = 0, write_s = 0, sam_bytes = 0;
  util::SwCounters pe_counters;
  std::uint64_t pe_pairs = 0;
  for (const auto& r : outs) {
    open_ms.push_back(util::tsc_to_seconds(r.open_e - r.open_b) * 1e3);
    parse_s += r.parse_s;
    write_s += r.sam_write_s;
    sam_bytes += static_cast<double>(r.sam_bytes);
    if (r.paired) {
      pe_finish_s.push_back(util::tsc_to_seconds(r.finish_e - r.submit_e));
      pair_busy += r.stats.stages[util::Stage::kPair];
      pe_counters += r.stats.counters;
      pe_pairs += r.reads / 2;
    }
  }
  Metrics& m = res.metrics;
  m["pair.calibrate_s"] = median(pe_finish_s);
  m["pair.busy_s"] = pair_busy;
  m["pair.rescue_windows"] = static_cast<double>(pe_counters.pe_rescue_windows);
  m["pair.rescue_jobs"] = static_cast<double>(pe_counters.pe_rescue_jobs);
  m["pair.rescue_hit_frac"] =
      pe_counters.pe_rescue_jobs ? static_cast<double>(pe_counters.pe_rescue_hits) /
                                       static_cast<double>(pe_counters.pe_rescue_jobs)
                                 : 0.0;
  m["pair.proper_frac"] =
      pe_pairs ? static_cast<double>(pe_counters.pe_proper_pairs) / static_cast<double>(pe_pairs)
               : 0.0;
  m["serve.admission_wait_ms"] = median(open_ms);
  m["serve.queue_wait_p50_ms"] = after.queue_wait.quantile(0.50) * 1e3;
  m["serve.queue_wait_p95_ms"] = after.queue_wait.quantile(0.95) * 1e3;
  m["serve.batch_latency_p95_ms"] = after.batch_latency.quantile(0.95) * 1e3;
  m["serve.worker_busy_frac"] = worker_busy;
  m["serve.refused"] = static_cast<double>(refused);
  m["gen.late_p95_ms"] = percentile(late_ms, 0.95);
  m["io.sam_bytes"] = sam_bytes;

  // SE layers: replay every distinct SE payload, first untraced, then
  // traced; each replay must equal its solo run's digest and work counters.
  std::vector<double> traced_tput, plain_tput;
  for (const Payload& p : payloads) {
    if (p.paired) continue;
    const ReplayOutcome plain = replay_single_end(index, se_opt, p.fastq, 0);
    plain_tput.push_back(static_cast<double>(plain.reads) / plain.wall_s);
  }
  util::Tracer& tracer = util::Tracer::instance();
  tracer.enable();
  ReplayOutcome total;
  util::SwCounters solo_c;
  std::uint64_t solo_jobs = 0, solo_used = 0;
  for (std::size_t k = 0; k < payloads.size(); ++k) {
    if (payloads[k].paired) continue;
    const ReplayOutcome r = replay_single_end(index, se_opt, payloads[k].fastq,
                                              kReplayPidBase + 100 * static_cast<std::uint32_t>(k));
    if (r.digest != solo[k].digest)
      res.fail("replay digest differs from the solo run of payload " + std::to_string(k));
    total.counters += r.counters;
    total.jobs += r.jobs;
    total.jobs_used += r.jobs_used;
    total.seeds += r.seeds;
    total.chains_built += r.chains_built;
    total.chains_kept += r.chains_kept;
    total.regions += r.regions;
    total.reads += r.reads;
    solo_c += solo[k].stats.counters;
    solo_jobs += solo[k].stats.extensions_computed;
    solo_used += solo[k].stats.extensions_used;
    traced_tput.push_back(static_cast<double>(r.reads) / r.wall_s);
  }
  // The open loop's requests, one pid lane each (request i has pid i + 1),
  // from the TSC stamps taken around the outside calls.
  for (std::size_t i = 0; i < outs.size(); ++i) {
    const auto& r = outs[i];
    const auto pid = static_cast<std::uint32_t>(i + 1);
    const auto late_ticks = static_cast<std::uint64_t>(
        static_cast<double>(timings[i].start_ns - timings[i].due_ns) * 1e-9 *
        util::tsc_ticks_per_second());
    util::trace_interval("late", r.open_b - late_ticks, r.open_b, pid);
    util::trace_interval("open", r.open_b, r.open_e, pid);
    util::trace_interval("submit", r.open_e, r.submit_e, pid);
    util::trace_interval("finish", r.submit_e, r.finish_e, pid);
  }
  tracer.disable();
  if (tracer.dropped()) res.fail("the tracer dropped spans");
  if (total.counters.occ_bucket_loads != solo_c.occ_bucket_loads ||
      total.counters.sa_lookups != solo_c.sa_lookups ||
      total.counters.bsw_cells_total != solo_c.bsw_cells_total ||
      total.jobs != solo_jobs || total.jobs_used != solo_used)
    res.fail("replay work counters differ from the solo runs' DriverStats");
  layer_metrics_from_replay(tracer.aggregate(), total, m);
  // The requests' own parse and sink time (client threads), not the replay's.
  m["io.fastq_parse_s"] = parse_s;
  m["io.sam_write_s"] = write_s;
  m["trace_overhead_frac"] = 1.0 - median(traced_tput) / median(plain_tput);
  m["index.load_s"] = setup.load_s;
  m["index.bytes"] = static_cast<double>(index.memory_bytes());
  m["accuracy.fwd_correct_frac"] = acc.strand_frac(0);
  m["accuracy.rev_correct_frac"] = acc.strand_frac(1);
  m["accuracy.fwd_offset_bp"] = acc.median_offset(0);
  m["accuracy.rev_offset_bp"] = acc.median_offset(1);
  const std::string trace_path =
      a.data_dir + "/trace-" + w.name + "-" + std::to_string(a.seed) + ".json";
  if (tracer.write_chrome_trace_file(trace_path))
    std::printf("# spans: %llu written to %s\n",
                static_cast<unsigned long long>(tracer.recorded()), trace_path.c_str());
  return res;
}

}  // namespace perfbench
