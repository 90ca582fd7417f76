// Shared measurement helpers and the single-end workloads (se76-l3,
// se151-dram).
//
// A single-end run: load the index several times (setup_s is the median of
// index load plus Aligner construction), generate the reads from the seed,
// run one untimed check pass that keeps every record (digest, accuracy,
// byte identity with the baseline driver on a prefix), then stream the same
// FASTQ text repeatedly through one timed session until --seconds have
// elapsed.  Every repetition must reproduce the check pass's SAM digest, and
// the session's work counters must be exactly repetitions x the check
// pass's.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <sstream>

#include "align/aligner.h"
#include "common.h"
#include "io/fastq.h"
#include "util/big_alloc.h"
#include "util/checksum.h"

namespace perfbench {

// ------------------------------------------------------------- statistics

double percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  q = std::clamp(q, 0.0, 1.0);
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  std::nth_element(v.begin(), v.begin() + static_cast<std::ptrdiff_t>(lo), v.end());
  const double a = v[lo];
  if (hi == lo) return a;
  const double b = *std::min_element(v.begin() + static_cast<std::ptrdiff_t>(lo) + 1, v.end());
  return a + (pos - static_cast<double>(lo)) * (b - a);
}

// ------------------------------------------------------------------ sinks

std::uint64_t chain_hash(std::uint64_t h, const std::string& line) {
  return (h ^ util::xxhash64(line.data(), line.size())) * 1099511628211ull;
}

void HashSink::add(const io::SamRecord& rec) {
  line_ = rec.to_line();
  line_ += '\n';
  digest_ = chain_hash(digest_, line_);
  bytes_ += line_.size();
  if (keep_) keep_->push_back(rec);
}

void HashSink::write_record(const io::SamRecord& record) {
  const std::int64_t t0 = now_ns();
  add(record);
  write_ns_ += now_ns() - t0;
}

void HashSink::write_records(std::vector<io::SamRecord>&& records) {
  const std::int64_t t0 = now_ns();
  for (const auto& rec : records) add(rec);
  const std::int64_t t1 = now_ns();
  write_ns_ += t1 - t0;
  std::lock_guard<std::mutex> lk(mu_);
  arrivals_.push_back(t1);
  if (segment_batches_ && arrivals_.size() % segment_batches_ == 0) {
    segments_.push_back(digest_);
    digest_ = kDigestSeed;
  }
}

// --------------------------------------------------------------- accuracy

void Accuracy::add_records(const std::vector<io::SamRecord>& records) {
  for (const auto& rec : records) {
    if (rec.flag & (io::kFlagSecondary | io::kFlagSupplementary)) continue;
    std::string contig;
    std::int64_t pos = -1;
    bool rev = false;
    if (rec.flag & io::kFlagPaired) {
      const seq::PairTruth t = seq::parse_pair_truth(rec.qname);
      if (!t.valid) continue;
      const bool r2 = (rec.flag & io::kFlagRead2) != 0;
      contig = t.contig;
      pos = r2 ? t.pos2 : t.pos1;
      rev = r2 ? t.reverse2 : t.reverse1;
    } else {
      const seq::ReadTruth t = seq::parse_truth(rec.qname);
      if (!t.valid) continue;
      contig = t.contig;
      pos = t.pos;
      rev = t.reverse;
    }
    const int s = rev ? 1 : 0;
    ++reads[s];
    if ((rec.flag & io::kFlagUnmapped) || rec.rname != contig) continue;
    const double off = static_cast<double>(rec.pos - 1 - pos);
    offsets[s].push_back(off);
    if (std::fabs(off) <= kTruthWindowBp) ++correct[s];
  }
}

double Accuracy::correct_frac() const {
  const auto n = reads[0] + reads[1];
  return n ? static_cast<double>(correct[0] + correct[1]) / static_cast<double>(n) : 0.0;
}

double Accuracy::strand_frac(int rev) const {
  return reads[rev] ? static_cast<double>(correct[rev]) / static_cast<double>(reads[rev])
                    : 0.0;
}

double Accuracy::median_offset(int rev) const { return median(offsets[rev]); }

// ---------------------------------------------------------------- metrics

const std::map<std::string, std::string>& metric_units() {
  static const std::map<std::string, std::string> kUnits = {
      // End to end.
      {"throughput_reads_s", "reads/s"},
      {"setup_s", "s"},
      {"peak_rss_mb", "MiB"},
      {"latency_p50_ms", "ms"},
      {"latency_p95_ms", "ms"},
      {"goodput_frac", "frac"},
      {"mapped_correct_frac", "frac"},
      // Per layer.
      {"index.load_s", "s"},
      {"index.bytes", "bytes"},
      {"io.fastq_parse_s", "s"},
      {"io.sam_write_s", "s"},
      {"io.sam_bytes", "bytes"},
      {"smem.busy_s", "s"},
      {"smem.occ_loads", "count"},
      {"smem.ns_per_occ_load", "ns"},
      {"smem.smems", "count"},
      {"sal.busy_s", "s"},
      {"sal.lookups", "count"},
      {"chain.busy_s", "s"},
      {"chain.seeds", "count"},
      {"chain.chains_built", "count"},
      {"chain.chains_kept", "count"},
      {"bsw.busy_s", "s"},
      {"bsw.jobs", "count"},
      {"bsw.cells_total", "count"},
      {"bsw.cells_useful_frac", "frac"},
      {"bsw.gcells_s", "Gcell/s"},
      {"bsw.extra_ext_frac", "frac"},
      {"align.bsw_prep_s", "s"},
      {"align.region_finalize_s", "s"},
      {"align.sam_format_s", "s"},
      {"align.regions", "count"},
      {"pair.calibrate_s", "s"},
      {"pair.busy_s", "s"},
      {"pair.rescue_windows", "count"},
      {"pair.rescue_jobs", "count"},
      {"pair.rescue_hit_frac", "frac"},
      {"pair.proper_frac", "frac"},
      {"serve.admission_wait_ms", "ms"},
      {"serve.queue_wait_p50_ms", "ms"},
      {"serve.queue_wait_p95_ms", "ms"},
      {"serve.batch_latency_p95_ms", "ms"},
      {"serve.worker_busy_frac", "frac"},
      {"serve.refused", "count"},
      {"gen.late_p95_ms", "ms"},
      {"paper.kernel_share", "frac"},
      {"trace_overhead_frac", "frac"},
      {"accuracy.fwd_correct_frac", "frac"},
      {"accuracy.rev_correct_frac", "frac"},
      {"accuracy.fwd_offset_bp", "bp"},
      {"accuracy.rev_offset_bp", "bp"},
  };
  return kUnits;
}

const std::vector<std::string>& end_to_end_names() {
  static const std::vector<std::string> kNames = {
      "throughput_reads_s", "setup_s",        "peak_rss_mb",
      "latency_p50_ms",     "latency_p95_ms", "goodput_frac",
      "mapped_correct_frac"};
  return kNames;
}

const std::vector<std::string>& per_layer_names() {
  static const std::vector<std::string> kNames = [] {
    std::vector<std::string> v;
    const auto& e2e = end_to_end_names();
    for (const auto& [name, unit] : metric_units())
      if (std::find(e2e.begin(), e2e.end(), name) == e2e.end()) v.push_back(name);
    return v;
  }();
  return kNames;
}

// ------------------------------------------------------------------ setup

Setup load_index_timed(const RunArgs& a,
                       const std::function<void(const index::Mem2Index&)>& construct) {
  Setup s;
  std::vector<double> setup, load;
  const std::string path = index_path(a.data_dir, a.workload->genome_len);
  // kMinSetups set-ups whatever they cost, and more (up to kMaxSetups)
  // while they are cheap, so the median is not one noisy sample.
  double spent = 0;
  for (int r = 0; r < kMinSetups || (r < kMaxSetups && spent < 4.0); ++r) {
    s.index.reset();  // one index resident at a time
    const std::int64_t t0 = now_ns();
    s.index = std::make_unique<index::Mem2Index>(index::load_index(path));
    const double t_load = seconds_since(t0);
    construct(*s.index);
    setup.push_back(seconds_since(t0));
    load.push_back(t_load);
    spent += setup.back();
  }
  s.setup_s = median(setup);
  s.load_s = median(load);
  std::printf("# set-up seconds:");
  for (double t : setup) std::printf(" %.3f", t);
  std::printf("\n");
  return s;
}

// ------------------------------------------------------ single-end passes

std::vector<std::uint64_t> work_signature(const align::DriverStats& st) {
  const auto& c = st.counters;
  return {st.reads,           c.occ_bucket_loads, c.backward_exts, c.forward_exts,
          c.smems_found,      c.sa_lookups,       c.bsw_pairs,     c.bsw_cells_total,
          c.bsw_cells_useful, c.bsw_aborted_pairs, c.pe_rescue_windows,
          c.pe_rescue_jobs,   c.pe_rescue_hits,   c.pe_proper_pairs,
          st.extensions_computed, st.extensions_used};
}

namespace {

struct PassOut {
  align::Status status;
  std::uint64_t digest = 0;
  std::uint64_t sam_bytes = 0;
  std::uint64_t reads = 0;
  double wall_s = 0;
  align::DriverStats stats;
};

/// One pass over the FASTQ text through the public front doors: parse with
/// io::FastqStream in batch-sized chunks, submit to a fresh Stream, hash
/// the SAM in the sink.
PassOut run_pass(const align::Aligner& aligner, const std::string& fastq,
                 std::vector<io::SamRecord>* keep) {
  PassOut out;
  HashSink sink(keep);
  const std::size_t chunk_reads = static_cast<std::size_t>(aligner.options().batch_size);
  const std::int64_t t0 = now_ns();
  {
    align::Stream stream = aligner.open(sink);
    std::istringstream in(fastq);
    io::FastqStream fq(in);
    std::vector<seq::Read> chunk;
    while (fq.next_chunk(chunk, chunk_reads) > 0) {
      out.reads += chunk.size();
      if (!stream.submit(std::move(chunk)).ok()) break;  // finish() reports it
      chunk = {};
    }
    out.status = stream.finish();
    out.stats = stream.stats();
  }
  out.wall_s = seconds_since(t0);
  out.digest = sink.digest();
  out.sam_bytes = sink.bytes();
  return out;
}

/// At least this many latency samples per run, so ten lie beyond p95.
inline constexpr std::size_t kMinLatencySamples = 200;

struct TimedStream {
  align::Status status;
  std::uint64_t reads = 0;
  std::uint64_t reps = 0;
  std::vector<std::uint64_t> rep_digests;
  std::vector<double> batch_latency_ms;
  std::vector<double> window_tput;  // reads/s per window of kWindowBatches
  align::DriverStats stats;
};

/// Batches per throughput window of the timed session (4096 reads at the
/// SE batch size): short enough for a few dozen windows per run, long
/// enough to smooth the ordered writer's bursts.
inline constexpr std::size_t kWindowBatches = 8;

/// The timed run: one Stream, fed the FASTQ text again and again (each
/// repetition parsed afresh by io::FastqStream) until `seconds` have passed
/// and at least kMinLatencySamples batches were submitted.  One long
/// session measures the steady state a flow-cell-sized input sees, without
/// per-session fill and drain.  Throughput is taken per window of
/// consecutive batches from the sink's arrival times; the first window
/// (pipeline fill) is dropped.
TimedStream run_timed_stream(const align::Aligner& aligner, const SeInputs& inputs,
                             double seconds) {
  TimedStream out;
  const std::size_t batch = static_cast<std::size_t>(aligner.options().batch_size);
  if (inputs.n_reads % batch != 0)
    throw std::runtime_error("reads per repetition must fill whole batches");
  HashSink sink;
  sink.segment_every(inputs.n_reads / batch);
  std::vector<std::int64_t> submitted;
  {
    align::Stream stream = aligner.open(sink);
    const std::int64_t t0 = now_ns();
    while (out.status.ok() &&
           (out.reps < 2 || seconds_since(t0) < seconds ||
            (submitted.size() < kMinLatencySamples && seconds_since(t0) < 2.5 * seconds))) {
      std::istringstream in(inputs.fastq);
      io::FastqStream fq(in);
      for (;;) {
        std::vector<seq::Read> chunk;
        const std::size_t n = fq.next_chunk(chunk, batch);
        if (n == 0) break;
        out.reads += n;
        submitted.push_back(now_ns());
        if (out.status = stream.submit(std::move(chunk)); !out.status.ok()) break;
      }
      ++out.reps;
    }
    const align::Status fin = stream.finish();
    if (out.status.ok()) out.status = fin;
    out.stats = stream.stats();
  }
  out.rep_digests = sink.segment_digests();
  const auto arrivals = sink.batch_arrivals();
  for (std::size_t i = 0; i < std::min(arrivals.size(), submitted.size()); ++i)
    out.batch_latency_ms.push_back(static_cast<double>(arrivals[i] - submitted[i]) * 1e-6);
  for (std::size_t k = kWindowBatches; k + kWindowBatches < arrivals.size(); k += kWindowBatches)
    out.window_tput.push_back(static_cast<double>(kWindowBatches * batch) /
                              (static_cast<double>(arrivals[k + kWindowBatches] - arrivals[k]) * 1e-9));
  return out;
}

/// Byte identity with the scalar baseline driver on the first `n` reads:
/// the timed driver's records for those reads (a prefix of `records`, which
/// arrive in read order) must equal the baseline's line for line.
bool baseline_prefix_matches(const index::Mem2Index& index,
                             const align::DriverOptions& opts, const std::string& fastq,
                             std::size_t n, const std::vector<io::SamRecord>& records,
                             std::string* why) {
  auto reads = parse_fastq_text(fastq);
  reads.resize(std::min(n, reads.size()));
  align::DriverOptions bopt = opts;
  bopt.mode = align::Mode::kBaseline;
  bopt.threads = 1;
  bopt.pipeline_workers = 0;
  align::Aligner base(index, bopt);
  align::CollectSamSink sink;
  if (align::Status st = base.align(reads, sink); !st.ok()) {
    *why = "baseline driver failed: " + st.message();
    return false;
  }
  const auto& want = sink.records();
  if (want.size() > records.size()) {
    *why = "timed run emitted fewer records than the baseline prefix";
    return false;
  }
  for (std::size_t i = 0; i < want.size(); ++i)
    if (want[i].to_line() != records[i].to_line()) {
      *why = "SAM differs from the baseline driver at record " + std::to_string(i) +
             " (" + want[i].qname + ")";
      return false;
    }
  // The record after the prefix must belong to a later read.
  if (want.size() < records.size() && !reads.empty() &&
      records[want.size()].qname == reads.back().name) {
    *why = "timed run emitted extra records for the baseline prefix";
    return false;
  }
  return true;
}

inline constexpr std::size_t kBaselinePrefixReads = 256;

}  // namespace

Result run_single_end(const RunArgs& a) {
  const Workload& w = *a.workload;
  Result res;
  const align::DriverOptions opts = driver_options(w, false);

  Setup setup = load_index_timed(a, [&](const index::Mem2Index& idx) {
    align::Aligner probe(idx, opts);
    if (!probe.ok()) throw std::runtime_error("Aligner: " + probe.status().message());
  });
  const index::Mem2Index& index = *setup.index;
  const align::Aligner aligner(index, opts);

  const SeInputs inputs = make_se_inputs(index, w, a.seed, w.reads_per_pass);

  // Untimed check pass: keeps every record.
  std::vector<io::SamRecord> records;
  const PassOut check = run_pass(aligner, inputs.fastq, &records);
  res.attempted += check.reads;
  if (!check.status.ok()) {
    res.failed += check.reads;
    res.fail("check pass failed: " + check.status.message());
    return res;
  }
  if (check.reads != inputs.n_reads) res.fail("check pass lost reads");
  std::string why;
  if (!baseline_prefix_matches(index, opts, inputs.fastq, kBaselinePrefixReads, records,
                               &why))
    res.fail(why);
  Accuracy acc;
  acc.add_records(records);
  records.clear();
  records.shrink_to_fit();
  const auto signature = work_signature(check.stats);

  std::printf("# %s seed=%llu reads/pass=%zu digest=%016llx\n", w.name.c_str(),
              static_cast<unsigned long long>(a.seed), inputs.n_reads,
              static_cast<unsigned long long>(check.digest));
  std::printf("# accuracy (primary within +-%d bp of truth): fwd %.4f (median offset %+.1f bp)"
              ", rev %.4f (median offset %+.1f bp)\n",
              kTruthWindowBp, acc.strand_frac(0), acc.median_offset(0),
              acc.strand_frac(1), acc.median_offset(1));
  const auto& c = check.stats.counters;
  std::printf("# work/pass: occ_loads=%llu sa_lookups=%llu smems=%llu bsw_jobs=%llu "
              "bsw_cells=%llu used_jobs=%llu\n",
              static_cast<unsigned long long>(c.occ_bucket_loads),
              static_cast<unsigned long long>(c.sa_lookups),
              static_cast<unsigned long long>(c.smems_found),
              static_cast<unsigned long long>(check.stats.extensions_computed),
              static_cast<unsigned long long>(c.bsw_cells_total),
              static_cast<unsigned long long>(check.stats.extensions_used));

  if (a.trace) {
    // Traced layer replay: must reproduce the timed driver's SAM digest and
    // work counters, or its per-layer numbers describe another program.
    util::Tracer& tracer = util::Tracer::instance();
    tracer.enable();
    const ReplayOutcome r = replay_single_end(index, opts, inputs.fastq, 1);
    tracer.disable();
    const auto& rc = r.counters;
    const bool same_work =
        rc.occ_bucket_loads == c.occ_bucket_loads && rc.smems_found == c.smems_found &&
        rc.sa_lookups == c.sa_lookups && rc.forward_exts == c.forward_exts &&
        rc.backward_exts == c.backward_exts && rc.bsw_pairs == c.bsw_pairs &&
        rc.bsw_cells_total == c.bsw_cells_total &&
        rc.bsw_cells_useful == c.bsw_cells_useful &&
        r.jobs == check.stats.extensions_computed &&
        r.jobs_used == check.stats.extensions_used && r.reads == check.stats.reads;
    if (r.digest != check.digest) res.fail("replay SAM digest differs from the timed run");
    if (!same_work) res.fail("replay work counters differ from the driver's DriverStats");
    if (tracer.dropped()) res.fail("the tracer dropped spans");
    std::printf("# replay: digest %s, work counters %s; seeds=%llu chains built=%llu "
                "kept=%llu regions=%llu\n",
                r.digest == check.digest ? "match" : "MISMATCH",
                same_work ? "match" : "MISMATCH",
                static_cast<unsigned long long>(r.seeds),
                static_cast<unsigned long long>(r.chains_built),
                static_cast<unsigned long long>(r.chains_kept),
                static_cast<unsigned long long>(r.regions));
    layer_metrics_from_replay(tracer.aggregate(), r, res.metrics);
    const std::string trace_path =
        a.data_dir + "/trace-" + w.name + "-" + std::to_string(a.seed) + ".json";
    if (tracer.write_chrome_trace_file(trace_path))
      std::printf("# spans: %llu written to %s\n",
                  static_cast<unsigned long long>(tracer.recorded()), trace_path.c_str());

    // Tracing overhead: the replay with the tracer on against the same
    // replay with it off, alternated.  The one-worker pipeline (the same
    // single-threaded work through the Stream front door, untraced) is
    // timed alongside and printed for comparison.
    align::DriverOptions one = opts;
    one.threads = 1;
    const align::Aligner aligner1(index, one);
    std::vector<double> traced_tput, plain_tput, pipeline_tput;
    const std::int64_t t0 = now_ns();
    for (int rep = 0; rep < 2 || (seconds_since(t0) < a.seconds && rep < 20); ++rep) {
      const ReplayOutcome plain = replay_single_end(index, opts, inputs.fastq, 1);
      plain_tput.push_back(static_cast<double>(plain.reads) / plain.wall_s);
      tracer.enable();
      const ReplayOutcome traced = replay_single_end(index, opts, inputs.fastq, 1);
      tracer.disable();
      traced_tput.push_back(static_cast<double>(traced.reads) / traced.wall_s);
      const PassOut p = run_pass(aligner1, inputs.fastq, nullptr);
      if (p.digest != check.digest || plain.digest != check.digest)
        res.fail("an untraced repetition's digest differs");
      pipeline_tput.push_back(static_cast<double>(p.reads) / p.wall_s);
    }
    std::printf("# reads/s, medians: traced replay %.0f, untraced replay %.0f, one-worker "
                "Stream %.0f\n",
                median(traced_tput), median(plain_tput), median(pipeline_tput));
    res.metrics["trace_overhead_frac"] = 1.0 - median(traced_tput) / median(plain_tput);
    res.metrics["index.load_s"] = setup.load_s;
    res.metrics["index.bytes"] = static_cast<double>(index.memory_bytes());
    res.metrics["io.sam_bytes"] = static_cast<double>(check.sam_bytes);
    res.metrics["accuracy.fwd_correct_frac"] = acc.strand_frac(0);
    res.metrics["accuracy.rev_correct_frac"] = acc.strand_frac(1);
    res.metrics["accuracy.fwd_offset_bp"] = acc.median_offset(0);
    res.metrics["accuracy.rev_offset_bp"] = acc.median_offset(1);
    return res;
  }

  // Timed run: one streaming session fed the same FASTQ text repeatedly.
  const TimedStream ts = run_timed_stream(aligner, inputs, a.seconds);
  res.attempted += ts.reads;
  if (!ts.status.ok()) {
    res.failed += ts.reads;
    res.fail("timed session failed: " + ts.status.message());
  }
  for (std::uint64_t d : ts.rep_digests)
    if (d != check.digest) res.fail("a repetition's SAM digest drifted from the check pass");
  if (ts.rep_digests.size() != ts.reps) res.fail("a repetition's SAM output is missing");
  {
    // Counters are deterministic per input, so the session total must be
    // exactly reps x the check pass's.
    auto want = signature;
    for (auto& v : want) v *= ts.reps;
    if (work_signature(ts.stats) != want)
      res.fail("work counters drifted between repetitions of one input");
  }
  std::uint64_t batches_ok = 0;
  for (double ms : ts.batch_latency_ms) batches_ok += ms <= w.latency_limit_ms;
  const std::vector<double>& tput = ts.window_tput;
  const std::vector<double>& latency_ms = ts.batch_latency_ms;
  std::printf("# timed session: %llu repetitions, %zu batches, %zu windows; reads/s per window:",
              static_cast<unsigned long long>(ts.reps), latency_ms.size(), tput.size());
  for (double t : tput) std::printf(" %.0f", t);
  std::printf("\n");
  const double batches = static_cast<double>(ts.reads) / w.batch_size;

  res.metrics["throughput_reads_s"] = median(tput);
  res.metrics["setup_s"] = setup.setup_s;
  res.metrics["peak_rss_mb"] =
      static_cast<double>(util::peak_rss_bytes()) / (1024.0 * 1024.0);
  res.metrics["latency_p50_ms"] = percentile(latency_ms, 0.50);
  res.metrics["latency_p95_ms"] = percentile(latency_ms, 0.95);
  res.metrics["goodput_frac"] = batches > 0 ? static_cast<double>(batches_ok) / batches : 0.0;
  res.metrics["mapped_correct_frac"] = acc.correct_frac();
  return res;
}

}  // namespace perfbench
