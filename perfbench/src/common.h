// Shared pieces of the repository benchmark (mem2_perfbench).
//
// The benchmark drives the aligner only through its public front doors
// (index::load_index, io::FastqStream, align::Aligner/Stream,
// serve::AlignService/ServiceStream) and a benchmark-owned SamSink that
// formats and hashes SAM bytes without touching disk.  A separate traced
// run replays each batch through the layers' public functions and records
// one span per call (replay.cpp).
#pragma once

#include <chrono>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "align/driver.h"
#include "align/sam_sink.h"
#include "index/mem2_index.h"
#include "seq/genome_sim.h"
#include "seq/read_sim.h"
#include "util/trace.h"

namespace perfbench {

using namespace mem2;

// ------------------------------------------------------------------ clock

using Clock = std::chrono::steady_clock;

inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

inline double seconds_since(std::int64_t t0_ns) {
  return static_cast<double>(now_ns() - t0_ns) * 1e-9;
}

// -------------------------------------------------------------- workloads

enum class Kind { kSingleEnd, kServed };

/// One named workload.  The reference is fixed per workload (part of its
/// definition); the reads come from the run's --seed.
struct Workload {
  std::string name;
  Kind kind = Kind::kSingleEnd;
  std::int64_t genome_len = 0;  // bench reference length (bp)
  int read_length = 0;
  int reads_per_pass = 0;       // SE: reads aligned per timed pass
  int workers = 2;              // pipeline (SE) or service (served) workers
  int batch_size = 512;
  // Served only.
  double rate_per_s = 0;        // fixed absolute open-loop request rate
  int clients = 2;              // client threads issuing requests
  int se_payload_reads = 0;     // reads per SE request
  int pe_payload_pairs = 0;     // pairs per PE request
  int se_payloads = 0;          // distinct SE payloads in the pool
  int pe_payloads = 0;          // distinct PE payloads in the pool
  double latency_limit_ms = 0;  // goodput limit (served: per request,
                                // SE: per batch)
};

const Workload* find_workload(const std::string& name);
const std::vector<Workload>& all_workloads();

/// Deterministic bench reference for a workload's genome length.
seq::GenomeConfig genome_config(std::int64_t genome_len);

/// Path of the cached index for a genome length under `data_dir`.
std::string index_path(const std::string& data_dir, std::int64_t genome_len);

/// Build and save the index if the cache is missing (atomic rename), in a
/// process of its own so the build never shows in a measured process's
/// peak RSS.  Returns false on failure.
bool prepare_index(const std::string& data_dir, std::int64_t genome_len);

/// FASTQ text of `n_reads` simulated SE reads of a workload for `seed`.
struct SeInputs {
  std::string fastq;
  std::size_t n_reads = 0;
};
SeInputs make_se_inputs(const index::Mem2Index& index, const Workload& w,
                        std::uint64_t seed, int n_reads);

struct Payload {
  bool paired = false;
  std::string fastq;  // the only thing the program receives
  std::size_t n_reads = 0;
};
std::vector<Payload> make_served_payloads(const index::Mem2Index& index,
                                          const Workload& w, std::uint64_t seed);

/// Request i of the served workload's open loop: which payload it sends.
std::vector<int> make_request_plan(const Workload& w, std::uint64_t seed,
                                   std::size_t n_requests);

/// Parse FASTQ text through the public streaming parser.
std::vector<seq::Read> parse_fastq_text(const std::string& text);

/// Driver options of a workload (what `mem2_cli mem -t <workers>` runs).
align::DriverOptions driver_options(const Workload& w, bool paired);

// ------------------------------------------------------------- statistics

/// Linear-interpolation percentile (q in [0, 1]) of a sample; 0 when empty.
double percentile(std::vector<double> v, double q);
inline double median(std::vector<double> v) { return percentile(std::move(v), 0.5); }

// ------------------------------------------------------------------ sinks

/// FNV-1a style chaining over per-record xxhash64, so the digest depends
/// only on the record byte stream, never on batch boundaries.
inline constexpr std::uint64_t kDigestSeed = 1469598103934665603ull;
std::uint64_t chain_hash(std::uint64_t h, const std::string& line);

/// The benchmark's SamSink: formats every record as its SAM line and
/// hashes the bytes; optionally keeps the records (check passes) and the
/// time each batch reached the sink (SE batch latency).
class HashSink final : public align::SamSink {
 public:
  explicit HashSink(std::vector<io::SamRecord>* keep = nullptr) : keep_(keep) {}

  void write_header(const std::string&) override {}  // records only
  void write_record(const io::SamRecord& record) override;
  void write_records(std::vector<io::SamRecord>&& records) override;

  std::uint64_t digest() const { return digest_; }
  std::uint64_t bytes() const { return bytes_; }
  double write_seconds() const { return write_ns_ * 1e-9; }
  /// steady-clock ns at which each bulk write (one retired batch) arrived.
  std::vector<std::int64_t> batch_arrivals() const {
    std::lock_guard<std::mutex> lk(mu_);
    return arrivals_;
  }
  /// Restart the digest every `batches` bulk writes, keeping each finished
  /// segment's digest (one segment per repetition of an input).
  void segment_every(std::size_t batches) { segment_batches_ = batches; }
  const std::vector<std::uint64_t>& segment_digests() const { return segments_; }

 private:
  void add(const io::SamRecord& rec);

  std::vector<io::SamRecord>* keep_;
  std::string line_;
  std::uint64_t digest_ = kDigestSeed;
  std::uint64_t bytes_ = 0;
  std::int64_t write_ns_ = 0;
  std::size_t segment_batches_ = 0;
  std::vector<std::uint64_t> segments_;
  mutable std::mutex mu_;
  std::vector<std::int64_t> arrivals_;
};

// --------------------------------------------------------------- accuracy

/// Primary-alignment accuracy against the simulator truth encoded in the
/// read names.  A read is correct when its primary record maps to the true
/// contig with a leftmost position within kTruthWindowBp of the label.
/// Offsets are reported per strand so a systematic label shift shows
/// instead of hiding inside the window.
inline constexpr int kTruthWindowBp = 5;

struct Accuracy {
  std::uint64_t reads[2] = {0, 0};    // [reverse]
  std::uint64_t correct[2] = {0, 0};
  std::vector<double> offsets[2];     // mapped, same contig: pos - truth

  void add_records(const std::vector<io::SamRecord>& records);
  double correct_frac() const;
  double strand_frac(int rev) const;
  double median_offset(int rev) const;
};

// ---------------------------------------------------------------- metrics

/// Metric values by name; units live in one table (metric_units()).
using Metrics = std::map<std::string, double>;

/// Result of one benchmark invocation.
struct Result {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  Metrics metrics;
  std::vector<std::string> problems;  // why `correct` is false

  void fail(const std::string& why) {
    correct = false;
    problems.push_back(why);
  }
};

/// The metric names every run prints: end-to-end (trace 0) or per-layer
/// (trace 1).  Fixed per build; the same for every workload and seed.
const std::vector<std::string>& end_to_end_names();
const std::vector<std::string>& per_layer_names();

/// Unit of every metric name the benchmark prints.
const std::map<std::string, std::string>& metric_units();

/// The work counters that must repeat exactly for one input, whatever the
/// scheduling: everything but prefetch and skip counts.
std::vector<std::uint64_t> work_signature(const align::DriverStats& st);

// ------------------------------------------------------------- workloads

struct RunArgs {
  const Workload* workload = nullptr;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string data_dir;
};

/// Loads the workload's index at least kMinSetups times, and up to
/// kMaxSetups while the set-ups stay cheap (each load plus front-door
/// construction timed), and keeps the last one with the median times.
inline constexpr int kMinSetups = 5;
inline constexpr int kMaxSetups = 9;
struct Setup {
  std::unique_ptr<index::Mem2Index> index;
  double setup_s = 0;    // median of index load + front-door construction
  double load_s = 0;     // median of index load alone
};
Setup load_index_timed(const RunArgs& a,
                       const std::function<void(const index::Mem2Index&)>& construct);

Result run_single_end(const RunArgs& a);
Result run_served(const RunArgs& a);

/// The SE layer replay (replay.cpp).  Replays `reads` in batches through
/// the layers' public functions; fills layer metrics and the replay's SAM
/// digest and work counters.
struct ReplayOutcome {
  std::uint64_t digest = kDigestSeed;
  util::SwCounters counters;
  std::uint64_t jobs = 0;        // BSW jobs executed
  std::uint64_t jobs_used = 0;   // jobs the decision logic consumed
  std::uint64_t seeds = 0;
  std::uint64_t chains_built = 0;
  std::uint64_t chains_kept = 0;
  std::uint64_t regions = 0;
  std::uint64_t reads = 0;
  double wall_s = 0;
};
///
/// Spans go to the program's own util::Tracer, so they are recorded only
/// while it is enabled.  The spans of batch b carry the Chrome pid
/// `pid_base + b`; every span but `fastq-parse` nests inside its `batch`.
ReplayOutcome replay_single_end(const index::Mem2Index& index,
                                const align::DriverOptions& options,
                                const std::string& fastq, std::uint32_t pid_base);

/// Layer metrics from the tracer's per-name totals over one or more
/// replays and their summed counters.  A layer's busy time is its spans'
/// self time; the replay's spans nest only under `batch`, so that is the
/// per-name total, and the batch's own time is its total minus its
/// children's.
void layer_metrics_from_replay(const std::vector<util::TraceAgg>& spans,
                               const ReplayOutcome& r, Metrics& m);

// ------------------------------------------------------------ open loop

/// One request of an open-loop run: due, start and end on the steady clock.
struct RequestTiming {
  std::int64_t due_ns = 0;
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  bool ok = false;
};

/// Issues request i at t0 + i / rate for every i with a due time inside
/// `seconds` (at least `min_requests`), on `clients` threads: a request
/// starts when it is due or, if every client is busy, as soon as one
/// frees.  Latency counts from the due time; lateness is start - due.
std::vector<RequestTiming> run_open_loop(
    double rate_per_s, double seconds, std::size_t min_requests, int clients,
    const std::function<bool(std::size_t)>& handler);

/// Closed loop: `clients` threads issue requests 0, 1, 2, ... back to back
/// (each starts as soon as its client's previous one ends) until `seconds`
/// have passed; every client issues at least one.  Returns the timings of
/// every issued request in index order, with due = start.
std::vector<RequestTiming> run_closed_loop(
    double seconds, int clients, const std::function<bool(std::size_t)>& handler);

/// Self-tests of the benchmark's own helpers; returns the failure count.
int run_selftests(const std::string& data_dir);

}  // namespace perfbench
