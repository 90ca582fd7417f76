// The traced layer replay of the single-end pipeline.
//
// Each batch goes through the layers' public functions in the batch
// driver's order, one span per call, on one thread:
//
//   fastq-parse   io::FastqStream::next_chunk
//   smem          smem::SmemExecutor::collect (groups of 64 reads)
//   sal           smem::SmemExecutor::gather_seeds
//   chain         chain::repetitive_fraction / build_chains / filter_chains
//   bsw-prep      align::make_chain_ref, make_left_job / make_right_job
//   bsw           bsw::BswExecutor::run (four rounds: left, left retry,
//                 right, right retry)
//   region-finalize  align::process_chains over the precomputed table,
//                 sort_dedup_regions, mark_primary
//   sam-format    align::regions_to_sam
//   sam-write     SAM line formatting + hashing (the benchmark's sink)
//
// The batch span's own time (query encoding, bookkeeping) is the rest.
// Spans go to util::Tracer, with the batch's Chrome pid.  The replay's SAM
// digest and work counters must equal the timed driver's (measure.cpp
// checks), so the per-layer numbers describe the same program.
//
// No public function runs the batch driver's extension schedule, so the
// round order, the 64-read SMEM group and left_final_score below repeat
// src/align/pipeline_batch.cpp.  A change there makes the job-count check
// fail until this file follows it.
#include <algorithm>
#include <sstream>

#include "align/extend.h"
#include "align/sam_format.h"
#include "bsw/bsw_executor.h"
#include "chain/chain.h"
#include "common.h"
#include "io/fastq.h"
#include "seq/dna.h"
#include "smem/smem_executor.h"
#include "util/prefetch.h"

namespace perfbench {

namespace {

struct SeedResults {
  bsw::KswResult res[2][2];  // [side][band_try]
  bool have[2][2] = {{false, false}, {false, false}};
};

struct ReadState {
  std::vector<seq::Code> query, query_rev;
  std::vector<smem::Smem> smems;
  std::vector<chain::Seed> seeds;
  std::vector<chain::Chain> chains;
  std::vector<align::ChainRef> crefs;
  std::vector<std::vector<SeedResults>> table;  // [chain][seed]
  std::vector<align::AlnReg> regs;
  std::vector<io::SamRecord> records;
  std::uint64_t used = 0;
};

struct JobRef {
  std::uint32_t read, chain, seed;
  std::uint8_t side, bt;
};

/// Replays extensions out of a read's precomputed table, counting the ones
/// the decision logic consumes.
class TableSource final : public align::SeedExtendSource {
 public:
  explicit TableSource(ReadState& rs) : rs_(rs) {}
  bsw::KswResult extend(int chain_idx, int seed_idx, int side, int band_try,
                        const bsw::ExtendJob&) override {
    const auto& e = rs_.table[static_cast<std::size_t>(chain_idx)]
                             [static_cast<std::size_t>(seed_idx)];
    if (!e.have[side][band_try])
      throw std::runtime_error("replay: missing precomputed extension");
    ++rs_.used;
    return e.res[side][band_try];
  }
  const align::ChainRef* chain_ref(int chain_idx) override {
    return &rs_.crefs[static_cast<std::size_t>(chain_idx)];
  }

 private:
  ReadState& rs_;
};

int left_final_score(const SeedResults& e, const chain::Seed& s, int a) {
  if (s.qbeg == 0) return s.len * a;
  if (e.have[0][1]) return e.res[0][1].score;
  if (e.have[0][0]) return e.res[0][0].score;
  return s.len * a;
}

}  // namespace

ReplayOutcome replay_single_end(const index::Mem2Index& index,
                                const align::DriverOptions& options,
                                const std::string& fastq, std::uint32_t pid_base) {
  ReplayOutcome out;
  const align::MemOptions& mopt = options.mem;
  const util::PrefetchPolicy prefetch{options.prefetch};
  smem::SmemExecutor smem_exec(options.smem_inflight);
  bsw::BswExecutor executor(1);
  util::CounterCapture capture;

  std::istringstream in(fastq);
  io::FastqStream fq(in);
  std::vector<seq::Read> reads;
  std::vector<ReadState> states;
  std::vector<bsw::ExtendJob> jobs;
  std::vector<JobRef> refs, prev_refs;
  std::vector<bsw::KswResult> results;
  std::string line;

  const std::int64_t t0 = now_ns();
  for (std::size_t b = 0;; ++b) {
    const std::uint32_t id = pid_base + static_cast<std::uint32_t>(b);
    std::size_t nb = 0;
    {
      util::TraceSpan s("fastq-parse", id);
      nb = fq.next_chunk(reads, static_cast<std::size_t>(options.batch_size));
    }
    if (nb == 0) break;
    util::TraceSpan batch("batch", id);
    out.reads += nb;
    if (states.size() < nb) states.resize(nb);
    for (std::size_t i = 0; i < nb; ++i) {
      ReadState& rs = states[i];
      const std::string& bases = reads[i].bases;
      rs.query.resize(bases.size());
      rs.query_rev.assign(bases.size(), 0);
      for (std::size_t j = 0; j < bases.size(); ++j) rs.query[j] = seq::char_to_code(bases[j]);
      rs.chains.clear();
      rs.crefs.clear();
      rs.table.clear();
      rs.regs.clear();
      rs.used = 0;
    }

    {
      util::TraceSpan s("smem", id);
      constexpr std::size_t kGroup = 64;  // the batch driver's group size
      smem::QueryRef qrefs[kGroup];
      for (std::size_t beg = 0; beg < nb; beg += kGroup) {
        const std::size_t end = std::min(nb, beg + kGroup);
        for (std::size_t i = beg; i < end; ++i)
          qrefs[i - beg] = smem::QueryRef{states[i].query, &states[i].smems};
        smem_exec.collect(index.fm32(), std::span(qrefs, end - beg), mopt.seeding, prefetch);
      }
    }
    {
      util::TraceSpan s("sal", id);
      for (std::size_t i = 0; i < nb; ++i)
        smem::SmemExecutor::gather_seeds(states[i].smems, mopt.chaining, index.flat_sa(),
                                         states[i].seeds);
    }
    {
      util::TraceSpan s("chain", id);
      for (std::size_t i = 0; i < nb; ++i) {
        ReadState& rs = states[i];
        const int l_query = static_cast<int>(rs.query.size());
        const double frac_rep =
            chain::repetitive_fraction(rs.smems, l_query, mopt.chaining.max_occ);
        rs.chains = chain::build_chains(index.ref(), index.l_pac(), rs.seeds, l_query,
                                        mopt.chaining, frac_rep);
        out.seeds += rs.seeds.size();
        out.chains_built += rs.chains.size();
        chain::filter_chains(rs.chains, mopt.chaining);
        out.chains_kept += rs.chains.size();
      }
    }

    auto context = [&](ReadState& rs) {
      return align::ExtendContext{mopt, index, rs.query, rs.query_rev};
    };
    auto run_round = [&]() {
      util::TraceSpan s("bsw", id);
      executor.run(jobs, results, mopt.ksw, options.bsw, nullptr);
      for (std::size_t j = 0; j < jobs.size(); ++j) {
        const JobRef& r = refs[j];
        auto& e = states[r.read].table[r.chain][r.seed];
        e.res[r.side][r.bt] = results[j];
        e.have[r.side][r.bt] = true;
      }
      out.jobs += jobs.size();
    };
    auto push = [&](const bsw::ExtendJob& job, JobRef ref) {
      jobs.push_back(job);
      refs.push_back(ref);
    };

    {
      util::TraceSpan s("bsw-prep", id);
      jobs.clear();
      refs.clear();
      for (std::size_t i = 0; i < nb; ++i) {
        ReadState& rs = states[i];
        if (rs.chains.empty()) continue;
        for (std::size_t j = 0; j < rs.query.size(); ++j)
          rs.query_rev[rs.query.size() - 1 - j] = rs.query[j];
        const auto ctx = context(rs);
        rs.table.resize(rs.chains.size());
        for (std::size_t ci = 0; ci < rs.chains.size(); ++ci) {
          rs.crefs.push_back(align::make_chain_ref(ctx, rs.chains[ci]));
          rs.table[ci].assign(rs.chains[ci].seeds.size(), SeedResults{});
        }
        // Round L1 jobs.
        for (std::size_t ci = 0; ci < rs.chains.size(); ++ci)
          for (std::size_t si = 0; si < rs.chains[ci].seeds.size(); ++si) {
            const chain::Seed& sd = rs.chains[ci].seeds[si];
            if (sd.qbeg == 0) continue;
            const auto job = align::make_left_job(ctx, rs.crefs[ci], sd, mopt.w);
            if (job.tlen == 0) continue;
            push(job, {static_cast<std::uint32_t>(i), static_cast<std::uint32_t>(ci),
                       static_cast<std::uint32_t>(si), 0, 0});
          }
      }
    }
    run_round();
    {
      util::TraceSpan s("bsw-prep", id);  // round L2: band-doubling retries
      prev_refs.swap(refs);
      jobs.clear();
      refs.clear();
      for (const JobRef& r : prev_refs) {
        ReadState& rs = states[r.read];
        const auto& r1 = rs.table[r.chain][r.seed].res[0][0];
        if (!align::band_retry_needed(r1.score, -1, r1.max_off, mopt.w)) continue;
        const chain::Seed& sd = rs.chains[r.chain].seeds[r.seed];
        push(align::make_left_job(context(rs), rs.crefs[r.chain], sd, mopt.w << 1),
             {r.read, r.chain, r.seed, 0, 1});
      }
    }
    run_round();
    {
      util::TraceSpan s("bsw-prep", id);  // round R1
      jobs.clear();
      refs.clear();
      for (std::size_t i = 0; i < nb; ++i) {
        ReadState& rs = states[i];
        const auto ctx = context(rs);
        const int l_query = static_cast<int>(rs.query.size());
        for (std::size_t ci = 0; ci < rs.chains.size(); ++ci)
          for (std::size_t si = 0; si < rs.chains[ci].seeds.size(); ++si) {
            const chain::Seed& sd = rs.chains[ci].seeds[si];
            if (sd.qbeg + sd.len == l_query) continue;
            const int sc0 = left_final_score(rs.table[ci][si], sd, mopt.ksw.a);
            const auto job = align::make_right_job(ctx, rs.crefs[ci], sd, mopt.w, sc0);
            if (job.tlen == 0) continue;
            push(job, {static_cast<std::uint32_t>(i), static_cast<std::uint32_t>(ci),
                       static_cast<std::uint32_t>(si), 1, 0});
          }
      }
    }
    run_round();
    {
      util::TraceSpan s("bsw-prep", id);  // round R2
      prev_refs.swap(refs);
      jobs.clear();
      refs.clear();
      for (const JobRef& r : prev_refs) {
        ReadState& rs = states[r.read];
        const chain::Seed& sd = rs.chains[r.chain].seeds[r.seed];
        const auto& e = rs.table[r.chain][r.seed];
        const int sc0 = left_final_score(e, sd, mopt.ksw.a);
        if (!align::band_retry_needed(e.res[1][0].score, sc0, e.res[1][0].max_off, mopt.w))
          continue;
        push(align::make_right_job(context(rs), rs.crefs[r.chain], sd, mopt.w << 1, sc0),
             {r.read, r.chain, r.seed, 1, 1});
      }
    }
    run_round();

    {
      util::TraceSpan s("region-finalize", id);
      for (std::size_t i = 0; i < nb; ++i) {
        ReadState& rs = states[i];
        TableSource source(rs);
        align::process_chains(context(rs), rs.chains, source, rs.regs);
        align::sort_dedup_regions(rs.regs, mopt);
        align::mark_primary(rs.regs, mopt);
        out.regions += rs.regs.size();
        out.jobs_used += rs.used;
      }
    }
    {
      util::TraceSpan s("sam-format", id);
      for (std::size_t i = 0; i < nb; ++i)
        states[i].records = align::regions_to_sam(context(states[i]), reads[i], states[i].regs);
    }
    {
      util::TraceSpan s("sam-write", id);
      for (std::size_t i = 0; i < nb; ++i)
        for (const auto& rec : states[i].records) {
          line = rec.to_line();
          line += '\n';
          out.digest = chain_hash(out.digest, line);
        }
    }
  }
  out.wall_s = seconds_since(t0);
  out.counters = capture.take();
  return out;
}

void layer_metrics_from_replay(const std::vector<util::TraceAgg>& spans,
                               const ReplayOutcome& r, Metrics& m) {
  auto busy = [&](const char* name) {
    for (const auto& a : spans)
      if (a.name == name) return a.seconds();
    return 0.0;
  };
  // Self time of every replay span: the batch's children are all the other
  // layers but fastq-parse, so the sum is the batch total plus parsing.
  const double total = busy("batch") + busy("fastq-parse");
  const auto& c = r.counters;
  const double smem = busy("smem"), sal = busy("sal"), bsw = busy("bsw");
  m["smem.busy_s"] = smem;
  m["smem.occ_loads"] = static_cast<double>(c.occ_bucket_loads);
  m["smem.ns_per_occ_load"] =
      c.occ_bucket_loads ? smem * 1e9 / static_cast<double>(c.occ_bucket_loads) : 0.0;
  m["smem.smems"] = static_cast<double>(c.smems_found);
  m["sal.busy_s"] = sal;
  m["sal.lookups"] = static_cast<double>(c.sa_lookups);
  m["chain.busy_s"] = busy("chain");
  m["chain.seeds"] = static_cast<double>(r.seeds);
  m["chain.chains_built"] = static_cast<double>(r.chains_built);
  m["chain.chains_kept"] = static_cast<double>(r.chains_kept);
  m["bsw.busy_s"] = bsw;
  m["bsw.jobs"] = static_cast<double>(r.jobs);
  m["bsw.cells_total"] = static_cast<double>(c.bsw_cells_total);
  m["bsw.cells_useful_frac"] =
      c.bsw_cells_total ? static_cast<double>(c.bsw_cells_useful) /
                              static_cast<double>(c.bsw_cells_total)
                        : 0.0;
  m["bsw.gcells_s"] = bsw > 0 ? static_cast<double>(c.bsw_cells_total) / bsw * 1e-9 : 0.0;
  m["bsw.extra_ext_frac"] =
      r.jobs_used ? static_cast<double>(r.jobs - r.jobs_used) / static_cast<double>(r.jobs_used)
                  : 0.0;
  m["align.bsw_prep_s"] = busy("bsw-prep");
  m["align.region_finalize_s"] = busy("region-finalize");
  m["align.sam_format_s"] = busy("sam-format");
  m["align.regions"] = static_cast<double>(r.regions);
  m["io.fastq_parse_s"] = busy("fastq-parse");
  m["io.sam_write_s"] = busy("sam-write");
  m["paper.kernel_share"] = total > 0 ? (smem + sal + bsw) / total : 0.0;
}

}  // namespace perfbench
