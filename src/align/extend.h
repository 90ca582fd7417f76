// Seed extension core (bwa mem_chain2aln) with a pluggable BSW source.
//
// The decision of WHICH seeds to extend depends on the regions produced by
// previously extended seeds of the same read (paper §5.3.2).  The baseline
// driver therefore computes extensions on demand (ScalarSource); the batch
// driver extends *every* seed up front with the SIMD engine and replays the
// same decision logic against the precomputed table (PrecomputedSource) —
// the paper's "extend all, post-process to filter" reorganization, which
// costs ~14% extra extensions but preserves identical output.
//
// process_chains() is the single implementation of the decision logic; the
// two drivers differ only in the SeedExtendSource they plug in, which is
// what makes the identical-output property true by construction.
#pragma once

#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "align/region.h"
#include "index/mem2_index.h"

namespace mem2::align {

/// Reference window of one chain (bwa's rmax + fetched rseq), plus its
/// reversal for left extensions.
struct ChainRef {
  idx_t rmax0 = 0, rmax1 = 0;  // doubled coordinates, [rmax0, rmax1)
  std::vector<seq::Code> rseq;
  std::vector<seq::Code> rseq_rev;  // plain reversal (not complemented)
};

struct ExtendContext {
  const MemOptions& opt;
  const index::Mem2Index& index;
  std::span<const seq::Code> query;      // read codes (0..4)
  std::span<const seq::Code> query_rev;  // plain reversal of query
};

ChainRef make_chain_ref(const ExtendContext& ctx, const chain::Chain& chain);

/// Left/right extension job construction (shared between the on-demand and
/// the batch-enumeration paths so both produce byte-identical jobs).
bsw::ExtendJob make_left_job(const ExtendContext& ctx, const ChainRef& cref,
                             const chain::Seed& s, int band);
bsw::ExtendJob make_right_job(const ExtendContext& ctx, const ChainRef& cref,
                              const chain::Seed& s, int band, int h0);

/// bwa's band-doubling retry test: after a try at band aw returned (score,
/// max_off), retry with a doubled band iff the score changed and the best
/// cell wandered at least 3/4 of the band away from the diagonal.
inline bool band_retry_needed(int score, int prev_score, int max_off, int aw) {
  return !(score == prev_score || max_off < (aw >> 1) + (aw >> 2));
}

/// process_chains' "is this seed already covered?" test (bwa
/// mem_chain2aln): a seed is skipped when a region of the read contains it
/// on query and reference and the seed lies near that region's diagonal.
/// Only existence matters, and a region containing [rbeg, rbeg+len) starts
/// in [rbeg + len - max_span, rbeg], so regions are indexed by reference
/// begin and a query scans that window instead of every region.
class RegionCover {
 public:
  /// Index regs[0, regs.size()).
  void reset(std::span<const AlnReg> regs);
  /// Index regs[idx] (just appended).
  void add(std::span<const AlnReg> regs, std::size_t idx);
  bool covers(std::span<const AlnReg> regs, const chain::Seed& s,
              const MemOptions& opt, int l_query) const;

 private:
  std::vector<std::pair<idx_t, std::uint32_t>> by_rb_;  // (rb, index), sorted
  idx_t max_span_ = 0;
};

/// BSW computation provider.  side: 0 = left, 1 = right.  band_try: 0 or 1
/// (bwa MAX_BAND_TRY = 2).  The job passed is fully specified so table
/// implementations can sanity-check key collisions.
class SeedExtendSource {
 public:
  virtual ~SeedExtendSource() = default;
  virtual bsw::KswResult extend(int chain_idx, int seed_idx, int side,
                                int band_try, const bsw::ExtendJob& job) = 0;
  /// Optional pre-fetched chain window (batch mode reuses phase-A fetches).
  virtual const ChainRef* chain_ref(int chain_idx) {
    (void)chain_idx;
    return nullptr;
  }
};

/// On-demand scalar computation (models original BWA-MEM).
class ScalarSource final : public SeedExtendSource {
 public:
  explicit ScalarSource(const bsw::KswParams& params) : params_(params) {}
  bsw::KswResult extend(int, int, int, int, const bsw::ExtendJob& job) override {
    return bsw::ksw_extend_scalar(job, params_);
  }

 private:
  bsw::KswParams params_;
};

/// Run the full chain-to-region logic for one read.  Appends to `regs`
/// (regions accumulate across chains, as the seed-skip test requires).
void process_chains(const ExtendContext& ctx,
                    std::span<const chain::Chain> chains,
                    SeedExtendSource& source, std::vector<AlnReg>& regs);

}  // namespace mem2::align
