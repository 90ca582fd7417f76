// Differential oracles for the chaining and post-BSW bookkeeping loops.
//
// build_chains, filter_chains, process_chains' seed-containment test and
// sort_dedup_regions replace bwa's quadratic loops with indexed ones that
// must give the same output by construction.  The straight loops they
// replaced live on here as reference oracles, and seeded random inputs
// shaped like the cases that matter (repeat families, heavy/light weight
// mixes, long reads with disjoint chains, the partial-chain cap, odd
// thresholds, several contigs, dedup replacement) must come out identical.
#include <gtest/gtest.h>

#include <algorithm>
#include <iterator>
#include <string>
#include <vector>

#include "align/extend.h"
#include "align/region.h"
#include "chain/chain.h"
#include "util/rng.h"

namespace mem2 {
namespace {

using chain::Chain;
using chain::ChainOptions;
using chain::Seed;

// ------------------------------------------------------------------ oracles

bool oracle_test_and_merge(const ChainOptions& opt, idx_t l_pac, Chain& c,
                           const Seed& p, int seed_rid) {
  if (seed_rid != c.rid) return false;
  const Seed& last = c.seeds.back();
  const idx_t qend = last.qbeg + last.len;
  const idx_t rend = last.rbeg + last.len;
  if (p.qbeg >= c.seeds.front().qbeg && p.qbeg + p.len <= qend &&
      p.rbeg >= c.seeds.front().rbeg && p.rbeg + p.len <= rend)
    return true;
  if ((c.seeds.front().rbeg < l_pac || last.rbeg < l_pac) && p.rbeg >= l_pac)
    return false;
  const idx_t x = p.qbeg - last.qbeg;
  const idx_t y = p.rbeg - last.rbeg;
  if (y >= 0 && x - y <= opt.w && y - x <= opt.w &&
      x - last.len < opt.max_chain_gap && y - last.len < opt.max_chain_gap) {
    c.seeds.push_back(p);
    return true;
  }
  return false;
}

// Key-sorted vector of (key, Chain) with mid-vector inserts.
std::vector<Chain> oracle_build_chains(const seq::Reference& ref, idx_t l_pac,
                                       std::span<const Seed> seeds,
                                       const ChainOptions& opt, double frac_rep) {
  struct Entry {
    idx_t key;
    Chain chain;
  };
  std::vector<Entry> tree;
  const auto key_less = [](const Entry& e, idx_t key) { return e.key < key; };
  for (const Seed& s : seeds) {
    const int rid = chain::interval_rid(ref, l_pac, s.rbeg, s.len);
    if (rid < 0) continue;
    bool added = false;
    auto it = std::lower_bound(tree.begin(), tree.end(), s.rbeg + 1, key_less);
    if (it != tree.begin())
      added = oracle_test_and_merge(opt, l_pac, std::prev(it)->chain, s, rid);
    if (!added) {
      Chain c;
      c.pos = s.rbeg;
      c.rid = rid;
      c.frac_rep = static_cast<float>(frac_rep);
      c.seeds.push_back(s);
      idx_t key = s.rbeg;
      auto pos = std::lower_bound(tree.begin(), tree.end(), key, key_less);
      while (pos != tree.end() && pos->key == key) ++key, ++pos;
      tree.insert(pos, Entry{key, std::move(c)});
    }
  }
  std::vector<Chain> chains;
  for (auto& e : tree) chains.push_back(std::move(e.chain));
  return chains;
}

int chn_beg(const Chain& c) { return c.seeds.front().qbeg; }
int chn_end(const Chain& c) { return c.seeds.back().qbeg + c.seeds.back().len; }

// bwa mem_chain_flt: every chain scans every kept heavier chain.
void oracle_filter_chains(std::vector<Chain>& chains, const ChainOptions& opt) {
  std::size_t k = 0;
  for (std::size_t i = 0; i < chains.size(); ++i) {
    Chain& c = chains[i];
    c.first = -1;
    c.kept = 0;
    c.weight = chain::chain_weight(c);
    if (c.weight >= opt.min_chain_weight) {
      if (k != i) chains[k] = std::move(c);
      ++k;
    }
  }
  chains.resize(k);
  if (chains.empty()) return;
  std::stable_sort(chains.begin(), chains.end(), [](const Chain& a, const Chain& b) {
    if (a.weight != b.weight) return a.weight > b.weight;
    if (a.pos != b.pos) return a.pos < b.pos;
    return chn_beg(a) < chn_beg(b);
  });
  chains[0].kept = 3;
  for (std::size_t i = 1; i < chains.size(); ++i) {
    bool large_ovlp = false;
    std::size_t j = 0;
    for (; j < i; ++j) {
      if (!chains[j].kept) continue;
      const int b_max = std::max(chn_beg(chains[j]), chn_beg(chains[i]));
      const int e_min = std::min(chn_end(chains[j]), chn_end(chains[i]));
      if (e_min > b_max) {
        const int li = chn_end(chains[i]) - chn_beg(chains[i]);
        const int lj = chn_end(chains[j]) - chn_beg(chains[j]);
        const int min_l = std::min(li, lj);
        if (e_min - b_max >= min_l * opt.mask_level && min_l < opt.max_chain_gap) {
          large_ovlp = true;
          if (chains[j].first < 0) chains[j].first = static_cast<int>(i);
          if (chains[i].weight < chains[j].weight * opt.drop_ratio &&
              chains[j].weight - chains[i].weight >= opt.min_seed_len * 2)
            break;
        }
      }
    }
    if (j == i) chains[i].kept = large_ovlp ? 2 : 3;
  }
  for (const auto& c : chains)
    if (c.first >= 0 && chains[static_cast<std::size_t>(c.first)].kept == 0)
      chains[static_cast<std::size_t>(c.first)].kept = 1;
  int n_partial = 0;
  for (auto& c : chains)
    if (c.kept == 2 && ++n_partial > opt.max_chain_extend) c.kept = 0;
  k = 0;
  for (std::size_t i = 0; i < chains.size(); ++i) {
    if (!chains[i].kept) continue;
    if (k != i) chains[k] = std::move(chains[i]);
    ++k;
  }
  chains.resize(k);
}

// mem_chain2aln's containment scan over every region of the read.
bool oracle_covered(const std::vector<align::AlnReg>& regs, const Seed& s,
                    const align::MemOptions& opt, int l_query) {
  std::size_t i;
  for (i = 0; i < regs.size(); ++i) {
    const align::AlnReg& p = regs[i];
    if (s.rbeg < p.rb || s.rbeg + s.len > p.re || s.qbeg < p.qb ||
        s.qbeg + s.len > p.qe)
      continue;
    if (s.len - p.seedlen0 > .1 * l_query) continue;
    int qd = s.qbeg - p.qb;
    idx_t rd = s.rbeg - p.rb;
    int max_gap = opt.cal_max_gap(static_cast<int>(std::min<idx_t>(qd, rd)));
    int w = std::min(max_gap, p.w);
    if (qd - rd < w && rd - qd < w) break;
    qd = p.qe - (s.qbeg + s.len);
    rd = p.re - (s.rbeg + s.len);
    max_gap = opt.cal_max_gap(static_cast<int>(std::min<idx_t>(qd, rd)));
    w = std::min(max_gap, p.w);
    if (qd - rd < w && rd - qd < w) break;
  }
  return i < regs.size();
}

// Sort, then test each region against every kept region.
void oracle_sort_dedup(std::vector<align::AlnReg>& regs, const align::MemOptions& opt) {
  if (regs.size() <= 1) return;
  std::stable_sort(regs.begin(), regs.end(),
                   [](const align::AlnReg& a, const align::AlnReg& b) {
                     if (a.rb != b.rb) return a.rb < b.rb;
                     if (a.re != b.re) return a.re < b.re;
                     if (a.qb != b.qb) return a.qb < b.qb;
                     return a.qe < b.qe;
                   });
  std::vector<align::AlnReg> kept;
  for (const auto& r : regs) {
    bool redundant = false;
    for (auto& k : kept) {
      if (k.rid != r.rid) continue;
      const idx_t rb_max = std::max(k.rb, r.rb);
      const idx_t re_min = std::min(k.re, r.re);
      const int qb_max = std::max(k.qb, r.qb);
      const int qe_min = std::min(k.qe, r.qe);
      if (re_min <= rb_max || qe_min <= qb_max) continue;
      const double r_span =
          static_cast<double>(std::min(r.re - r.rb, static_cast<idx_t>(r.qe - r.qb)));
      const double ovlp = std::min(static_cast<double>(re_min - rb_max),
                                   static_cast<double>(qe_min - qb_max));
      if (ovlp >= r_span * opt.mask_level_redun) {
        if (r.score > k.score) k = r;
        redundant = true;
        break;
      }
    }
    if (!redundant) kept.push_back(r);
  }
  regs = std::move(kept);
}

// ------------------------------------------------------------------ helpers

using Rng = util::Xoshiro256ss;

int uniform(Rng& rng, int lo, int hi) {  // [lo, hi]
  return lo + static_cast<int>(rng.below(static_cast<std::uint64_t>(hi - lo + 1)));
}

void expect_same_chains(const std::vector<Chain>& want, const std::vector<Chain>& got,
                        const std::string& what) {
  ASSERT_EQ(got.size(), want.size()) << what;
  for (std::size_t i = 0; i < want.size(); ++i) {
    EXPECT_EQ(got[i].pos, want[i].pos) << what << " chain " << i;
    EXPECT_EQ(got[i].rid, want[i].rid) << what << " chain " << i;
    EXPECT_EQ(got[i].weight, want[i].weight) << what << " chain " << i;
    EXPECT_EQ(got[i].kept, want[i].kept) << what << " chain " << i;
    EXPECT_EQ(got[i].first, want[i].first) << what << " chain " << i;
    EXPECT_EQ(got[i].frac_rep, want[i].frac_rep) << what << " chain " << i;
    EXPECT_EQ(got[i].seeds, want[i].seeds) << what << " chain " << i;
  }
}

// A chain of 1-4 collinear-ish seeds starting at query qb, reference pos.
Chain make_chain(Rng& rng, idx_t pos, int qb, int max_seed, int l_query) {
  Chain c;
  c.pos = pos;
  c.rid = 0;
  const int n = uniform(rng, 1, 4);
  int q = qb;
  for (int s = 0; s < n && q < l_query; ++s) {
    const int len = std::min(uniform(rng, 1, max_seed), l_query - q);
    c.seeds.push_back({pos + (q - qb) + uniform(rng, 0, 2), q, len, len});
    q += uniform(rng, 1, len + 8);
  }
  return c;
}

ChainOptions random_chain_options(Rng& rng) {
  ChainOptions opt;
  static constexpr float kMask[] = {0.0f, 0.2f, 0.5f, 0.5f, 0.75f, 1.0f};
  static constexpr float kDrop[] = {0.0f, 0.3f, 0.5f, 0.5f, 0.8f, 1.0f, 1.5f};
  opt.mask_level = kMask[rng.below(std::size(kMask))];
  opt.drop_ratio = kDrop[rng.below(std::size(kDrop))];
  opt.min_seed_len = uniform(rng, 0, 25);
  if (rng.chance(0.3)) opt.min_chain_weight = uniform(rng, 0, 40);
  if (rng.chance(0.3)) opt.max_chain_extend = uniform(rng, 0, 5);
  if (rng.chance(0.2)) opt.max_chain_gap = uniform(rng, 10, 80);
  return opt;
}

void check_filter(std::vector<Chain> chains, const ChainOptions& opt,
                  const std::string& what) {
  std::vector<Chain> want = chains;
  oracle_filter_chains(want, opt);
  chain::filter_chains(chains, opt);
  expect_same_chains(want, chains, what);
}

// --------------------------------------------------------------- filter

TEST(FilterChainsOracle, RepeatFamiliesWithEqualWeights) {
  // Copies of a few chain shapes at many reference positions: identical
  // query intervals and weights, as one SMEM's repeat occurrences give.
  for (std::uint64_t seed = 1; seed <= 200; ++seed) {
    Rng rng(seed);
    const int l_query = uniform(rng, 50, 151);
    std::vector<Chain> shapes;
    for (int f = uniform(rng, 1, 5); f > 0; --f)
      shapes.push_back(make_chain(rng, 0, uniform(rng, 0, l_query - 1), 40, l_query));
    std::vector<Chain> chains;
    for (int n = uniform(rng, 1, 300); n > 0; --n) {
      Chain c = shapes[rng.below(shapes.size())];
      const idx_t shift = static_cast<idx_t>(rng.below(1000000));
      c.pos += shift;
      for (auto& s : c.seeds) s.rbeg += shift;
      chains.push_back(std::move(c));
    }
    check_filter(chains, random_chain_options(rng), "seed " + std::to_string(seed));
  }
}

TEST(FilterChainsOracle, HeavyLightMixesExerciseTheDropPrefix) {
  for (std::uint64_t seed = 1; seed <= 300; ++seed) {
    Rng rng(seed);
    const int l_query = uniform(rng, 60, 250);
    ChainOptions opt = random_chain_options(rng);
    if (rng.chance(0.5)) {  // defaults, so the prefix is bwa's usual one
      opt.drop_ratio = 0.5f;
      opt.min_seed_len = 19;
    }
    std::vector<Chain> chains;
    for (int n = uniform(rng, 1, 200); n > 0; --n) {
      const bool heavy = rng.chance(0.15);
      chains.push_back(make_chain(rng, static_cast<idx_t>(rng.below(500000)),
                                  uniform(rng, 0, l_query - 1), heavy ? 120 : 25,
                                  l_query));
    }
    check_filter(chains, opt, "seed " + std::to_string(seed));
  }
}

TEST(FilterChainsOracle, DisjointQueryIntervalsOfLongReads) {
  for (std::uint64_t seed = 1; seed <= 60; ++seed) {
    Rng rng(seed);
    const int l_query = 20000;
    std::vector<Chain> chains;
    int q = 0;
    while (q < l_query - 100) {
      chains.push_back(make_chain(rng, static_cast<idx_t>(rng.below(10000000)), q,
                                  uniform(rng, 20, 90), l_query));
      q = chn_end(chains.back()) + uniform(rng, 0, 40);
    }
    // A few long chains spanning many of the short ones.
    for (int n = uniform(rng, 0, 3); n > 0; --n) {
      Chain c;
      const int qb = uniform(rng, 0, l_query / 2);
      c.pos = static_cast<idx_t>(rng.below(10000000));
      for (int s = 0; s < 6; ++s)
        c.seeds.push_back({c.pos + qb + 1000 * s, qb + 1000 * s, 900, 900});
      chains.push_back(std::move(c));
    }
    std::shuffle(chains.begin(), chains.end(), rng);
    ChainOptions opt = random_chain_options(rng);
    opt.max_chain_gap = 10000;
    check_filter(chains, opt, "seed " + std::to_string(seed));
  }
}

TEST(FilterChainsOracle, PartialChainCap) {
  for (std::uint64_t seed = 1; seed <= 200; ++seed) {
    Rng rng(seed);
    ChainOptions opt;
    opt.max_chain_extend = uniform(rng, 0, 4);
    opt.drop_ratio = 0.9f;
    opt.min_seed_len = 1;
    std::vector<Chain> chains;
    for (int n = uniform(rng, 2, 80); n > 0; --n)
      chains.push_back(make_chain(rng, static_cast<idx_t>(rng.below(100000)),
                                  uniform(rng, 0, 60), 40, 101));
    check_filter(chains, opt, "seed " + std::to_string(seed));
  }
}

// --------------------------------------------------------------- build

TEST(BuildChainsOracle, MultiContigSeedsInSmemOrder) {
  seq::Reference ref;
  ref.add_contig("chr1", std::string(3000, 'A'));
  ref.add_contig("chr2", std::string(40, 'C'));
  ref.add_contig("chr3", std::string(2000, 'G'));
  const idx_t l_pac = ref.length();
  for (std::uint64_t seed = 1; seed <= 300; ++seed) {
    Rng rng(seed);
    const int l_query = uniform(rng, 40, 300);
    std::vector<Seed> seeds;
    // Seeds in nondecreasing qbeg (SMEM order) on both strands: repeat
    // copies, collinear runs, duplicate positions and boundary crossers.
    std::vector<idx_t> anchors;
    for (int a = uniform(rng, 1, 12); a > 0; --a)
      anchors.push_back(static_cast<idx_t>(rng.below(static_cast<std::uint64_t>(2 * l_pac))));
    int q = 0;
    while (q < l_query - 5 && seeds.size() < 600) {
      const int len = uniform(rng, 5, 40);
      for (int k = uniform(rng, 1, 8); k > 0; --k) {
        const idx_t a = anchors[rng.below(anchors.size())];
        const idx_t rbeg = std::clamp<idx_t>(a + q + uniform(rng, -3, 3), 0, 2 * l_pac - len);
        seeds.push_back({rbeg, q, len, len});
      }
      q += uniform(rng, 0, 12);
    }
    const ChainOptions opt = random_chain_options(rng);
    const auto want = oracle_build_chains(ref, l_pac, seeds, opt, 0.25);
    const auto got = chain::build_chains(ref, l_pac, seeds, l_query, opt, 0.25);
    expect_same_chains(want, got, "seed " + std::to_string(seed));
  }
}

// --------------------------------------------------------------- containment

align::AlnReg random_region(Rng& rng, int rid) {
  align::AlnReg r;
  r.rid = rid;
  r.rb = static_cast<idx_t>(rng.below(3000));
  r.re = r.rb + uniform(rng, 0, rng.chance(0.1) ? 2000 : 150);
  r.qb = uniform(rng, 0, 100);
  r.qe = r.qb + uniform(rng, 0, 150);
  r.score = uniform(rng, 0, 200);
  r.w = uniform(rng, 1, 120);
  r.seedlen0 = uniform(rng, 1, 80);
  return r;
}

TEST(RegionCoverOracle, MatchesLinearScan) {
  for (std::uint64_t seed = 1; seed <= 200; ++seed) {
    Rng rng(seed);
    align::MemOptions opt;
    opt.w = uniform(rng, 1, 150);
    const int l_query = uniform(rng, 30, 400);
    std::vector<align::AlnReg> regs;
    for (int n = uniform(rng, 0, 20); n > 0; --n) regs.push_back(random_region(rng, 0));
    align::RegionCover cover;
    cover.reset(regs);
    for (int step = 0; step < 400; ++step) {
      if (rng.chance(0.15)) {
        regs.push_back(random_region(rng, 0));
        cover.add(regs, regs.size() - 1);
      }
      Seed s;
      if (!regs.empty() && rng.chance(0.3)) {
        // Flush with the end of the widest region: the index's window edge.
        const auto& p = *std::max_element(
            regs.begin(), regs.end(), [](const align::AlnReg& a, const align::AlnReg& b) {
              return a.re - a.rb < b.re - b.rb;
            });
        s.len = uniform(rng, 1, std::max(1, std::min(p.seedlen0, p.qe - p.qb)));
        s.rbeg = p.re - s.len;
        s.qbeg = std::max(0, p.qe - s.len + uniform(rng, -2, 2));
      } else if (!regs.empty() && rng.chance(0.7)) {  // mostly inside some region
        const auto& p = regs[rng.below(regs.size())];
        s.len = uniform(rng, 1, 60);
        s.rbeg = p.rb + uniform(rng, -5, static_cast<int>(std::max<idx_t>(p.re - p.rb, 0)));
        s.qbeg = std::max(0, p.qb + static_cast<int>(s.rbeg - p.rb) + uniform(rng, -40, 40));
      } else {
        s.len = uniform(rng, 1, 60);
        s.rbeg = static_cast<idx_t>(rng.below(3200));
        s.qbeg = uniform(rng, 0, 200);
      }
      s.score = s.len;
      ASSERT_EQ(cover.covers(regs, s, opt, l_query), oracle_covered(regs, s, opt, l_query))
          << "seed " << seed << " step " << step;
    }
  }
}

// --------------------------------------------------------------- dedup

TEST(SortDedupOracle, ReplacementAndContigMismatches) {
  for (std::uint64_t seed = 1; seed <= 400; ++seed) {
    Rng rng(seed);
    align::MemOptions opt;
    static constexpr float kRedun[] = {0.0f, 0.5f, 0.8f, 0.95f, 0.95f, 1.0f};
    opt.mask_level_redun = kRedun[rng.below(std::size(kRedun))];
    std::vector<align::AlnReg> regs;
    const int n_rid = uniform(rng, 1, 3);
    for (int n = uniform(rng, 0, 150); n > 0; --n) {
      if (!regs.empty() && rng.chance(0.5)) {
        // Near-copy of an earlier region: same or shifted by a few bases,
        // often better scoring, so the kept region gets replaced.
        align::AlnReg r = regs[rng.below(regs.size())];
        const int d = uniform(rng, -3, 3);
        r.rb += d;
        r.re += d + uniform(rng, -2, 2);
        r.qb = std::max(0, r.qb + uniform(rng, -2, 2));
        r.qe = std::max(r.qb, r.qe + uniform(rng, -2, 2));
        r.score += uniform(rng, -5, 10);
        if (rng.chance(0.2)) r.rid = uniform(rng, 0, n_rid - 1);
        regs.push_back(r);
      } else {
        regs.push_back(random_region(rng, uniform(rng, 0, n_rid - 1)));
      }
    }
    std::vector<align::AlnReg> want = regs;
    oracle_sort_dedup(want, opt);
    align::sort_dedup_regions(regs, opt);
    ASSERT_EQ(regs, want) << "seed " << seed;
  }
}

}  // namespace
}  // namespace mem2
