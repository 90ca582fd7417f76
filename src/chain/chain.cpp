#include "chain/chain.h"

#include <algorithm>
#include <cstdint>

#include "util/sw_counters.h"

namespace mem2::chain {

int interval_rid(const seq::Reference& ref, idx_t l_pac, idx_t rbeg, idx_t len) {
  idx_t fb = rbeg, fe = rbeg + len;
  if (fb < l_pac && fe > l_pac) return -1;  // crosses the strand boundary
  if (fb >= l_pac) {
    // Map the reverse-strand interval to forward coordinates.
    const idx_t b = 2 * l_pac - fe;
    const idx_t e = 2 * l_pac - fb;
    fb = b;
    fe = e;
  }
  if (fb < 0 || fe > ref.length()) return -1;
  auto [rid, off] = ref.locate(fb);
  (void)off;
  const auto& c = ref.contigs()[static_cast<std::size_t>(rid)];
  return fe <= c.offset + c.length ? rid : -1;
}

void seeds_from_smems_batched(std::span<const smem::Smem> smems,
                              const ChainOptions& opt,
                              const index::FlatSA& sa,
                              std::vector<Seed>& out) {
  // Pass 1: sampled rows, parked in the rbeg slots they will resolve into.
  seeds_from_smems(smems, opt, [](idx_t row) { return row; }, out);

  // Pass 2: wave-prefetched gather.
  const std::size_t n = out.size();
  for (std::size_t i = 0; i < n && i < kSalWave; ++i)
    sa.prefetch(out[i].rbeg);
  for (std::size_t i = 0; i < n; ++i) {
    if (i + kSalWave < n) sa.prefetch(out[i + kSalWave].rbeg);
    out[i].rbeg = sa.lookup(out[i].rbeg);
  }
}

double repetitive_fraction(std::span<const smem::Smem> smems, int l_query,
                           int max_occ) {
  // Union length of query intervals whose SA interval exceeds max_occ
  // (smems are sorted by qb).
  std::int64_t l_rep = 0;
  int b = 0, e = 0;
  for (const auto& m : smems) {
    if (m.bi.s <= max_occ) continue;
    if (m.qb > e) {
      l_rep += e - b;
      b = m.qb;
      e = m.qe;
    } else {
      e = std::max(e, m.qe);
    }
  }
  l_rep += e - b;
  return l_query > 0 ? static_cast<double>(l_rep) / l_query : 0.0;
}

namespace {

// bwa test_and_merge: try to append seed to chain c; returns true if the
// seed was merged (or is contained) and false if a new chain is needed.
bool test_and_merge(const ChainOptions& opt, idx_t l_pac, Chain& c,
                    const Seed& p, int seed_rid) {
  if (seed_rid != c.rid) return false;
  const Seed& last = c.seeds.back();
  const idx_t qend = last.qbeg + last.len;
  const idx_t rend = last.rbeg + last.len;
  if (p.qbeg >= c.seeds.front().qbeg && p.qbeg + p.len <= qend &&
      p.rbeg >= c.seeds.front().rbeg && p.rbeg + p.len <= rend)
    return true;  // contained seed; do nothing
  if ((c.seeds.front().rbeg < l_pac || last.rbeg < l_pac) && p.rbeg >= l_pac)
    return false;  // different strands
  const idx_t x = p.qbeg - last.qbeg;  // non-negative (seed order)
  const idx_t y = p.rbeg - last.rbeg;
  if (y >= 0 && x - y <= opt.w && y - x <= opt.w &&
      x - last.len < opt.max_chain_gap && y - last.len < opt.max_chain_gap) {
    c.seeds.push_back(p);
    return true;
  }
  return false;
}

}  // namespace

std::vector<Chain> build_chains(const seq::Reference& ref, idx_t l_pac,
                                std::span<const Seed> seeds, int l_query,
                                const ChainOptions& opt, double frac_rep) {
  (void)l_query;
  // bwa keeps chains in a btree keyed by chain pos; the lower bound of a
  // seed's rbeg is the merge candidate.  Chains live in an append-only pool,
  // and a key-sorted index of 16-byte (key, pool id) entries reproduces the
  // same lower-bound merge semantics (including the minimal duplicate-key
  // nudge): an insert shifts index entries, never Chain objects, and there
  // are no per-node mallocs or pointer chasing as in a tree.
  struct Entry {
    idx_t key;
    std::uint32_t id;
  };
  std::vector<Chain> pool;
  std::vector<Entry> tree;
  const auto key_less = [](const Entry& e, idx_t key) { return e.key < key; };
  for (const Seed& s : seeds) {
    const int rid = interval_rid(ref, l_pac, s.rbeg, s.len);
    if (rid < 0) continue;  // crosses a boundary: discarded (as in bwa)
    bool added = false;
    // upper_bound(s.rbeg) then step back = last entry with key <= s.rbeg.
    auto it = std::lower_bound(tree.begin(), tree.end(), s.rbeg + 1, key_less);
    if (it != tree.begin())
      added = test_and_merge(opt, l_pac, pool[std::prev(it)->id], s, rid);
    if (!added) {
      Chain& c = pool.emplace_back();
      c.pos = s.rbeg;
      c.rid = rid;
      c.frac_rep = static_cast<float>(frac_rep);
      c.seeds.push_back(s);
      // Duplicate key: bwa's btree keeps both; nudge the key minimally
      // (identical key assignment to the old std::map-based code).
      idx_t key = s.rbeg;
      auto pos = std::lower_bound(tree.begin(), tree.end(), key, key_less);
      while (pos != tree.end() && pos->key == key) ++key, ++pos;
      tree.insert(pos, Entry{key, static_cast<std::uint32_t>(pool.size() - 1)});
    }
  }
  std::vector<Chain> chains;
  chains.reserve(tree.size());
  for (const Entry& e : tree) chains.push_back(std::move(pool[e.id]));
  auto& counters = util::tls_counters();
  counters.chain_seeds += seeds.size();
  counters.chains_built += chains.size();
  return chains;
}

int chain_weight(const Chain& c) {
  std::int64_t end = 0;
  int w_query = 0;
  for (const Seed& s : c.seeds) {
    if (s.qbeg >= end)
      w_query += s.len;
    else if (s.qbeg + s.len > end)
      w_query += static_cast<int>(s.qbeg + s.len - end);
    end = std::max<std::int64_t>(end, s.qbeg + s.len);
  }
  int w_ref = 0;
  end = 0;
  for (const Seed& s : c.seeds) {
    if (s.rbeg >= end)
      w_ref += s.len;
    else if (s.rbeg + s.len > end)
      w_ref += static_cast<int>(s.rbeg + s.len - end);
    end = std::max<std::int64_t>(end, s.rbeg + s.len);
  }
  return std::min(w_query, w_ref);
}

namespace {

int chn_beg(const Chain& c) { return c.seeds.front().qbeg; }
int chn_end(const Chain& c) {
  return c.seeds.back().qbeg + c.seeds.back().len;
}

// mem_chain_flt's "large overlap" of two chains' query intervals: they
// intersect by at least mask_level of the shorter, which is itself shorter
// than max_chain_gap.  Symmetric, and a function of the intervals alone.
bool large_overlap(int b1, int e1, int b2, int e2, const ChainOptions& opt) {
  const int b_max = std::max(b1, b2);
  const int e_min = std::min(e1, e2);
  if (e_min <= b_max) return false;
  const int min_l = std::min(e1 - b1, e2 - b2);
  return e_min - b_max >= min_l * opt.mask_level && min_l < opt.max_chain_gap;
}

// mem_chain_flt's drop test: a heavy chain overlapping a light one ends the
// light chain's scan and drops it.
bool drops(int w_light, int w_heavy, const ChainOptions& opt) {
  return w_light < w_heavy * opt.drop_ratio &&
         w_heavy - w_light >= opt.min_seed_len * 2;
}

}  // namespace

void filter_chains(std::vector<Chain>& chains, const ChainOptions& opt) {
  // bwa scans, for each chain i in weight order, every kept chain j < i:
  // an overlapping j sets first[j] = i if unset, and the first overlapping
  // j heavy enough to drop i ends the scan.  That is O(n^2) on reads with
  // hundreds of repeat chains.  Three facts make it exact in less:
  //  - weights are sorted, and drops() is monotone in both weights, so the
  //    chains able to drop i are an index prefix [0, p) that only grows;
  //  - overlap depends on query intervals alone, so kept chains are grouped
  //    by distinct interval, and only groups whose begin lies within
  //    max_len before i's end can intersect i;
  //  - i is dropped by the smallest kept index below p among overlapping
  //    groups; otherwise no overlapping group has a member below p, and
  //    every still-unset member of every overlapping group gets first = i.
  struct Row {
    idx_t pos;
    int weight, beg, end;
    std::uint32_t id;  // index into `chains`
    int kept = 0;
    int first = -1;
    int next = -1;  // next first-unset member of the same interval group
  };
  std::vector<Row> rows;
  rows.reserve(chains.size());
  for (std::size_t i = 0; i < chains.size(); ++i) {
    const Chain& c = chains[i];
    const int w = chain_weight(c);
    if (w >= opt.min_chain_weight)
      rows.push_back({c.pos, w, chn_beg(c), chn_end(c), static_cast<std::uint32_t>(i)});
  }
  if (rows.empty()) {
    chains.clear();
    return;
  }
  // Weight desc, then pos, then query begin; input order breaks the
  // remaining ties (bwa's stable sort).
  std::sort(rows.begin(), rows.end(), [](const Row& a, const Row& b) {
    if (a.weight != b.weight) return a.weight > b.weight;
    if (a.pos != b.pos) return a.pos < b.pos;
    if (a.beg != b.beg) return a.beg < b.beg;
    return a.id < b.id;
  });

  // Kept chains grouped by query interval, sorted by (beg, end).  `head`
  // starts the list of members whose first is unset: members join in index
  // order and leave only from the front or all at once, so `min_member`
  // (the smallest member, i.e. the group's earliest kept chain) stays
  // valid.
  struct Group {
    int beg, end;
    int min_member;
    int head, tail;
  };
  std::vector<Group> groups;
  int max_len = 0;
  const auto group_less = [](const Group& g, std::pair<int, int> iv) {
    return g.beg != iv.first ? g.beg < iv.first : g.end < iv.second;
  };
  const int n = static_cast<int>(rows.size());
  int p = 0;  // rows [0, p) are heavy enough to drop row i
  for (int i = 0; i < n; ++i) {
    Row& r = rows[static_cast<std::size_t>(i)];
    while (p < i && drops(r.weight, rows[static_cast<std::size_t>(p)].weight, opt)) ++p;
    const auto win_beg =
        std::lower_bound(groups.begin(), groups.end(),
                         std::pair<int, int>{r.beg - max_len + 1, INT32_MIN}, group_less);
    const auto overlaps = [&](const Group& g) {
      return large_overlap(g.beg, g.end, r.beg, r.end, opt);
    };
    int dropper = -1;
    bool large_ovlp = false;
    for (auto g = win_beg; g != groups.end() && g->beg < r.end; ++g) {
      if (!overlaps(*g)) continue;
      large_ovlp = true;
      if (g->min_member < p && (dropper < 0 || g->min_member < dropper))
        dropper = g->min_member;
    }
    if (dropper >= 0) {  // dropped: the dropper is its group's unset head, if unset
      Row& d = rows[static_cast<std::size_t>(dropper)];
      if (d.first < 0) {
        d.first = i;
        auto g = std::lower_bound(groups.begin(), groups.end(),
                                  std::pair<int, int>{d.beg, d.end}, group_less);
        g->head = d.next;
        if (g->head < 0) g->tail = -1;
      }
      continue;
    }
    if (large_ovlp) {
      for (auto g = win_beg; g != groups.end() && g->beg < r.end; ++g) {
        if (!overlaps(*g)) continue;
        for (int j = g->head; j >= 0; j = rows[static_cast<std::size_t>(j)].next)
          rows[static_cast<std::size_t>(j)].first = i;
        g->head = g->tail = -1;
      }
    }
    r.kept = large_ovlp ? 2 : 3;
    auto g = std::lower_bound(groups.begin(), groups.end(),
                              std::pair<int, int>{r.beg, r.end}, group_less);
    if (g == groups.end() || g->beg != r.beg || g->end != r.end) {
      g = groups.insert(g, Group{r.beg, r.end, i, -1, -1});
      max_len = std::max(max_len, r.end - r.beg);
    }
    if (g->tail >= 0)
      rows[static_cast<std::size_t>(g->tail)].next = i;
    else
      g->head = i;
    g->tail = i;
  }
  // Keep the first shadowed chain of each kept chain (mapq accuracy).
  for (const Row& r : rows)
    if (r.first >= 0 && rows[static_cast<std::size_t>(r.first)].kept == 0)
      rows[static_cast<std::size_t>(r.first)].kept = 1;
  // Cap the number of partial (kept==2) chains.
  int n_partial = 0;
  for (Row& r : rows)
    if (r.kept == 2 && ++n_partial > opt.max_chain_extend) r.kept = 0;
  // Move the survivors out in weight order.
  std::vector<Chain> out;
  out.reserve(rows.size());
  for (const Row& r : rows) {
    if (!r.kept) continue;
    Chain& c = chains[r.id];
    c.weight = r.weight;
    c.kept = r.kept;
    c.first = r.first;
    out.push_back(std::move(c));
  }
  chains = std::move(out);
  util::tls_counters().chains_kept += chains.size();
}

}  // namespace mem2::chain
