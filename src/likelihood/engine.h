// The phylogenetic likelihood engine: conditional likelihood vectors over a
// Tree, lazily recomputed and striped across the thread crew. This is the
// substrate both the serial and the fine-grained parallel code paths of the
// reproduction share — with a crew of T threads it is RAxML's Pthreads mode,
// with T=1 it is the serial code.
//
// CLV validity is *self-checking*: each internal node slot remembers which
// directed record it is oriented to, which children (and branch lengths, and
// content versions) it was computed from, and the model epoch. ensure-time
// validation recomputes exactly the stale subset, so callers never issue
// explicit invalidations after SPR moves or branch-length changes.
#pragma once

#include <cstdint>
#include <functional>
#include <span>
#include <vector>

#include "bio/patterns.h"
#include "likelihood/kernels.h"
#include "likelihood/repeats.h"
#include "model/gtr.h"
#include "model/rates.h"
#include "parallel/workforce.h"
#include "tree/tree.h"
#include "util/aligned.h"

namespace raxh {

class LikelihoodEngine {
 public:
  // `patterns` must outlive the engine. `crew` may be nullptr (serial) and
  // must outlive the engine if given.
  LikelihoodEngine(const PatternAlignment& patterns, const GtrParams& gtr,
                   RateModel rates, Workforce* crew = nullptr);

  [[nodiscard]] std::size_t num_patterns() const {
    return patterns_->num_patterns();
  }
  [[nodiscard]] const RateModel& rates() const { return rates_; }
  [[nodiscard]] const GtrParams& gtr() const { return model_.params(); }
  [[nodiscard]] Workforce* crew() const { return crew_; }

  // --- weights (bootstrap replicates swap these) ---
  void set_weights(std::span<const int> weights);
  void reset_weights();  // back to the alignment's pattern multiplicities
  [[nodiscard]] std::span<const int> weights() const { return weights_; }

  // --- model mutation (each bumps the model epoch; CLVs revalidate lazily) ---
  void set_gtr(const GtrParams& params);
  void set_alpha(double alpha);  // GAMMA only
  void set_cat_assignment(std::vector<double> category_rates,
                          std::vector<int> pattern_categories);  // CAT only

  // --- evaluation ---

  // Log-likelihood at the edge (rec, back(rec)).
  double evaluate(const Tree& tree, int rec);
  // Log-likelihood at the canonical edge (tip 0's edge).
  double evaluate(const Tree& tree) { return evaluate(tree, 0); }
  // Per-pattern site log-likelihoods at the canonical edge.
  void per_pattern_lnl(const Tree& tree, std::span<double> out);

  // --- optimization ---

  // Newton-Raphson on one branch; leaves the optimized length in the tree
  // and returns it.
  double optimize_branch(Tree& tree, int rec);
  // Optimize every branch `passes` times; returns final lnL.
  double smooth_branches(Tree& tree, int passes = 1);
  // Cycle Brent over the five free GTR exchangeabilities; returns final lnL.
  double optimize_gtr(Tree& tree, double epsilon = 0.1);
  // Brent on the GAMMA shape; returns final lnL. GAMMA only.
  double optimize_alpha(Tree& tree, double epsilon = 0.01);
  // Re-estimate per-pattern rates over a log-spaced grid, recluster into
  // categories (RAxML's optimizeRateCategories). CAT only. Returns final lnL.
  double optimize_cat_rates(Tree& tree);
  // Full round-robin (branches + model) until the lnL gain per round drops
  // below epsilon. Returns final lnL.
  double optimize_all(Tree& tree, double epsilon = 0.1, int max_rounds = 10);

  // --- low-level branch-optimization API ---
  // prepare_branch builds the edge sumtable, branch_derivatives evaluates
  // (lnl, d1, d2) at a candidate branch length. The prepared state
  // stays valid until the next engine operation that touches the scratch
  // buffers (any evaluate/newview), so call them back-to-back.
  void prepare_branch(const Tree& tree, int rec);
  kern::Derivatives branch_derivatives(double t);

  // Force full recomputation (tests / defensive use).
  void invalidate_all() { ++model_epoch_; }

  // Number of newview kernel invocations so far (calibration + tests).
  [[nodiscard]] std::uint64_t newview_count() const { return newview_count_; }

  // CLV storage layout chosen at construction: blocked SoA for GAMMA /
  // uniform rates (vector loads across pattern lanes), pattern-major for CAT
  // (per-pattern categories break lane uniformity). RAXH_CLV_LAYOUT=
  // pattern-major|blocked overrides (blocked is ignored for CAT).
  [[nodiscard]] kern::ClvLayout clv_layout() const { return clv_layout_; }

  // Site-repeat bookkeeping of directed record `rec` as last built (tests +
  // benches): number of repeat classes, or 0 when repeats are not applied
  // there.
  [[nodiscard]] std::uint32_t repeat_classes(const Tree& tree, int rec) const;

  // Line of the P-matrix cache that branch length `t` maps to, as the cache
  // is currently sized (tests use it to build colliding lengths).
  [[nodiscard]] std::size_t pmat_cache_line(double t) const;

  // Sum over patterns of the combined scale counts at edge `rec`'s CLV
  // endpoints (tips contribute zero; ensures the CLVs first). Tests use this
  // to prove a deep tree actually rescales before relying on scale-corrected
  // NR-vs-evaluate comparisons.
  [[nodiscard]] std::uint64_t edge_scale_total(const Tree& tree, int rec);

 private:
  struct SlotMeta {
    int oriented_rec = -1;
    std::uint64_t model_epoch = 0;
    int child_rec1 = -1, child_rec2 = -1;
    double child_len1 = -1.0, child_len2 = -1.0;
    std::uint64_t child_ver1 = 0, child_ver2 = 0;
    std::uint64_t version = 0;  // bumped on every recompute
  };

  [[nodiscard]] int clv_cats() const;
  [[nodiscard]] kern::RateLayout layout() const;
  [[nodiscard]] double* clv(int slot);
  [[nodiscard]] int* scale(int slot);
  [[nodiscard]] std::uint64_t content_version(const Tree& tree, int rec) const;

  // Make CLV(rec) valid (recursing into children); no-op for tips. With
  // repeats on, the same post-order walk keeps each node's repeat classes
  // current before its CLV is checked.
  void ensure_clv(const Tree& tree, int rec);
  void compute_clv(const Tree& tree, int rec);

  // --- site repeats (repeats.h) ---
  // Classes are kept per directed inner record, not per CLV slot, so a
  // slot's orientation flipping back and forth (branch smoothing walks the
  // tree) reuses each direction's classes instead of recombining them.
  [[nodiscard]] RecordRepeats& repeats_of(int rec) {
    return record_repeats_[static_cast<std::size_t>(rec) -
                           patterns_->num_taxa()];
  }
  [[nodiscard]] const RecordRepeats& repeats_of(int rec) const {
    return record_repeats_[static_cast<std::size_t>(rec) -
                           patterns_->num_taxa()];
  }
  // Repeat-class version of rec's node (tips: derived from the CAT epoch).
  [[nodiscard]] std::uint64_t repeat_version(const Tree& tree, int rec) const;
  // Make the repeat classes of inner node rec valid, given its children's
  // are. Classes depend on subtree topology + tip data only, so they survive
  // branch-length and model changes (CAT category reassignment excepted).
  void update_repeat_classes(const Tree& tree, int rec);
  [[nodiscard]] ClassSource class_source(const Tree& tree, int rec) const;

  // --- P-matrix cache ---
  // P(t) depends only on the bits of t and the model state, and every model
  // change bumps model_epoch_, so each per-category P set is kept in a
  // direct-mapped line keyed by (t bits, model_epoch_) and reused exactly.
  // Tip lookups, four times larger, live in a smaller direct-mapped table
  // of their own under the same key.
  struct CacheKey {
    std::uint64_t bits = 0;
    std::uint64_t epoch = 0;  // 0 = empty; model epochs start at 1
    bool operator==(const CacheKey&) const = default;
  };
  struct CacheTable {
    std::vector<CacheKey> keys;  // direct-mapped lines, then the spare
    std::vector<double> values;  // `width` doubles per line
    std::size_t width = 0;
    // The line `key` maps to if it holds `key`, else the line to fill: the
    // mapped one, or the spare when the mapped one is `pinned`.
    std::size_t find(const CacheKey& key, std::size_t pinned,
                     bool* hit) const;
    [[nodiscard]] double* line(std::size_t i) {
      return values.data() + i * width;
    }
  };
  static constexpr std::size_t kNoLine = ~std::size_t{0};
  // P set of branch length t under the current model (filled on a miss).
  // `pinned` is a P line the caller still reads; the returned line index
  // identifies the set for line_pmats/line_lookup.
  std::size_t pmat_line(double t, std::size_t pinned = kNoLine);
  [[nodiscard]] const double* line_pmats(std::size_t line) {
    return pmats_.line(line);
  }
  // Tip lookup of P line `line` (kern::build_tip_lookup), built on a miss;
  // `pinned` is a lookup the caller still reads.
  const double* line_lookup(std::size_t line, const double* pinned = nullptr);
  // Size both tables for the current category count and empty them.
  void reset_pmat_cache();

  // Partitioned dispatch helper: runs fn(begin, end, tid) over patterns,
  // splitting by the cost-aware partition (see refresh_partition()).
  template <typename Fn>
  void dispatch(Fn&& fn);
  // Partitioned dispatch with double-sum reduction of fn's return value
  // (summed in fixed tid order — deterministic for a fixed thread count).
  template <typename Fn>
  double dispatch_sum(Fn&& fn);
  // Plain striped dispatch over [0, n) — used for the repeat-representative
  // domain, which has its own index space.
  template <typename Fn>
  void dispatch_range(std::size_t n, Fn&& fn);

  // Rebuild the per-pattern cost vector (pattern weight x stored CLV
  // categories — GAMMA patterns carry ncat categories, CAT/uniform one) and
  // the weighted prefix-sum partition of the pattern range across the crew.
  // Cached per weights epoch; weights are the only per-pattern cost input
  // that changes after construction (bootstrap replicates swap them).
  void refresh_partition();

  double evaluate_edge(const Tree& tree, int rec, double* per_pattern);
  void build_sumtable(const Tree& tree, int rec);

  const PatternAlignment* patterns_;
  GtrModel model_;
  RateModel rates_;
  Workforce* crew_;

  std::vector<int> weights_;
  std::uint64_t weights_epoch_ = 0;  // bumped whenever weights_ changes
  std::vector<double> cat_weights_;  // GAMMA: 1/ncat each

  // Cost-aware crew partition: part_bounds_[t]..part_bounds_[t+1] is thread
  // t's pattern range; rebuilt when weights_epoch_ moves past part_epoch_.
  std::vector<std::size_t> part_bounds_;
  std::uint64_t part_epoch_ = ~std::uint64_t{0};

  kern::ClvLayout clv_layout_ = kern::ClvLayout::kPatternMajor;
  std::size_t clv_stride_ = 0;  // doubles per slot (padded under blocked)
  AlignedVector<double> clvs_;  // 64-byte aligned for the SIMD members
  std::vector<int> scales_;
  std::vector<SlotMeta> slots_;
  std::uint64_t model_epoch_ = 1;
  std::uint64_t version_counter_ = 1;
  std::uint64_t newview_count_ = 0;

  // Site-repeat state: per-inner-record classes plus combine scratch.
  std::vector<RecordRepeats> record_repeats_;
  RepeatCombiner combiner_;
  std::uint64_t repeat_version_counter_ = 0;
  std::uint64_t cat_epoch_ = 0;  // bumped by set_cat_assignment

  // P-matrix cache (master-filled, crew-read): ncat * 16 doubles per P
  // line, ncat * 64 per lookup line; at most 512 KiB at kMaxCatMatrices.
  CacheTable pmats_;
  CacheTable lookups_;
  int pmat_ncat_ = 0;

  // Scratch (master-filled, crew-read).
  AlignedVector<double> sumtable_;
  std::vector<int> sum_scale_;  // combined scale counts of the sumtable edge
  std::vector<double> per_pattern_scratch_;
};

// Safeguarded Newton-Raphson on a branch length: `derivatives(t)` supplies
// (lnl, d1, d2); returns the converged length in [kMin, kMax]BranchLength.
double newton_branch_length(
    const std::function<kern::Derivatives(double)>& derivatives, double t0);

}  // namespace raxh
