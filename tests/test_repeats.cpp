// Site-repeat detection: RepeatCombiner class identification, engine-level
// bitwise invisibility (repeats on/off must produce identical results — the
// copies are exact, values AND scale counts), CAT category-epoch
// invalidation, crew-parallel operation and hit-rate obs counters.
#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "bio/patterns.h"
#include "bio/seqsim.h"
#include "likelihood/engine.h"
#include "likelihood/repeats.h"
#include "obs/obs.h"
#include "parallel/workforce.h"
#include "search/parsimony.h"
#include "util/prng.h"

namespace raxh {
namespace {

struct ScopedRepeats {
  explicit ScopedRepeats(bool on) : prev(repeats_enabled()) {
    set_repeats_enabled(on);
  }
  ~ScopedRepeats() { set_repeats_enabled(prev); }
  bool prev;
};

TEST(Repeats, CombinerRenumbersTipPairs) {
  const std::vector<DnaState> a = {
      DnaState{1}, DnaState{1}, DnaState{2}, DnaState{2},
      DnaState{1}, DnaState{8}, DnaState{4}, DnaState{4}};
  const std::vector<DnaState> b = {
      DnaState{1}, DnaState{1}, DnaState{2}, DnaState{4},
      DnaState{1}, DnaState{8}, DnaState{4}, DnaState{4}};
  RepeatCombiner combiner;
  std::vector<std::uint32_t> class_of, reps;
  const std::uint32_t n = combiner.combine(
      ClassSource::tip(a.data(), nullptr, 1),
      ClassSource::tip(b.data(), nullptr, 1), a.size(), &class_of, &reps);
  EXPECT_EQ(n, 5u);
  EXPECT_EQ(class_of, (std::vector<std::uint32_t>{0, 0, 1, 2, 0, 3, 4, 4}));
  // reps[k] is the FIRST pattern of class k — the representative newview
  // computes; later members of the class are copies.
  EXPECT_EQ(reps, (std::vector<std::uint32_t>{0, 2, 3, 5, 6}));
}

TEST(Repeats, CombinerMapPathMatchesDirectPath) {
  // Same key structure, once with tiny class counts (direct stamped table)
  // and once with the ids spread over a pair space past kDirectMax (hash
  // map). The dense renumbering must be identical.
  const std::size_t npat = 200;
  std::vector<std::uint32_t> small_a(npat), small_b(npat), big_a(npat),
      big_b(npat);
  for (std::size_t p = 0; p < npat; ++p) {
    small_a[p] = static_cast<std::uint32_t>(p % 3);
    small_b[p] = static_cast<std::uint32_t>(p % 2);
    big_a[p] = small_a[p] * 1000;
    big_b[p] = small_b[p] * 1500;
  }
  RepeatCombiner combiner;
  std::vector<std::uint32_t> class_small, reps_small, class_big, reps_big;
  const auto n_small =
      combiner.combine(ClassSource::inner(small_a.data(), 3),
                       ClassSource::inner(small_b.data(), 2), npat,
                       &class_small, &reps_small);
  const auto n_big =
      combiner.combine(ClassSource::inner(big_a.data(), 3000),
                       ClassSource::inner(big_b.data(), 3000), npat,
                       &class_big, &reps_big);
  EXPECT_EQ(n_small, n_big);
  EXPECT_EQ(class_small, class_big);
  EXPECT_EQ(reps_small, reps_big);
}

TEST(Repeats, CatCategorySplitsTipClasses) {
  // Under CAT the per-pattern category selects a different P matrix, so two
  // identical tip columns in different categories are NOT repeats.
  const std::vector<DnaState> tips = {DnaState{3}, DnaState{3}, DnaState{3}};
  const std::vector<int> pcat = {0, 1, 0};
  const auto src = ClassSource::tip(tips.data(), pcat.data(), 2);
  EXPECT_EQ(src.at(0), src.at(2));
  EXPECT_NE(src.at(0), src.at(1));
  EXPECT_EQ(src.num_classes, 32u);
}

// Low-divergence alignment: columns agree within whole subtrees, the regime
// where site repeats shine.
struct RepeatFixture {
  RepeatFixture() {
    SimConfig cfg;
    cfg.taxa = 24;
    cfg.distinct_sites = 200;
    cfg.total_sites = 200;
    cfg.seed = 77;
    cfg.mean_branch_length = 0.02;
    sim = simulate_alignment(cfg);
    patterns = PatternAlignment::compress(sim.alignment);
    gtr.freqs = patterns.empirical_frequencies();
    tree = std::make_unique<Tree>(
        Tree::parse_newick(sim.true_tree_newick, patterns.names()));
  }
  SimResult sim;
  PatternAlignment patterns;
  GtrParams gtr;
  std::unique_ptr<Tree> tree;
};

TEST(Repeats, EngineResultsAreBitwiseIdenticalOnOrOff) {
  RepeatFixture f;
  double lnl_on = 0.0, lnl_off = 0.0, smooth_on = 0.0, smooth_off = 0.0;
  {
    ScopedRepeats guard(true);
    LikelihoodEngine engine(f.patterns, f.gtr, RateModel::gamma(0.7));
    Tree t = *f.tree;
    lnl_on = engine.evaluate(t);
    smooth_on = engine.smooth_branches(t, 1);
  }
  {
    ScopedRepeats guard(false);
    LikelihoodEngine engine(f.patterns, f.gtr, RateModel::gamma(0.7));
    Tree t = *f.tree;
    lnl_off = engine.evaluate(t);
    smooth_off = engine.smooth_branches(t, 1);
  }
  EXPECT_EQ(lnl_on, lnl_off);
  EXPECT_EQ(smooth_on, smooth_off);
}

TEST(Repeats, EngineDetectsClassesAndCountsHits) {
  RepeatFixture f;
  ScopedRepeats guard(true);
  const bool obs_was_enabled = obs::enabled();
  obs::set_enabled(true);
  const auto before = obs::counters_snapshot();

  LikelihoodEngine engine(f.patterns, f.gtr, RateModel::gamma(0.7));
  (void)engine.evaluate(*f.tree);

  const auto after = obs::counters_snapshot();
  obs::set_enabled(obs_was_enabled);

  // At least one inner node must have an active repeat map with fewer
  // classes than patterns on this low-divergence alignment.
  // The repeat map is stored per CLV slot for the orientation the traversal
  // computed, so query every directed record of each internal node.
  bool found_active = false;
  for (const int rec : f.tree->internal_records()) {
    const auto classes = engine.repeat_classes(*f.tree, rec);
    if (classes > 0) {
      found_active = true;
      EXPECT_LT(classes, f.patterns.num_patterns());
    }
  }
  EXPECT_TRUE(found_active);

  const auto computed = after[obs::Counter::kRepeatPatternsComputed] -
                        before[obs::Counter::kRepeatPatternsComputed];
  const auto copied = after[obs::Counter::kRepeatPatternsCopied] -
                      before[obs::Counter::kRepeatPatternsCopied];
  EXPECT_GT(computed, std::uint64_t{0});
  EXPECT_GT(copied, std::uint64_t{0});
  // The hit rate on this alignment should be substantial — copies dominate.
  EXPECT_GT(copied, computed);
}

TEST(Repeats, CatReassignmentInvalidatesClasses) {
  // Under CAT the classes depend on the category assignment; re-optimizing
  // categories must not leave stale repeat maps behind. On/off parity is the
  // oracle: any stale copy would break bitwise equality.
  RepeatFixture f;
  double first_on = 0.0, first_off = 0.0, lnl_on = 0.0, lnl_off = 0.0;
  {
    ScopedRepeats guard(true);
    LikelihoodEngine engine(f.patterns, f.gtr,
                            RateModel::cat(f.patterns.num_patterns()));
    Tree t = *f.tree;
    first_on = engine.evaluate(t);     // classes built for epoch 0
    engine.optimize_cat_rates(t);      // reassigns categories (epoch bump)
    lnl_on = engine.evaluate(t);
  }
  {
    ScopedRepeats guard(false);
    LikelihoodEngine engine(f.patterns, f.gtr,
                            RateModel::cat(f.patterns.num_patterns()));
    Tree t = *f.tree;
    first_off = engine.evaluate(t);
    engine.optimize_cat_rates(t);
    lnl_off = engine.evaluate(t);
  }
  EXPECT_EQ(first_on, first_off);
  EXPECT_EQ(lnl_on, lnl_off);
}

TEST(Repeats, CrewParallelOnOffParity) {
  RepeatFixture f;
  Workforce crew(3);
  double lnl_on = 0.0, lnl_off = 0.0;
  {
    ScopedRepeats guard(true);
    LikelihoodEngine engine(f.patterns, f.gtr, RateModel::gamma(0.7), &crew);
    Tree t = *f.tree;
    lnl_on = engine.evaluate(t) + engine.smooth_branches(t, 1);
  }
  {
    ScopedRepeats guard(false);
    LikelihoodEngine engine(f.patterns, f.gtr, RateModel::gamma(0.7), &crew);
    Tree t = *f.tree;
    lnl_off = engine.evaluate(t) + engine.smooth_branches(t, 1);
  }
  EXPECT_EQ(lnl_on, lnl_off);
}

}  // namespace
}  // namespace raxh
