// Site-repeat detection: RepeatCombiner class identification, engine-level
// bitwise invisibility (repeats on/off must produce identical results — the
// copies are exact, values AND scale counts), CAT category-epoch
// invalidation, crew-parallel operation and hit-rate obs counters.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <map>
#include <memory>
#include <random>
#include <string>
#include <vector>

#include "bio/patterns.h"
#include "bio/seqsim.h"
#include "likelihood/engine.h"
#include "likelihood/repeats.h"
#include "obs/obs.h"
#include "parallel/workforce.h"
#include "search/parsimony.h"
#include "search/spr.h"
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

TEST(Repeats, CombinerMatchesFirstOccurrenceReference) {
  // Seeded property test against a naive std::map renumbering: inner
  // sources over small and large class counts (pair spaces past 2^20) and
  // tip sources with and without CAT categories.
  std::mt19937_64 rng(20170401);
  RepeatCombiner combiner;
  for (int trial = 0; trial < 200; ++trial) {
    const std::size_t npat = 1 + rng() % 2500;
    std::vector<std::uint32_t> inner[2];
    std::vector<DnaState> tips[2];
    std::vector<int> pcat(npat);
    const int ncat = 1 + static_cast<int>(rng() % 25);
    for (auto& c : pcat) c = static_cast<int>(rng() % ncat);
    ClassSource src[2];
    for (int side = 0; side < 2; ++side) {
      switch (rng() % 4) {
        case 0:
        case 1: {
          // Inner ids: half the trials draw from a few classes (many
          // repeats), half from class counts that put the pair space past
          // 2^20. A third of them use up to npat distinct ids, filling the
          // table to its maximum load.
          const std::uint32_t classes =
              (trial % 4 < 2) ? 1 + rng() % 40 : (1u << 12) + rng() % 60000;
          const std::uint32_t cap =
              trial % 3 == 0 ? static_cast<std::uint32_t>(npat) : 64;
          const std::uint32_t used =
              1 + rng() % std::min<std::uint32_t>(classes, cap);
          std::vector<std::uint32_t> pool(used);
          for (auto& v : pool) v = static_cast<std::uint32_t>(rng() % classes);
          inner[side].resize(npat);
          for (auto& v : inner[side]) v = pool[rng() % used];
          src[side] = ClassSource::inner(inner[side].data(), classes);
          break;
        }
        case 2:  // plain tip row
          tips[side].resize(npat);
          for (auto& t : tips[side]) t = static_cast<DnaState>(1 + rng() % 15);
          src[side] = ClassSource::tip(tips[side].data(), nullptr, 1);
          break;
        default:  // CAT tip row: the category splits equal masks
          tips[side].resize(npat);
          for (auto& t : tips[side]) t = static_cast<DnaState>(1 + rng() % 4);
          src[side] = ClassSource::tip(tips[side].data(), pcat.data(), ncat);
          break;
      }
    }
    std::map<std::pair<std::uint32_t, std::uint32_t>, std::uint32_t> ref;
    std::vector<std::uint32_t> want_class(npat), want_reps;
    std::vector<RepeatCopy> want_copies;
    for (std::size_t p = 0; p < npat; ++p) {
      const auto [it, inserted] = ref.try_emplace(
          {src[0].at(p), src[1].at(p)}, static_cast<std::uint32_t>(ref.size()));
      if (inserted)
        want_reps.push_back(static_cast<std::uint32_t>(p));
      else
        want_copies.push_back(
            {static_cast<std::uint32_t>(p), want_reps[it->second]});
      want_class[p] = it->second;
    }
    std::vector<std::uint32_t> class_of, reps;
    std::vector<RepeatCopy> copies;
    const std::uint32_t n =
        combiner.combine(src[0], src[1], npat, &class_of, &reps, &copies);
    ASSERT_EQ(n, ref.size()) << "trial " << trial;
    EXPECT_EQ(class_of, want_class) << "trial " << trial;
    EXPECT_EQ(reps, want_reps) << "trial " << trial;
    ASSERT_EQ(copies.size(), want_copies.size()) << "trial " << trial;
    for (std::size_t k = 0; k < copies.size(); ++k) {
      EXPECT_EQ(copies[k].dst, want_copies[k].dst) << "trial " << trial;
      EXPECT_EQ(copies[k].src, want_copies[k].src) << "trial " << trial;
    }
  }
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

// Ordinary divergence: near the root almost every pattern is its own class,
// so most inner records are inactive and their parents skip the combine.
struct OrdinaryFixture {
  OrdinaryFixture() {
    SimConfig cfg;
    cfg.taxa = 20;
    cfg.distinct_sites = 300;
    cfg.total_sites = 300;
    cfg.seed = 91;
    cfg.mean_branch_length = 0.12;
    sim = simulate_alignment(cfg);
    patterns = PatternAlignment::compress(sim.alignment);
    gtr.freqs = patterns.empirical_frequencies();
    Lcg rng(5);
    start = std::make_unique<Tree>(
        randomized_stepwise_addition(patterns, patterns.weights(), rng));
  }
  SimResult sim;
  PatternAlignment patterns;
  GtrParams gtr;
  std::unique_ptr<Tree> start;
};

TEST(Repeats, InactiveChildMakesParentInactive) {
  OrdinaryFixture f;
  ScopedRepeats guard(true);
  LikelihoodEngine engine(f.patterns, f.gtr, RateModel::gamma(0.7));
  Tree t = *f.start;
  // Smoothing evaluates every edge, so every directed record is built.
  (void)engine.smooth_branches(t, 1);
  int inherited = 0, active = 0;
  for (const int rec : t.internal_records()) {
    if (engine.repeat_classes(t, rec) > 0) ++active;
    const auto [c1, c2] = t.children(rec);
    const auto inactive = [&](int c) {
      return !t.is_tip_record(c) && engine.repeat_classes(t, c) == 0;
    };
    if (inactive(c1) || inactive(c2)) {
      ++inherited;
      EXPECT_EQ(engine.repeat_classes(t, rec), 0u) << "record " << rec;
    }
  }
  EXPECT_GT(inherited, 0);
  EXPECT_GT(active, 0);
}

TEST(Repeats, SprSweepsAreBitwiseIdenticalOnOrOff) {
  // Topology moves rebuild classes on every regraft; on/off must still give
  // the same tree and the same lnL bits, for both rate models.
  OrdinaryFixture f;
  for (const bool cat : {false, true}) {
    std::string newick[2];
    std::uint64_t bits[2] = {};
    for (const bool on : {false, true}) {
      ScopedRepeats guard(on);
      LikelihoodEngine engine(
          f.patterns, f.gtr,
          cat ? RateModel::cat(f.patterns.num_patterns())
              : RateModel::gamma(0.7));
      Tree t = *f.start;
      SearchSettings settings = fast_settings();
      settings.max_rounds = 3;
      SprSearch search(engine, settings);
      bits[on] = std::bit_cast<std::uint64_t>(search.run(t));
      newick[on] = t.to_newick(f.patterns.names());
    }
    EXPECT_EQ(newick[0], newick[1]) << (cat ? "CAT" : "GAMMA");
    EXPECT_EQ(bits[0], bits[1]) << (cat ? "CAT" : "GAMMA");
  }
}

}  // namespace
}  // namespace raxh
