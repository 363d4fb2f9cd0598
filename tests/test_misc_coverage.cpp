// Coverage for small public APIs not exercised elsewhere: the logger,
// Workforce reduction reuse after resize, and the engine's weight/CAT
// interactions around replicate boundaries.
#include <gtest/gtest.h>

#include <cmath>

#include "bio/patterns.h"
#include "bio/resample.h"
#include "bio/seqsim.h"
#include "likelihood/engine.h"
#include "util/log.h"
#include "util/prng.h"

namespace raxh {
namespace {

TEST(Logger, LevelFilteringAndRankPrefixDoNotCrash) {
  auto& logger = Logger::instance();
  const LogLevel original = logger.level();

  logger.set_level(LogLevel::kError);
  EXPECT_EQ(logger.level(), LogLevel::kError);
  // Filtered-out calls must be safe no-ops.
  log_debug("hidden %d", 1);
  log_info("hidden %s", "msg");
  log_warn("hidden");

  logger.set_rank(3);
  logger.log(LogLevel::kError, "visible from rank %d", 3);
  logger.set_rank(-1);

  logger.set_level(original);
}

TEST(Workforce, ReductionSurvivesResizeCycles) {
  Workforce crew(3);
  for (int round = 0; round < 5; ++round) {
    const std::size_t slots = 1 + static_cast<std::size_t>(round % 3);
    crew.resize_reduction(slots);
    crew.run([&](int tid, int) {
      for (std::size_t s = 0; s < slots; ++s)
        crew.reduction(tid, s) = static_cast<double>(tid + 1);
    });
    for (std::size_t s = 0; s < slots; ++s)
      EXPECT_DOUBLE_EQ(crew.sum_reduction(s), 1.0 + 2.0 + 3.0);
  }
}

TEST(Engine, WeightSwapsInterleavedWithCatReassignment) {
  // The rapid bootstrap alternates weight swaps and CAT refits; the engine
  // must stay consistent through arbitrary interleavings.
  SimConfig cfg;
  cfg.taxa = 8;
  cfg.distinct_sites = 90;
  cfg.total_sites = 120;
  cfg.seed = 77;
  const auto sim = simulate_alignment(cfg);
  const auto patterns = PatternAlignment::compress(sim.alignment);
  GtrParams gtr;
  gtr.freqs = patterns.empirical_frequencies();
  Tree tree = Tree::parse_newick(sim.true_tree_newick, patterns.names());

  LikelihoodEngine engine(patterns, gtr,
                          RateModel::cat(patterns.num_patterns()));
  const double baseline = engine.evaluate(tree);

  Lcg rng(5);
  for (int round = 0; round < 3; ++round) {
    engine.set_weights(bootstrap_weights(patterns, rng));
    engine.optimize_cat_rates(tree);
    EXPECT_TRUE(std::isfinite(engine.evaluate(tree)));
  }
  engine.reset_weights();
  // After restoring weights the lnL under the current CAT fit is finite and
  // a fresh uniform-CAT engine still reproduces the original baseline.
  EXPECT_TRUE(std::isfinite(engine.evaluate(tree)));
  LikelihoodEngine fresh(patterns, gtr,
                         RateModel::cat(patterns.num_patterns()));
  EXPECT_NEAR(fresh.evaluate(tree), baseline, 1e-9);
}

TEST(Engine, SetCatAssignmentRejectsBadInput) {
  SimConfig cfg;
  cfg.taxa = 6;
  cfg.distinct_sites = 30;
  cfg.total_sites = 30;
  cfg.seed = 3;
  const auto sim = simulate_alignment(cfg);
  const auto patterns = PatternAlignment::compress(sim.alignment);
  GtrParams gtr;
  gtr.freqs = patterns.empirical_frequencies();
  LikelihoodEngine engine(patterns, gtr,
                          RateModel::cat(patterns.num_patterns()));

  const std::size_t npat = patterns.num_patterns();
  EXPECT_DEATH(engine.set_cat_assignment({}, std::vector<int>(npat, 0)),
               "precondition");
  EXPECT_DEATH(
      engine.set_cat_assignment({1.0}, std::vector<int>(npat + 1, 0)),
      "precondition");
  EXPECT_DEATH(engine.set_cat_assignment({1.0}, std::vector<int>(npat, 7)),
               "precondition");
  EXPECT_DEATH(engine.set_cat_assignment({-1.0}, std::vector<int>(npat, 0)),
               "precondition");
}

}  // namespace
}  // namespace raxh
