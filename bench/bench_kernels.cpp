// Microbenchmarks of the likelihood kernels (google-benchmark): per-pattern
// cost of newview / evaluate / NR derivatives under CAT and GAMMA. These are
// the calibration inputs behind the performance model's assumption that
// search-unit cost is proportional to the pattern count.
//
// Before the gbench suites, a kernel x CLV-layout x site-repeats matrix runs
// a full-retraversal evaluate for every family member and reports two gated
// headline speedups in BENCH_kernels.json:
//   - simd: dispatched member + blocked layout vs scalar + pattern-major on
//     a GAMMA newview-heavy workload (gate: >= 1.5x)
//   - repeats: site repeats on vs off, best member, on a duplicate-heavy
//     low-divergence alignment (gate: >= 2x additional)
#include <benchmark/benchmark.h>

#include <chrono>
#include <cstdlib>
#include <limits>
#include <string>
#include <vector>

#define RAXH_BENCH_WITH_GBENCH
#include "bench_util.h"
#include "bio/patterns.h"
#include "bio/seqsim.h"
#include "likelihood/engine.h"
#include "likelihood/kernels.h"
#include "likelihood/repeats.h"
#include "obs/obs.h"
#include "tree/tree.h"

namespace {

using namespace raxh;

struct KernelFixture {
  explicit KernelFixture(std::size_t patterns_target, bool gamma) {
    SimConfig cfg;
    cfg.taxa = 24;
    cfg.distinct_sites = patterns_target;
    cfg.total_sites = patterns_target;
    cfg.seed = 99;
    sim = simulate_alignment(cfg);
    patterns = PatternAlignment::compress(sim.alignment);
    GtrParams gtr;
    gtr.freqs = patterns.empirical_frequencies();
    engine = std::make_unique<LikelihoodEngine>(
        patterns, gtr,
        gamma ? RateModel::gamma(0.7)
              : RateModel::cat(patterns.num_patterns()));
    tree = std::make_unique<Tree>(
        Tree::parse_newick(sim.true_tree_newick, patterns.names()));
  }

  SimResult sim;
  PatternAlignment patterns;
  std::unique_ptr<LikelihoodEngine> engine;
  std::unique_ptr<Tree> tree;
};

void BM_EvaluateFull(benchmark::State& state) {
  KernelFixture f(static_cast<std::size_t>(state.range(0)),
                  state.range(1) != 0);
  for (auto _ : state) {
    f.engine->invalidate_all();
    benchmark::DoNotOptimize(f.engine->evaluate(*f.tree));
  }
  state.SetItemsProcessed(static_cast<long>(state.iterations()) *
                          static_cast<long>(f.patterns.num_patterns()) *
                          static_cast<long>(f.patterns.num_taxa()));
  state.counters["patterns"] =
      static_cast<double>(f.patterns.num_patterns());
}
BENCHMARK(BM_EvaluateFull)
    ->Args({256, 0})
    ->Args({1024, 0})
    ->Args({256, 1})
    ->Args({1024, 1})
    ->Unit(benchmark::kMicrosecond);

void BM_EvaluateCached(benchmark::State& state) {
  KernelFixture f(512, false);
  f.engine->evaluate(*f.tree);
  for (auto _ : state)
    benchmark::DoNotOptimize(f.engine->evaluate(*f.tree));
  // Cached path recomputes nothing: measures evaluate kernel + validation.
}
BENCHMARK(BM_EvaluateCached)->Unit(benchmark::kMicrosecond);

void BM_BranchOptimize(benchmark::State& state) {
  KernelFixture f(512, state.range(0) != 0);
  const int edge = f.tree->edges()[5];
  for (auto _ : state)
    benchmark::DoNotOptimize(f.engine->optimize_branch(*f.tree, edge));
}
BENCHMARK(BM_BranchOptimize)->Arg(0)->Arg(1)->Unit(benchmark::kMicrosecond);

void BM_PerPatternLnl(benchmark::State& state) {
  KernelFixture f(1024, false);
  std::vector<double> out(f.patterns.num_patterns());
  for (auto _ : state) {
    f.engine->per_pattern_lnl(*f.tree, out);
    benchmark::DoNotOptimize(out.data());
  }
}
BENCHMARK(BM_PerPatternLnl)->Unit(benchmark::kMicrosecond);

void BM_CatRateOptimization(benchmark::State& state) {
  KernelFixture f(256, false);
  for (auto _ : state)
    benchmark::DoNotOptimize(f.engine->optimize_cat_rates(*f.tree));
}
BENCHMARK(BM_CatRateOptimization)->Unit(benchmark::kMillisecond);

// ---------------------------------------------------------------------------
// kernel x layout x repeats matrix (gated headline speedups)
// ---------------------------------------------------------------------------

struct MatrixDataset {
  SimResult sim;
  PatternAlignment patterns;
  GtrParams gtr;
  std::unique_ptr<Tree> tree;
};

MatrixDataset make_dataset(std::size_t sites, int taxa, double mean_branch,
                           std::uint64_t seed) {
  MatrixDataset d;
  SimConfig cfg;
  cfg.taxa = taxa;
  cfg.distinct_sites = sites;
  cfg.total_sites = sites;
  cfg.seed = seed;
  cfg.mean_branch_length = mean_branch;
  d.sim = simulate_alignment(cfg);
  d.patterns = PatternAlignment::compress(d.sim.alignment);
  d.gtr.freqs = d.patterns.empirical_frequencies();
  d.tree = std::make_unique<Tree>(
      Tree::parse_newick(d.sim.true_tree_newick, d.patterns.names()));
  return d;
}

// Min-over-repetitions time of one full-retraversal evaluate (ms).
// invalidate_all() forces every inner CLV to recompute, so the measurement
// is newview-dominated — the kernel the SIMD family actually accelerates.
double time_full_eval_ms(LikelihoodEngine& engine, Tree& tree) {
  (void)engine.evaluate(tree);  // warm: CLVs, P cache, repeat class maps
  constexpr int kIters = 8;
  constexpr int kReps = 3;
  double best = std::numeric_limits<double>::infinity();
  for (int rep = 0; rep < kReps; ++rep) {
    const auto t0 = std::chrono::steady_clock::now();
    for (int i = 0; i < kIters; ++i) {
      engine.invalidate_all();
      benchmark::DoNotOptimize(engine.evaluate(tree));
    }
    const auto t1 = std::chrono::steady_clock::now();
    const double ms =
        std::chrono::duration<double, std::milli>(t1 - t0).count() / kIters;
    if (ms < best) best = ms;
  }
  return best;
}

struct Cell {
  const char* dataset;
  kern::KernelIsa isa;
  bool blocked;
  bool repeats;
  double ms;
};

// The CLV layout is chosen at engine construction from RAXH_CLV_LAYOUT, so
// each cell constructs a fresh engine under the right env + global toggles.
double run_cell(const MatrixDataset& d, kern::KernelIsa isa, bool blocked,
                bool repeats_on) {
  if (!kern::set_kernel_isa(isa)) return -1.0;
  setenv("RAXH_CLV_LAYOUT", blocked ? "blocked" : "pattern-major", 1);
  set_repeats_enabled(repeats_on);
  LikelihoodEngine engine(d.patterns, d.gtr, RateModel::gamma(0.7));
  Tree t = *d.tree;
  return time_full_eval_ms(engine, t);
}

std::string fmt(double v) {
  char buf[48];
  std::snprintf(buf, sizeof(buf), "%.6g", v);
  return buf;
}

std::string run_kernel_matrix() {
  const kern::KernelIsa dispatched = kern::kernel_isa();
  const bool prev_repeats = repeats_enabled();

  std::vector<kern::KernelIsa> members;
  for (int i = 0; i < kern::kNumKernelIsas; ++i) {
    const auto isa = static_cast<kern::KernelIsa>(i);
    if (kern::kernel_isa_supported(isa)) members.push_back(isa);
  }

  raxh::bench::print_header(
      "kernel x layout x repeats matrix (full-retraversal evaluate)",
      "Sec. 3 kernel-level SIMD + Kobert et al. site repeats");
  std::printf("family: %s | dispatched: %s\n\n",
              kern::kernel_isa_list().c_str(),
              kern::kernel_isa_name(dispatched));

  // GAMMA, ordinary divergence: the SIMD gate's workload.
  const MatrixDataset gamma = make_dataset(1024, 24, 0.12, 99);
  // Duplicate-heavy low-divergence alignment (same regime as
  // `raxh_make_alignment -mean-branch 0.005`): the repeats gate's workload.
  const MatrixDataset dup = make_dataset(4096, 48, 0.005, 101);

  std::vector<Cell> cells;
  for (const auto isa : members)
    for (const bool blocked : {false, true})
      for (const bool rep : {false, true})
        cells.push_back(
            {"gamma", isa, blocked, rep, run_cell(gamma, isa, blocked, rep)});

  // Repeats gate cells + hit rate, on the duplicate-heavy dataset. The gate
  // runs on the pattern-major layout: that is where site repeats pay (copies
  // are contiguous memcpy, and CAT — the layout's main user — is pm-only).
  // Under blocked SoA the dense SIMD newview is already near bandwidth, so
  // lane-strided copies roughly break even; the blocked cells below record
  // that honestly rather than hiding it.
  const kern::KernelIsa best = kern::best_kernel_isa();
  cells.push_back(
      {"dup", best, false, false, run_cell(dup, best, false, false)});
  cells.push_back({"dup", best, true, false, run_cell(dup, best, true, false)});
  cells.push_back({"dup", best, true, true, run_cell(dup, best, true, true)});
  const bool obs_was = obs::enabled();
  obs::set_enabled(true);
  const auto before = obs::counters_snapshot();
  cells.push_back(
      {"dup", best, false, true, run_cell(dup, best, false, true)});
  const auto after = obs::counters_snapshot();
  obs::set_enabled(obs_was);
  const double computed =
      static_cast<double>(after[obs::Counter::kRepeatPatternsComputed] -
                          before[obs::Counter::kRepeatPatternsComputed]);
  const double copied =
      static_cast<double>(after[obs::Counter::kRepeatPatternsCopied] -
                          before[obs::Counter::kRepeatPatternsCopied]);
  const double hit_rate =
      computed + copied > 0.0 ? copied / (computed + copied) : 0.0;

  // Restore process-wide defaults before the gbench suites run.
  unsetenv("RAXH_CLV_LAYOUT");
  kern::set_kernel_isa(dispatched);
  set_repeats_enabled(prev_repeats);

  auto find_ms = [&](const char* ds, kern::KernelIsa isa, bool blocked,
                     bool rep) {
    for (const auto& c : cells)
      if (std::string(ds) == c.dataset && c.isa == isa &&
          c.blocked == blocked && c.repeats == rep)
        return c.ms;
    return -1.0;
  };
  const double scalar_pm =
      find_ms("gamma", kern::KernelIsa::kScalar, false, false);
  const double best_blocked = find_ms("gamma", best, true, false);
  const double dup_off = find_ms("dup", best, false, false);
  const double dup_on = find_ms("dup", best, false, true);
  const double simd_speedup = best_blocked > 0.0 ? scalar_pm / best_blocked : 0.0;
  const double repeat_speedup = dup_on > 0.0 ? dup_off / dup_on : 0.0;
  const bool gate_simd = simd_speedup >= 1.5;
  const bool gate_repeats = repeat_speedup >= 2.0;

  std::string csv = "dataset,kernels,layout,repeats,eval_ms,speedup_vs_scalar_pm\n";
  for (const auto& c : cells) {
    const double ref = std::string("gamma") == c.dataset ? scalar_pm : dup_off;
    std::printf("  %-6s %-8s %-13s repeats=%-3s  %8.3f ms  (%.2fx)\n",
                c.dataset, kern::kernel_isa_name(c.isa),
                c.blocked ? "blocked" : "pattern-major", c.repeats ? "on" : "off",
                c.ms, c.ms > 0.0 ? ref / c.ms : 0.0);
    csv += std::string(c.dataset) + ',' + kern::kernel_isa_name(c.isa) + ',' +
           (c.blocked ? "blocked" : "pattern-major") + ',' +
           (c.repeats ? "on" : "off") + ',' + fmt(c.ms) + ',' +
           fmt(c.ms > 0.0 ? ref / c.ms : 0.0) + '\n';
  }
  std::printf("\n  [GATE] simd   %s + blocked vs scalar + pattern-major: "
              "%.2fx (>= 1.5x required) %s\n",
              kern::kernel_isa_name(best), simd_speedup,
              gate_simd ? "PASS" : "FAIL");
  std::printf("  [GATE] repeats on vs off (duplicate-heavy, pattern-major): "
              "%.2fx (>= 2x required) %s   hit rate %.1f%%\n\n",
              repeat_speedup, gate_repeats ? "PASS" : "FAIL",
              100.0 * hit_rate);
  raxh::bench::write_output("kernel_matrix.csv", csv);

  std::string matrix_json;
  for (const auto& c : cells) {
    if (!matrix_json.empty()) matrix_json += ',';
    matrix_json += std::string("{\"dataset\":\"") + c.dataset +
                   "\",\"kernels\":\"" + kern::kernel_isa_name(c.isa) +
                   "\",\"layout\":\"" +
                   (c.blocked ? "blocked" : "pattern-major") +
                   "\",\"repeats\":" + (c.repeats ? "true" : "false") +
                   ",\"eval_ms\":" + fmt(c.ms) + '}';
  }
  return "\"simd_speedup\":" + fmt(simd_speedup) +
         ",\"repeat_speedup\":" + fmt(repeat_speedup) +
         ",\"repeat_hit_rate\":" + fmt(hit_rate) +
         ",\"gate_simd_1p5x\":" + (gate_simd ? "true" : "false") +
         ",\"gate_repeats_2x\":" + (gate_repeats ? "true" : "false") +
         ",\"matrix\":[" + matrix_json + "]," + kern::to_json_section();
}

}  // namespace

int main(int argc, char** argv) {
  const std::string matrix_extra = run_kernel_matrix();
  return raxh::bench::gbench_main_with_summary("kernels", argc, argv,
                                               matrix_extra);
}
