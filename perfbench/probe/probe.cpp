// perfbench_probe: the benchmark's in-process half. run.py drives the real
// `raxh`/`raxhd` binaries for the end-to-end metrics; this tool calls the
// program's public API for what cannot be seen from outside a process:
//
//   make-alignment  a workload input from simulate_alignment
//   setup       parse + compress + engine construction, repeated (setup_s)
//   pipeline    run_hybrid_comprehensive on thread-backed ranks; with
//               -traced, obs on and every rank wrapped in the timing Comm
//   replay      per-layer replays of bio/model/search/tree/kernels/parallel
//               calls on the workload's inputs and settings
//   serve-setup raxhd spawn -> first accepted connection -> cold admission
//   serve-batch closed-loop client keeping jobs outstanding against raxhd
//
// Every subcommand prints one JSON object on stdout. Flags follow raxh's
// spelling (-s alignment, -np ranks, -T threads, -N bootstraps, -p/-x seeds).
#include <fcntl.h>
#include <spawn.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cinttypes>
#include <csignal>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <functional>
#include <map>
#include <mutex>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "bio/io.h"
#include "bio/patterns.h"
#include "bio/seqsim.h"
#include "core/hybrid.h"
#include "core/job_context.h"
#include "core/schedule.h"
#include "likelihood/engine.h"
#include "likelihood/kernels.h"
#include "likelihood/repeats.h"
#include "minimpi/comm.h"
#include "model/gtr.h"
#include "model/rates.h"
#include "obs/live.h"
#include "obs/obs.h"
#include "parallel/workforce.h"
#include "search/bootstrap.h"
#include "search/parsimony.h"
#include "search/spr.h"
#include "serve/client.h"
#include "trace.h"
#include "tree/bipartition.h"
#include "tree/bootstopping.h"
#include "tree/consensus.h"
#include "tree/tree.h"
#include "util/aligned.h"
#include "util/cli.h"
#include "util/log.h"
#include "util/prng.h"

extern char** environ;

namespace perfbench {
namespace {

using raxh::CliParser;
using raxh::PatternAlignment;

// --- small helpers ---------------------------------------------------------

double seconds_since(std::uint64_t t0) { return (now_ns() - t0) * 1e-9; }

// Every numeric flag run.py passes is required, so each value is written once,
// in run.py's WORKLOADS table.
long long required_int(const CliParser& cli, const char* flag) {
  if (!cli.value(flag)) throw std::runtime_error(std::string("missing -") + flag);
  return cli.int_or(flag, 0);
}

double required_double(const CliParser& cli, const char* flag) {
  if (!cli.value(flag)) throw std::runtime_error(std::string("missing -") + flag);
  return cli.double_or(flag, 0.0);
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

std::string json_str(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (c == '\n') {
      out += "\\n";
      continue;
    }
    out += c;
  }
  return out + "\"";
}

std::string json_num(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

// Exact bits of a double, so run.py can compare lnLs bit for bit.
std::string bits_hex(double v) {
  std::uint64_t u = 0;
  std::memcpy(&u, &v, sizeof u);
  char buf[32];
  std::snprintf(buf, sizeof buf, "%016" PRIx64, u);
  return buf;
}

// Builds one flat JSON object in insertion order.
class JsonObject {
 public:
  JsonObject& num(const std::string& k, double v) {
    return raw(k, json_num(v));
  }
  JsonObject& str(const std::string& k, const std::string& v) {
    return raw(k, json_str(v));
  }
  JsonObject& raw(const std::string& k, const std::string& v) {
    if (!body_.empty()) body_ += ',';
    body_ += json_str(k) + ":" + v;
    return *this;
  }
  [[nodiscard]] std::string text() const { return "{" + body_ + "}"; }

 private:
  std::string body_;
};

std::string json_num_array(const std::vector<double>& v) {
  std::string out = "[";
  for (std::size_t i = 0; i < v.size(); ++i) {
    out += i ? "," : "";
    out += json_num(v[i]);
  }
  return out + "]";
}

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw std::runtime_error("cannot open " + path);
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

// Times fn() in batches until `budget_s` is spent (at least five batches),
// returning the median seconds per call.
double median_call_s(const std::function<void()>& fn, int calls_per_batch,
                     double budget_s) {
  std::vector<double> per_call;
  const std::uint64_t t_begin = now_ns();
  while (per_call.size() < 5 ||
         seconds_since(t_begin) < budget_s) {
    const std::uint64_t t0 = now_ns();
    for (int i = 0; i < calls_per_batch; ++i) fn();
    per_call.push_back(seconds_since(t0) / calls_per_batch);
    if (per_call.size() >= 1000) break;
  }
  return median(per_call);
}

struct Analysis {
  std::string alignment;
  int nranks = 0;
  int threads = 0;
  int bootstraps = 0;
  std::int64_t parsimony_seed = 0;
  std::int64_t bootstrap_seed = 0;
};

Analysis analysis_from(const CliParser& cli) {
  Analysis a;
  a.alignment = cli.value_or("s", "");
  if (a.alignment.empty()) throw std::runtime_error("missing -s alignment");
  a.nranks = static_cast<int>(required_int(cli, "np"));
  a.threads = static_cast<int>(required_int(cli, "T"));
  a.bootstraps = static_cast<int>(required_int(cli, "N"));
  a.parsimony_seed = required_int(cli, "p");
  a.bootstrap_seed = required_int(cli, "x");
  return a;
}

// Model setup exactly as run_comprehensive_rank does it.
raxh::GtrParams empirical_gtr(const PatternAlignment& pa) {
  raxh::GtrParams gtr;
  gtr.freqs = pa.empirical_frequencies();
  return gtr;
}

// --- make-alignment --------------------------------------------------------

// A workload's input: one fixed simulation per set of sizes. The generating
// tree and the columns both come from kAlignmentSeed, so the benchmark's
// --seed varies only the analysis seeds, and the final lnL of every run
// measures the search on the same data.
constexpr std::uint64_t kAlignmentSeed = 1;

int cmd_make_alignment(const CliParser& cli) {
  const std::string out = cli.value_or("o", "");
  if (out.empty()) throw std::runtime_error("missing -o output path");
  raxh::SimConfig cfg;
  cfg.taxa = static_cast<std::size_t>(required_int(cli, "taxa"));
  cfg.distinct_sites = static_cast<std::size_t>(required_int(cli, "distinct"));
  cfg.total_sites = static_cast<std::size_t>(required_int(cli, "sites"));
  cfg.mean_branch_length = required_double(cli, "mean-branch");
  cfg.seed = kAlignmentSeed;
  raxh::SimConfig tree_cfg = cfg;
  tree_cfg.distinct_sites = tree_cfg.total_sites = 1;
  cfg.tree_newick = raxh::simulate_alignment(tree_cfg).true_tree_newick;
  raxh::write_phylip_file(out, raxh::simulate_alignment(cfg).alignment);
  return 0;
}

// --- setup -----------------------------------------------------------------

// setup_s for the one-shot workloads: what raxh pays before its first search
// unit (parse, pattern compression, crew + CAT engine construction).
int cmd_setup(const CliParser& cli) {
  const Analysis a = analysis_from(cli);
  const int reps = static_cast<int>(required_int(cli, "reps"));
  std::vector<double> total;
  for (int r = 0; r < reps; ++r) {
    const std::uint64_t t0 = now_ns();
    const PatternAlignment pa =
        PatternAlignment::compress(raxh::read_phylip_file(a.alignment));
    raxh::Workforce crew(a.threads);
    const raxh::LikelihoodEngine engine(
        pa, empirical_gtr(pa), raxh::RateModel::cat(pa.num_patterns()),
        a.threads > 1 ? &crew : nullptr);
    total.push_back(seconds_since(t0));
  }
  JsonObject out;
  out.raw("setup_s", json_num_array(total));
  std::printf("%s\n", out.text().c_str());
  return 0;
}

// --- pipeline --------------------------------------------------------------

// One comprehensive analysis through the public run_hybrid_comprehensive on
// thread-backed ranks, configured as raxh -f a configures it.
int cmd_pipeline(const CliParser& cli) {
  const Analysis a = analysis_from(cli);
  const bool traced = cli.has("traced");
  const PatternAlignment pa =
      PatternAlignment::compress(raxh::read_phylip_file(a.alignment));

  raxh::HybridOptions options;
  options.analysis.specified_bootstraps = a.bootstraps;
  options.analysis.parsimony_seed = a.parsimony_seed;
  options.analysis.bootstrap_seed = a.bootstrap_seed;
  options.analysis.num_threads = a.threads;
  options.compute_support = true;
  options.run_bootstopping = true;

  // Several ranks share this process, so none may own process globals.
  std::vector<std::unique_ptr<raxh::obs::LiveModel>> live;
  raxh::JobContext ctx;
  ctx.parsimony_seed = a.parsimony_seed;
  ctx.bootstrap_seed = a.bootstrap_seed;
  ctx.use_seed_chain = true;
  ctx.owns_process_globals = false;
  for (int r = 0; r < a.nranks; ++r) {
    live.push_back(std::make_unique<raxh::obs::LiveModel>());
    ctx.live_models.push_back(live.back().get());
  }

  std::mutex mu;
  raxh::HybridResult result;
  std::vector<raxh::mpi::Comm::Stats> stats(static_cast<std::size_t>(a.nranks));

  if (traced) raxh::obs::set_enabled(true);
  const raxh::obs::CounterSnapshot before = raxh::obs::counters_snapshot();
  const std::uint64_t fallbacks_before = raxh::kern::fallback_count();
  const std::uint64_t t0 = now_ns();
  raxh::mpi::run_thread_ranks(a.nranks, [&](raxh::mpi::Comm& inner) {
    std::unique_ptr<TimedComm> timed;
    if (traced) timed = std::make_unique<TimedComm>(inner);
    raxh::mpi::Comm& comm = timed ? *timed : inner;
    raxh::HybridResult r;
    {
      ScopedSpan span("core.rank");
      r = raxh::run_hybrid_comprehensive(ctx, comm, pa, options);
    }
    std::lock_guard<std::mutex> lock(mu);
    stats[static_cast<std::size_t>(comm.rank())] = comm.stats();
    if (comm.rank() == 0) result = std::move(r);
  });
  const double wall = seconds_since(t0);
  const raxh::obs::CounterSnapshot after = raxh::obs::counters_snapshot();
  raxh::obs::set_enabled(false);
  const auto delta = [&](raxh::obs::Counter c) {
    return static_cast<double>(after[c] - before[c]);
  };

  JsonObject out;
  out.num("wall_s", wall)
      .str("lnl_bits", bits_hex(result.best_lnl))
      .num("lnl", result.best_lnl)
      .str("best_tree", result.best_tree_newick)
      .str("support_tree", result.support_tree_newick)
      .str("kernel_isa", raxh::kern::kernel_isa_name(raxh::kern::kernel_isa()))
      .num("kernel_fallbacks",
           static_cast<double>(raxh::kern::fallback_count() - fallbacks_before));
  std::string bits = "[";
  for (std::size_t i = 0; i < result.rank_lnls.size(); ++i) {
    bits += i ? "," : "";
    bits += json_str(bits_hex(result.rank_lnls[i]));
  }
  out.raw("rank_lnl_bits", bits + "]");
  const std::pair<const char*, double raxh::StageTimes::*> stages[] = {
      {"bootstrap", &raxh::StageTimes::bootstrap},
      {"fast", &raxh::StageTimes::fast},
      {"slow", &raxh::StageTimes::slow},
      {"thorough", &raxh::StageTimes::thorough}};
  for (const auto& [stage, field] : stages) {
    std::vector<double> v;
    for (const raxh::StageTimes& t : result.rank_times) v.push_back(t.*field);
    out.raw(std::string("stage_") + stage + "_s", json_num_array(v));
  }
  if (traced) {
    using C = raxh::obs::Counter;
    out.num("newview_calls", delta(C::kNewviewCalls))
        .num("evaluate_calls", delta(C::kEvaluateCalls))
        .num("derivative_calls", delta(C::kDerivativeCalls))
        .num("patterns_evaluated", delta(C::kPatternsEvaluated))
        .num("crew_jobs", delta(C::kWorkforceJobs))
        .num("crew_barrier_wait_s", delta(C::kBarrierWaitNs) * 1e-9)
        .num("repeat_computed", delta(C::kRepeatPatternsComputed))
        .num("repeat_copied", delta(C::kRepeatPatternsCopied));
    raxh::mpi::Comm::OpStats total;
    std::map<std::string, double> op_msgs;
    double barrier_wait_max = 0.0;
    for (const auto& s : stats) {
      const auto t = s.total();
      total.msgs_sent += t.msgs_sent;
      total.bytes_sent += t.bytes_sent;
      op_msgs["p2p"] += static_cast<double>(s.p2p.msgs_sent);
      op_msgs["barrier"] += static_cast<double>(s.barrier.msgs_sent);
      op_msgs["bcast"] += static_cast<double>(s.bcast.msgs_sent);
      op_msgs["reduce"] += static_cast<double>(s.reduce.msgs_sent);
      op_msgs["gather"] += static_cast<double>(s.gather.msgs_sent);
      barrier_wait_max =
          std::max(barrier_wait_max, s.barrier_wait_ns * 1e-9);
    }
    out.num("comm_msgs", static_cast<double>(total.msgs_sent))
        .num("comm_bytes", static_cast<double>(total.bytes_sent))
        .num("comm_barrier_wait_s", barrier_wait_max);
    for (const auto& [op, n] : op_msgs) out.num("comm_" + op + "_msgs", n);
    const SpanLog& spans = SpanLog::instance();
    out.num("comm_send_s", spans.totals("minimpi.send").total_s)
        .num("comm_recv_s", spans.totals("minimpi.recv").total_s);
    const std::string spans_out = cli.value_or("spans-out", "");
    if (!spans_out.empty())
      std::ofstream(spans_out) << SpanLog::instance().to_json() << '\n';
  }
  std::printf("%s\n", out.text().c_str());
  return 0;
}

// --- replay ----------------------------------------------------------------

struct KernelTimes {
  double newview = 0, evaluate = 0, derivs = 0, sumtable = 0;  // ns/pattern
};

// Replays the public kern:: entry points over the workload's own patterns:
// a tip-tip, a tip-inner and an inner-inner newview, then evaluate, the NR
// sumtable and NR derivatives across the inner-inner edge. Single-threaded:
// the figure is the per-pattern cost of the member that runs.
KernelTimes replay_kernels(const PatternAlignment& pa,
                           const raxh::RateModel& rates,
                           const raxh::GtrModel& model,
                           raxh::kern::ClvLayout clv_layout) {
  namespace kern = raxh::kern;
  const std::size_t npat = pa.num_patterns();
  const bool cat = rates.kind() == raxh::RateKind::kCat;
  kern::RateLayout lay;
  lay.ncat_model = rates.num_categories();
  lay.clv_cats = cat ? 1 : rates.num_categories();
  if (cat) lay.pattern_cat = rates.pattern_categories().data();
  std::vector<double> cat_weights(static_cast<std::size_t>(lay.ncat_model),
                                  1.0 / lay.ncat_model);
  if (!cat) lay.cat_weights = cat_weights.data();
  lay.clv_layout = clv_layout;
  lay.padded_patterns = clv_layout == kern::ClvLayout::kBlocked
                            ? kern::RateLayout::padded_rows(npat)
                            : npat;

  const auto ncat = static_cast<std::size_t>(lay.ncat_model);
  std::vector<double> pmat_a(ncat * 16), pmat_b(ncat * 16);
  for (std::size_t c = 0; c < ncat; ++c) {
    const auto pa_c = model.transition_matrix(0.05, rates.rate(static_cast<int>(c)));
    const auto pb_c = model.transition_matrix(0.15, rates.rate(static_cast<int>(c)));
    std::copy(pa_c.begin(), pa_c.end(), pmat_a.begin() + c * 16);
    std::copy(pb_c.begin(), pb_c.end(), pmat_b.begin() + c * 16);
  }
  std::vector<double> look_a(ncat * 64), look_b(ncat * 64);
  kern::build_tip_lookup(pmat_a.data(), lay.ncat_model, look_a.data());
  kern::build_tip_lookup(pmat_b.data(), lay.ncat_model, look_b.data());

  const std::size_t stride = lay.clv_stride(npat);
  raxh::AlignedVector<double> clv1(stride), clv2(stride), clv3(stride),
      sumtable(stride);
  std::vector<int> sc1(npat), sc2(npat), sc3(npat);
  const auto tip0 = pa.row(0).data();
  const auto tip1 = pa.row(1).data();
  const auto tip2 = pa.row(2).data();
  const std::vector<int> weights(pa.weights().begin(), pa.weights().end());
  const double* freqs = model.freqs().data();

  const auto newview_all = [&] {
    kern::newview_tip_tip(lay, 0, npat, tip0, tip1, look_a.data(),
                          look_b.data(), clv1.data(), sc1.data());
    kern::newview_tip_inner(lay, 0, npat, tip2, look_a.data(), clv1.data(),
                            sc1.data(), pmat_b.data(), clv2.data(),
                            sc2.data());
    kern::newview_inner_inner(lay, 0, npat, clv1.data(), sc1.data(),
                              pmat_a.data(), clv2.data(), sc2.data(),
                              pmat_b.data(), clv3.data(), sc3.data());
  };
  newview_all();  // warm the buffers; later ops read these CLVs

  // Scale the batch so one batch is ~1 ms of work whatever the width.
  const int calls = std::max(1, static_cast<int>(200000 / std::max<std::size_t>(npat, 1)));
  constexpr double kBudget = 0.15;
  KernelTimes t;
  const double per_pattern = 1e9 / static_cast<double>(npat);
  {
    ScopedSpan span("kernels.newview");
    t.newview = median_call_s(newview_all, calls, kBudget) * per_pattern / 3;
  }
  volatile double sink = 0.0;
  {
    ScopedSpan span("kernels.evaluate");
    t.evaluate = median_call_s(
                     [&] {
                       sink = sink + kern::evaluate_inner_inner(
                                         lay, 0, npat, freqs, clv2.data(),
                                         sc2.data(), pmat_a.data(), clv3.data(),
                                         sc3.data(), weights.data(), nullptr);
                     },
                     calls, kBudget) *
                 per_pattern;
  }
  const auto sumtable_once = [&] {
    kern::edge_sumtable_inner_inner(lay, 0, npat, freqs,
                                    model.right_vectors().data(),
                                    model.left_vectors().data(), clv2.data(),
                                    clv3.data(), sumtable.data());
  };
  {
    ScopedSpan span("kernels.sumtable");
    t.sumtable = median_call_s(sumtable_once, calls, kBudget) * per_pattern;
  }
  sumtable_once();
  {
    ScopedSpan span("kernels.derivs");
    t.derivs = median_call_s(
                   [&] {
                     const auto d = kern::nr_derivatives(
                         lay, 0, npat, sumtable.data(),
                         model.eigenvalues().data(), rates.rates().data(),
                         0.1, weights.data(), nullptr);
                     sink = sink + d.d1;
                   },
                   calls, kBudget) *
               per_pattern;
  }
  return t;
}

// Computed (not measured) traffic and arithmetic of one inner-inner newview
// per pattern: two child CLVs read and one written, three scale counts, and
// per stored category two 4x4 matrix-vector products plus the elementwise
// product of the results.
void newview_model(int clv_cats, double* bytes, double* flops) {
  *bytes = 3.0 * clv_cats * 4 * sizeof(double) + 3.0 * sizeof(int);
  *flops = clv_cats * (2.0 * 4 * (4 + 3) + 4);
}

int cmd_replay(const CliParser& cli) {
  const Analysis a = analysis_from(cli);
  const std::string best_tree_nwk = cli.value_or("best-tree", "");
  JsonObject out;

  // bio: parse + compress.
  PatternAlignment pa =
      PatternAlignment::compress(raxh::read_phylip_file(a.alignment));
  {
    ScopedSpan span("bio");
    out.num("bio.parse_s",
            median_call_s([&] { (void)raxh::read_phylip_file(a.alignment); },
                          1, 0.3));
    const raxh::Alignment aln = raxh::read_phylip_file(a.alignment);
    out.num("bio.compress_s",
            median_call_s([&] { (void)PatternAlignment::compress(aln); }, 1,
                          0.3));
  }
  const std::size_t npat = pa.num_patterns();
  out.num("bio.patterns", static_cast<double>(npat))
      .num("bio.sites", static_cast<double>(pa.num_sites()))
      .num("bio.taxa", static_cast<double>(pa.num_taxa()));

  // search + core: rank 0's share of the comprehensive analysis, replayed
  // stage by stage from the public pieces run_comprehensive_rank uses, with
  // the searches climbing against a timing Evaluator. Every rank's
  // bootstraps are replayed too, so the serial tail has its input.
  // The stage settings raxh -f a runs with.
  const raxh::ComprehensiveOptions stage_defaults;
  const raxh::HybridSchedule schedule =
      raxh::make_schedule(a.bootstraps, a.nranks);
  const raxh::StageCounts counts = schedule.per_rank;
  raxh::Workforce crew(a.threads);
  raxh::Workforce* crew_ptr = a.threads > 1 ? &crew : nullptr;
  std::vector<std::string> replicate_newicks;
  double rank0_lnl = 0.0;
  raxh::GtrParams fitted_gtr = empirical_gtr(pa);
  raxh::RateModel fitted_cat = raxh::RateModel::cat(npat);
  raxh::SearchStats search_stats;
  double parsimony_s = 0.0;
  for (int r = 0; r < a.nranks; ++r) {
    const raxh::RankSeeds seeds =
        raxh::seeds_for_rank(a.parsimony_seed, a.bootstrap_seed, r);
    raxh::LikelihoodEngine cat_engine(pa, empirical_gtr(pa),
                                      raxh::RateModel::cat(npat), crew_ptr);
    std::vector<raxh::BootstrapReplicate> replicates;
    {
      ScopedSpan span("core.bootstrap");
      raxh::RapidBootstrap bootstrapper(cat_engine, pa, seeds.bootstrap_seed,
                                        seeds.parsimony_seed);
      replicates = bootstrapper.run(counts.bootstraps);
    }
    for (const auto& rep : replicates)
      replicate_newicks.push_back(rep.tree.to_newick(pa.names()));
    if (r != 0) continue;

    // Parsimony starting trees as the bootstrap stage builds them, one per
    // replicate, timed on their own (RapidBootstrap does not expose them).
    {
      ScopedSpan span("search.parsimony");
      const std::uint64_t t0 = now_ns();
      raxh::Lcg rng(seeds.parsimony_seed);
      for (int i = 0; i < counts.bootstraps; ++i)
        (void)raxh::randomized_stepwise_addition(pa, pa.weights(), rng);
      parsimony_s = seconds_since(t0);
    }

    raxh::EngineEvaluator engine_eval(cat_engine);
    TimedEvaluator evaluator(engine_eval);
    const auto search = [&](raxh::Tree& tree,
                            const raxh::SearchSettings& settings) {
      ScopedSpan span("search.spr");
      raxh::SprSearch spr(evaluator, settings);
      const double lnl = spr.run(tree);
      search_stats.moves_tried += spr.stats().moves_tried;
      search_stats.moves_accepted += spr.stats().moves_accepted;
      return lnl;
    };
    struct Scored {
      raxh::Tree tree;
      double lnl;
    };
    std::vector<Scored> fast, slow;
    {
      ScopedSpan span("core.fast");
      std::vector<std::size_t> order(replicates.size());
      for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
      std::sort(order.begin(), order.end(), [&](std::size_t x, std::size_t y) {
        return replicates[x].lnl > replicates[y].lnl;
      });
      cat_engine.reset_weights();
      for (std::size_t i = 0;
           i < static_cast<std::size_t>(counts.fast_searches) &&
           i < order.size();
           ++i) {
        raxh::Tree tree = replicates[order[i]].tree;
        {
          ScopedSpan cat_span("likelihood.optimize_cat_rates");
          cat_engine.optimize_cat_rates(tree);
        }
        const double lnl = search(tree, stage_defaults.fast);
        fast.push_back(Scored{std::move(tree), lnl});
      }
    }
    {
      ScopedSpan span("core.slow");
      std::sort(fast.begin(), fast.end(), [](const Scored& x, const Scored& y) {
        return x.lnl > y.lnl;
      });
      for (std::size_t i = 0;
           i < static_cast<std::size_t>(counts.slow_searches) && i < fast.size();
           ++i) {
        raxh::Tree tree = fast[i].tree;
        const double lnl = search(tree, stage_defaults.slow);
        slow.push_back(Scored{std::move(tree), lnl});
      }
    }
    {
      ScopedSpan span("core.thorough");
      const auto best = std::max_element(
          slow.begin(), slow.end(),
          [](const Scored& x, const Scored& y) { return x.lnl < y.lnl; });
      const raxh::Tree slow_best = best->tree;
      raxh::Tree searched = slow_best;
      search(searched, stage_defaults.thorough);
      raxh::LikelihoodEngine gamma_engine(pa, cat_engine.gtr(),
                                          raxh::RateModel::gamma(stage_defaults.initial_alpha),
                                          crew_ptr);
      ScopedSpan gamma_span("likelihood.optimize_all");
      rank0_lnl = gamma_engine.optimize_all(searched, 0.02, 5);
      raxh::Tree fallback = slow_best;
      rank0_lnl = std::max(rank0_lnl, gamma_engine.optimize_all(fallback, 0.02, 5));
      fitted_gtr = gamma_engine.gtr();
    }
    fitted_cat = cat_engine.rates();
  }
  out.str("replay.rank0_lnl_bits", bits_hex(rank0_lnl));

  const SpanLog& spans = SpanLog::instance();
  const auto total_of = [&](const char* name) {
    return spans.totals(name).total_s;
  };
  out.num("search.parsimony_s", parsimony_s)
      .num("search.self_s", spans.totals("search.spr").self_s)
      .num("search.moves_tried", static_cast<double>(search_stats.moves_tried))
      .num("search.moves_accepted",
           static_cast<double>(search_stats.moves_accepted))
      .num("search.accept_share",
           search_stats.moves_tried > 0
               ? static_cast<double>(search_stats.moves_accepted) /
                     static_cast<double>(search_stats.moves_tried)
               : 0.0)
      .num("likelihood.evaluate_s", total_of("likelihood.evaluate"))
      .num("likelihood.optimize_branch_s",
           total_of("likelihood.optimize_branch"))
      .num("likelihood.smooth_s", total_of("likelihood.smooth"))
      .num("likelihood.optimize_model_s",
           total_of("likelihood.optimize_model"));

  // tree: rank 0's serial tail on the replayed replicates.
  if (!best_tree_nwk.empty()) {
    std::vector<raxh::Tree> trees;
    for (const auto& nwk : replicate_newicks)
      trees.push_back(raxh::Tree::parse_newick(nwk, pa.names()));
    const raxh::Tree best = raxh::Tree::parse_newick(best_tree_nwk, pa.names());
    std::string support;
    {
      ScopedSpan span("tree.consensus");
      out.num("tree.consensus_s", median_call_s(
                                      [&] {
                                        raxh::BipartitionTable table;
                                        for (const auto& t : trees)
                                          table.add_tree(t);
                                        support = raxh::annotate_support(
                                            best, pa.names(), table);
                                      },
                                      1, 0.2));
    }
    out.str("replay.support_tree", support);
    if (trees.size() >= 2) {
      ScopedSpan span("tree.bootstop");
      out.num("tree.bootstop_s",
              median_call_s([&] { (void)raxh::frequency_criterion(trees); }, 1,
                            0.2));
    } else {
      out.num("tree.bootstop_s", 0.0);
    }
  }

  // model: GTR construction (eigendecomposition) and one P matrix.
  {
    ScopedSpan span("model");
    out.num("model.gtr_build_us",
            1e6 * median_call_s([&] { raxh::GtrModel m(fitted_gtr); }, 200,
                                0.2));
    const raxh::GtrModel model(fitted_gtr);
    double t = 0.01;
    volatile double sink = 0.0;
    out.num("model.pmatrix_ns", 1e9 * median_call_s(
                                          [&] {
                                            t = t < 1.0 ? t * 1.01 : 0.01;
                                            sink = sink +
                                                   model.transition_matrix(t)[5];
                                          },
                                          2000, 0.2));
  }

  // kernels: CAT as the searches run it, GAMMA as the final evaluation runs
  // it, each in the CLV layout the engine picks for that model.
  {
    const raxh::GtrModel model(fitted_gtr);
    const raxh::RateModel gamma = raxh::RateModel::gamma(stage_defaults.initial_alpha);
    const auto layout_of = [&](const raxh::RateModel& rates) {
      raxh::LikelihoodEngine probe(pa, fitted_gtr, rates, nullptr);
      return probe.clv_layout();
    };
    const KernelTimes kc =
        replay_kernels(pa, fitted_cat, model, layout_of(fitted_cat));
    const KernelTimes kg = replay_kernels(pa, gamma, model, layout_of(gamma));
    double bytes = 0, flops = 0;
    newview_model(1, &bytes, &flops);
    out.num("kernels.newview_ns_per_pattern", kc.newview)
        .num("kernels.evaluate_ns_per_pattern", kc.evaluate)
        .num("kernels.derivs_ns_per_pattern", kc.derivs)
        .num("kernels.sumtable_ns_per_pattern", kc.sumtable)
        .num("kernels.bytes_per_pattern_computed", bytes)
        .num("kernels.flops_per_byte_computed", flops / bytes);
    newview_model(gamma.num_categories(), &bytes, &flops);
    out.num("kernels.gamma.newview_ns_per_pattern", kg.newview)
        .num("kernels.gamma.evaluate_ns_per_pattern", kg.evaluate)
        .num("kernels.gamma.derivs_ns_per_pattern", kg.derivs)
        .num("kernels.gamma.sumtable_ns_per_pattern", kg.sumtable)
        .num("kernels.gamma.bytes_per_pattern_computed", bytes)
        .num("kernels.gamma.flops_per_byte_computed", flops / bytes)
        .str("kernels.cat_layout",
             raxh::kern::clv_layout_name(layout_of(fitted_cat)))
        .str("kernels.gamma_layout",
             raxh::kern::clv_layout_name(layout_of(gamma)));
    // CLV bytes the engines allocate (taxa - 2 inner slots), against L2.
    raxh::kern::RateLayout cat_lay, gamma_lay;
    cat_lay.clv_layout = layout_of(fitted_cat);
    gamma_lay.clv_cats = gamma.num_categories();
    gamma_lay.clv_layout = layout_of(gamma);
    const double slots = static_cast<double>(pa.num_taxa() - 2);
    out.num("clv_bytes_cat", slots * cat_lay.clv_stride(npat) * sizeof(double))
        .num("clv_bytes_gamma",
             slots * gamma_lay.clv_stride(npat) * sizeof(double))
        .num("l2_bytes_per_core",
             static_cast<double>(::sysconf(_SC_LEVEL2_CACHE_SIZE)));
  }

  // parallel: full-tree GAMMA evaluate throughput at T against T=1.
  if (a.threads > 1) {
    ScopedSpan span("parallel.scaling");
    raxh::Lcg rng(a.parsimony_seed);
    const raxh::Tree tree =
        raxh::randomized_stepwise_addition(pa, pa.weights(), rng);
    const auto throughput = [&](raxh::Workforce* w) {
      raxh::LikelihoodEngine engine(pa, fitted_gtr, raxh::RateModel::gamma(stage_defaults.initial_alpha),
                                    w);
      return 1.0 / median_call_s(
                       [&] {
                         engine.invalidate_all();
                         (void)engine.evaluate(tree);
                       },
                       1, 0.3);
    };
    const double serial = throughput(nullptr);
    const double parallel = throughput(&crew);
    out.num("parallel.crew_scaling_eff", parallel / (a.threads * serial));
  } else {
    out.num("parallel.crew_scaling_eff", 1.0);
  }

  out.str("kernel_isa", raxh::kern::kernel_isa_name(raxh::kern::kernel_isa()));
  const std::string spans_out = cli.value_or("spans-out", "");
  if (!spans_out.empty())
    std::ofstream(spans_out) << SpanLog::instance().to_json() << '\n';
  std::printf("%s\n", out.text().c_str());
  return 0;
}

// --- serve -----------------------------------------------------------------

raxh::serve::JobRequest job_request(const Analysis& a,
                                    const std::string& alignment_bytes,
                                    std::int64_t seed, const std::string& name) {
  raxh::serve::JobRequest req;
  req.name = name;
  req.alignment = alignment_bytes;
  req.nranks = a.nranks;
  req.num_threads = a.threads;
  req.bootstraps = a.bootstraps;
  req.parsimony_seed = seed;
  req.bootstrap_seed = seed;
  return req;
}

// The daemon was just spawned by the caller; wait (bounded) until it listens.
raxh::serve::Client connect_when_ready(const std::string& socket) {
  const std::uint64_t t0 = now_ns();
  for (;;) {
    try {
      return raxh::serve::Client::connect_unix(socket);
    } catch (const std::exception&) {
      if (seconds_since(t0) > 30) throw;
      std::this_thread::sleep_for(std::chrono::microseconds(200));
    }
  }
}

// A raxhd child with its output discarded. The destructor terminates and
// reaps it unless wait() already has.
class SpawnedDaemon {
 public:
  SpawnedDaemon(const std::string& raxhd, const std::string& socket) {
    const std::string socket_flag = "--socket=" + socket;
    const char* argv[] = {raxhd.c_str(), socket_flag.c_str(), "--jobs=1",
                          "--log-level=error", nullptr};
    posix_spawn_file_actions_t quiet;
    posix_spawn_file_actions_init(&quiet);
    posix_spawn_file_actions_addopen(&quiet, 1, "/dev/null", O_WRONLY, 0);
    posix_spawn_file_actions_adddup2(&quiet, 1, 2);
    const int spawned = posix_spawn(&pid_, raxhd.c_str(), &quiet, nullptr,
                                    const_cast<char* const*>(argv), environ);
    posix_spawn_file_actions_destroy(&quiet);
    if (spawned != 0) throw std::runtime_error("cannot spawn " + raxhd);
  }
  ~SpawnedDaemon() {
    if (pid_ <= 0) return;
    ::kill(pid_, SIGTERM);
    wait();
  }
  SpawnedDaemon(const SpawnedDaemon&) = delete;
  SpawnedDaemon& operator=(const SpawnedDaemon&) = delete;

  void wait() {
    ::waitpid(pid_, nullptr, 0);
    pid_ = 0;
  }

 private:
  pid_t pid_ = 0;
};

// setup_s for the serving workload: spawn raxhd, time until it accepts a
// connection, then time the first (cold) admission of the workload's
// alignment; repeated `reps` times with a fresh daemon each time.
int cmd_serve_setup(const CliParser& cli) {
  const Analysis a = analysis_from(cli);
  const std::string raxhd = cli.value_or("raxhd", "");
  const std::string socket = cli.value_or("socket", "setup.sock");
  const int reps = static_cast<int>(required_int(cli, "reps"));
  const std::string bytes = read_file(a.alignment);
  std::vector<double> total, admit_s;
  for (int r = 0; r < reps; ++r) {
    ::unlink(socket.c_str());
    const std::uint64_t t0 = now_ns();
    SpawnedDaemon daemon(raxhd, socket);
    raxh::serve::Client client = connect_when_ready(socket);
    const std::uint64_t t1 = now_ns();
    const std::string id = client.submit(job_request(a, bytes, 1, "setup"));
    while (client.status(id).state == raxh::serve::JobState::kQueued)
      std::this_thread::sleep_for(std::chrono::microseconds(100));
    admit_s.push_back(seconds_since(t1));
    total.push_back(seconds_since(t0));
    client.cancel(id);
    client.shutdown_server();
    daemon.wait();
  }
  JsonObject out;
  out.raw("setup_s", json_num_array(total))
      .raw("admission_s", json_num_array(admit_s))
      .str("kernel_isa", raxh::kern::kernel_isa_name(raxh::kern::kernel_isa()));
  std::printf("%s\n", out.text().c_str());
  return 0;
}

struct JobRecord {
  std::int64_t seed = 0;
  double latency_s = 0.0;
  double queue_s = 0.0;
  double run_s = 0.0;
  bool cache_hit = false;
  std::string state;
  std::string error;
  std::string lnl_bits;
  std::string best_tree;
};

// Closed loop: kClientConcurrency client threads, one connection each, each
// submitting its next job only when the previous one has returned a result.
constexpr int kClientConcurrency = 4;

int cmd_serve_batch(const CliParser& cli) {
  const Analysis a = analysis_from(cli);
  const std::string socket = cli.value_or("socket", "raxhd.sock");
  const int jobs = static_cast<int>(required_int(cli, "jobs"));
  const std::int64_t seed_base = required_int(cli, "seed-base");
  const std::string bytes = read_file(a.alignment);

  std::vector<JobRecord> records(static_cast<std::size_t>(jobs));
  std::atomic<int> next{0};
  std::atomic<bool> done{false};
  std::vector<double> scrape_s;
  const std::uint64_t t0 = now_ns();
  std::thread scraper([&] {
    raxh::serve::Client client = connect_when_ready(socket);
    while (!done.load()) {
      const std::uint64_t s0 = now_ns();
      (void)client.metrics();
      scrape_s.push_back(seconds_since(s0));
      std::this_thread::sleep_for(std::chrono::milliseconds(250));
    }
  });
  std::vector<std::thread> workers;
  for (int c = 0; c < kClientConcurrency; ++c) {
    workers.emplace_back([&] {
      raxh::serve::Client client = connect_when_ready(socket);
      for (int i = next.fetch_add(1); i < jobs; i = next.fetch_add(1)) {
        JobRecord& rec = records[static_cast<std::size_t>(i)];
        rec.seed = seed_base + i;
        try {
          const std::uint64_t s0 = now_ns();
          const std::string id = client.submit(
              job_request(a, bytes, rec.seed, "job" + std::to_string(i)));
          const raxh::serve::JobStatus st = client.stream(id);
          rec.state = raxh::serve::job_state_name(st.state);
          rec.queue_s = st.queue_s;
          rec.run_s = st.run_s;
          rec.cache_hit = st.cache_hit;
          rec.error = st.error;
          if (st.state == raxh::serve::JobState::kDone) {
            const raxh::serve::JobResult r = client.result(id);
            rec.lnl_bits = bits_hex(r.best_lnl);
            rec.best_tree = r.best_tree_newick;
          }
          rec.latency_s = seconds_since(s0);
        } catch (const std::exception& e) {
          rec.state = "error";
          rec.error = e.what();
        }
      }
    });
  }
  for (auto& w : workers) w.join();
  const double wall = seconds_since(t0);
  done.store(true);
  scraper.join();

  std::string list = "[";
  for (std::size_t i = 0; i < records.size(); ++i) {
    const JobRecord& r = records[i];
    JsonObject j;
    j.num("seed", static_cast<double>(r.seed))
        .num("latency_s", r.latency_s)
        .num("queue_s", r.queue_s)
        .num("run_s", r.run_s)
        .raw("cache_hit", r.cache_hit ? "true" : "false")
        .str("state", r.state)
        .str("error", r.error)
        .str("lnl_bits", r.lnl_bits)
        .str("best_tree", r.best_tree);
    list += i ? "," : "";
    list += j.text();
  }
  JsonObject out;
  out.num("wall_s", wall)
      .num("scrape_s", median(scrape_s))
      .num("scrapes", static_cast<double>(scrape_s.size()))
      .raw("jobs", list + "]");
  std::printf("%s\n", out.text().c_str());
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  if (argc < 2) {
    std::fprintf(stderr,
                 "usage: %s make-alignment|setup|pipeline|replay|serve-setup|"
                 "serve-batch [flags]\n",
                 argv[0]);
    return 2;
  }
  raxh::Logger::instance().set_level(raxh::LogLevel::kError);
  const std::string cmd = argv[1];
  const raxh::CliParser cli(argc - 1, argv + 1);
  try {
    if (cmd == "make-alignment") return perfbench::cmd_make_alignment(cli);
    if (cmd == "setup") return perfbench::cmd_setup(cli);
    if (cmd == "pipeline") return perfbench::cmd_pipeline(cli);
    if (cmd == "replay") return perfbench::cmd_replay(cli);
    if (cmd == "serve-setup") return perfbench::cmd_serve_setup(cli);
    if (cmd == "serve-batch") return perfbench::cmd_serve_batch(cli);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench_probe %s: %s\n", cmd.c_str(), e.what());
    return 1;
  }
  std::fprintf(stderr, "perfbench_probe: unknown subcommand %s\n", cmd.c_str());
  return 2;
}
