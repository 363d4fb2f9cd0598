#include "likelihood/engine.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdlib>
#include <cstring>

#include "obs/obs.h"
#include "util/check.h"

namespace raxh {

namespace {

// Blocked SoA is the default wherever every pattern stores the same
// categories (GAMMA / uniform); CAT's per-pattern category selects a
// different P matrix per lane, which the blocked kernels don't support.
kern::ClvLayout choose_layout(RateKind kind, std::size_t npat) {
  kern::ClvLayout layout = (kind != RateKind::kCat && npat >= kern::kBlockLanes)
                               ? kern::ClvLayout::kBlocked
                               : kern::ClvLayout::kPatternMajor;
  if (const char* env = std::getenv("RAXH_CLV_LAYOUT");
      env != nullptr && *env != '\0') {
    if (std::strcmp(env, "pattern-major") == 0)
      layout = kern::ClvLayout::kPatternMajor;
    else if (std::strcmp(env, "blocked") == 0 && kind != RateKind::kCat)
      layout = kern::ClvLayout::kBlocked;
  }
  return layout;
}

// Phase B of a repeat newview: each listed pattern's CLV row and scale
// count become its representative's. A row is `row` values kStep apart:
// contiguous under pattern-major (kStep 1), one lane of each of its block's
// planes under blocked (kStep kBlockLanes). kRow fixes the row length at
// compile time for the common CAT/uniform (4) and GAMMA (16) rows.
template <std::size_t kStep, std::size_t kRow>
void copy_rows(const RepeatCopy* copies, std::size_t n, std::size_t row,
               double* clv, int* scale) {
  const std::size_t r = kRow != 0 ? kRow : row;
  const auto base = [r](std::size_t p) {
    return kStep == 1 ? p * r : (p / kStep) * r * kStep + p % kStep;
  };
  for (std::size_t k = 0; k < n; ++k) {
    double* dst = clv + base(copies[k].dst);
    const double* src = clv + base(copies[k].src);
    for (std::size_t i = 0; i < r; ++i) dst[i * kStep] = src[i * kStep];
    scale[copies[k].dst] = scale[copies[k].src];
  }
}

void copy_repeat_rows(const kern::RateLayout& lay, const RepeatCopy* copies,
                      std::size_t n, double* clv, int* scale) {
  constexpr std::size_t kL = kern::kBlockLanes;
  const std::size_t row = static_cast<std::size_t>(lay.clv_cats) * 4;
  const bool blocked = lay.clv_layout == kern::ClvLayout::kBlocked;
  switch (row) {
    case 4:
      return blocked ? copy_rows<kL, 4>(copies, n, row, clv, scale)
                     : copy_rows<1, 4>(copies, n, row, clv, scale);
    case 16:
      return blocked ? copy_rows<kL, 16>(copies, n, row, clv, scale)
                     : copy_rows<1, 16>(copies, n, row, clv, scale);
    default:
      return blocked ? copy_rows<kL, 0>(copies, n, row, clv, scale)
                     : copy_rows<1, 0>(copies, n, row, clv, scale);
  }
}

}  // namespace

LikelihoodEngine::LikelihoodEngine(const PatternAlignment& patterns,
                                   const GtrParams& gtr, RateModel rates,
                                   Workforce* crew)
    : patterns_(&patterns),
      model_(gtr),
      rates_(std::move(rates)),
      crew_(crew) {
  const std::size_t npat = patterns_->num_patterns();
  RAXH_EXPECTS(npat > 0);
  if (rates_.kind() == RateKind::kCat)
    RAXH_EXPECTS(rates_.pattern_categories().size() == npat);

  reset_weights();

  const std::size_t slots = patterns_->num_taxa() - 2;
  clv_layout_ = choose_layout(rates_.kind(), npat);
  clv_stride_ = layout().clv_stride(npat);
  clvs_.resize(slots * clv_stride_);
  scales_.resize(slots * npat);
  slots_.resize(slots);
  record_repeats_.resize(3 * slots);

  if (rates_.kind() == RateKind::kGamma) {
    cat_weights_.assign(static_cast<std::size_t>(rates_.num_categories()),
                        1.0 / rates_.num_categories());
  }

  reset_pmat_cache();
  sumtable_.resize(clv_stride_);
  sum_scale_.resize(npat);
  per_pattern_scratch_.resize(npat);
}

int LikelihoodEngine::clv_cats() const {
  return rates_.kind() == RateKind::kGamma ? rates_.num_categories() : 1;
}

kern::RateLayout LikelihoodEngine::layout() const {
  kern::RateLayout l;
  l.ncat_model = rates_.num_categories();
  l.clv_cats = clv_cats();
  if (rates_.kind() == RateKind::kCat)
    l.pattern_cat = rates_.pattern_categories().data();
  if (rates_.kind() == RateKind::kGamma) l.cat_weights = cat_weights_.data();
  l.clv_layout = clv_layout_;
  l.padded_patterns = clv_layout_ == kern::ClvLayout::kBlocked
                          ? kern::RateLayout::padded_rows(
                                patterns_->num_patterns())
                          : patterns_->num_patterns();
  return l;
}

double* LikelihoodEngine::clv(int slot) {
  return clvs_.data() + static_cast<std::size_t>(slot) * clv_stride_;
}

int* LikelihoodEngine::scale(int slot) {
  return scales_.data() +
         static_cast<std::size_t>(slot) * patterns_->num_patterns();
}

void LikelihoodEngine::set_weights(std::span<const int> weights) {
  RAXH_EXPECTS(weights.size() == patterns_->num_patterns());
  weights_.assign(weights.begin(), weights.end());
  // Weights only enter weighted sums, not CLVs; no model-epoch bump needed.
  // They do drive the cost-aware crew partition, though.
  ++weights_epoch_;
}

void LikelihoodEngine::reset_weights() {
  const auto w = patterns_->weights();
  weights_.assign(w.begin(), w.end());
  ++weights_epoch_;
}

void LikelihoodEngine::set_gtr(const GtrParams& params) {
  model_ = GtrModel(params);
  ++model_epoch_;
}

void LikelihoodEngine::set_alpha(double alpha) {
  RAXH_EXPECTS(rates_.kind() == RateKind::kGamma);
  rates_.set_alpha(alpha);
  ++model_epoch_;
}

void LikelihoodEngine::set_cat_assignment(std::vector<double> category_rates,
                                          std::vector<int> pattern_categories) {
  RAXH_EXPECTS(rates_.kind() == RateKind::kCat);
  rates_.set_categories(std::move(category_rates),
                        std::move(pattern_categories));
  // A changed category count re-sizes the P cache on its next use.
  ++model_epoch_;
  // Under CAT, repeat classes fold in the per-pattern category, so the
  // reassignment invalidates every class array.
  ++cat_epoch_;
}

std::uint64_t LikelihoodEngine::content_version(const Tree& tree,
                                                int rec) const {
  if (tree.is_tip_record(rec)) return 0;  // tips never change content
  return slots_[static_cast<std::size_t>(tree.clv_slot(rec))].version;
}

namespace {

// Cache budget per engine. P lines take up to half of it, lookup lines the
// rest; each table has a power-of-two line count (at most 64) plus a spare.
constexpr std::size_t kPmatCacheBytes = std::size_t{512} << 10;
constexpr std::size_t kMaxCacheLines = 64;

std::size_t cache_lines(std::size_t budget, std::size_t line_bytes) {
  std::size_t lines = 1;
  while (lines * 2 <= kMaxCacheLines && (lines * 2 + 1) * line_bytes <= budget)
    lines *= 2;
  return lines;
}

// Fibonacci hashing of a branch length's bits.
std::size_t cache_hash(std::uint64_t bits) {
  return static_cast<std::size_t>((bits * 0x9E3779B97F4A7C15ull) >> 40);
}

}  // namespace

std::size_t LikelihoodEngine::CacheTable::find(const CacheKey& key,
                                               std::size_t pinned,
                                               bool* hit) const {
  // keys.size() - 1 direct-mapped lines, a power of two, then the spare.
  const std::size_t i = cache_hash(key.bits) & (keys.size() - 2);
  *hit = keys[i] == key;
  return *hit || i != pinned ? i : keys.size() - 1;
}

void LikelihoodEngine::reset_pmat_cache() {
  pmat_ncat_ = rates_.num_categories();
  const auto ncat = static_cast<std::size_t>(pmat_ncat_);
  const auto reset = [](CacheTable& t, std::size_t lines, std::size_t width) {
    t.keys.assign(lines + 1, CacheKey{});
    t.width = width;
    t.values.assign((lines + 1) * width, 0.0);
  };
  const std::size_t p_lines =
      cache_lines(kPmatCacheBytes / 2, ncat * 16 * sizeof(double));
  reset(pmats_, p_lines, ncat * 16);
  const std::size_t p_bytes = (p_lines + 1) * ncat * 16 * sizeof(double);
  reset(lookups_,
        cache_lines(kPmatCacheBytes - p_bytes, ncat * 64 * sizeof(double)),
        ncat * 64);
}

std::size_t LikelihoodEngine::pmat_cache_line(double t) const {
  return cache_hash(std::bit_cast<std::uint64_t>(t)) &
         (pmats_.keys.size() - 2);
}

std::size_t LikelihoodEngine::pmat_line(double t, std::size_t pinned) {
  if (pmat_ncat_ != rates_.num_categories()) reset_pmat_cache();
  const CacheKey key{std::bit_cast<std::uint64_t>(t), model_epoch_};
  bool hit = false;
  const std::size_t line = pmats_.find(key, pinned, &hit);
  if (hit) {
    obs::count(obs::Counter::kPmatSetsReused);
    return line;
  }
  pmats_.keys[line] = key;
  double* out = pmats_.line(line);
  for (int c = 0; c < pmat_ncat_; ++c) {
    const auto p = model_.transition_matrix(t, rates_.rate(c));
    std::copy(p.begin(), p.end(), out + static_cast<std::size_t>(c) * 16);
  }
  obs::count(obs::Counter::kPmatSetsComputed);
  return line;
}

const double* LikelihoodEngine::line_lookup(std::size_t line,
                                            const double* pinned) {
  const CacheKey& key = pmats_.keys[line];
  const std::size_t pin =
      pinned == nullptr
          ? kNoLine
          : static_cast<std::size_t>(pinned - lookups_.values.data()) /
                lookups_.width;
  bool hit = false;
  const std::size_t slot = lookups_.find(key, pin, &hit);
  double* lookup = lookups_.line(slot);
  if (!hit) {
    lookups_.keys[slot] = key;
    kern::build_tip_lookup(line_pmats(line), pmat_ncat_, lookup);
  }
  return lookup;
}

void LikelihoodEngine::refresh_partition() {
  const auto nthreads = static_cast<std::size_t>(crew_->num_threads());
  if (part_epoch_ == weights_epoch_ && part_bounds_.size() == nthreads + 1)
    return;
  const std::size_t npat = patterns_->num_patterns();
  // Per-pattern kernel cost: a GAMMA pattern stores/evaluates ncat rate
  // categories, a CAT or uniform pattern one; the pattern weight scales the
  // weighted-sum work. Uniform weights therefore reduce exactly to stripe().
  const auto cats = static_cast<std::uint64_t>(clv_cats());
  std::vector<std::uint64_t> costs(npat);
  for (std::size_t p = 0; p < npat; ++p)
    costs[p] = static_cast<std::uint64_t>(weights_[p]) * cats;
  part_bounds_ = weighted_partition(costs, crew_->num_threads());
  part_epoch_ = weights_epoch_;
}

template <typename Fn>
void LikelihoodEngine::dispatch(Fn&& fn) {
  const std::size_t npat = patterns_->num_patterns();
  if (crew_ == nullptr || crew_->num_threads() == 1) {
    obs::count(obs::Counter::kPatternsEvaluated, npat);
    fn(std::size_t{0}, npat, 0);
    return;
  }
  refresh_partition();
  crew_->run([&](int tid, int) {
    const std::size_t begin = part_bounds_[static_cast<std::size_t>(tid)];
    const std::size_t end = part_bounds_[static_cast<std::size_t>(tid) + 1];
    obs::count(obs::Counter::kPatternsEvaluated, end - begin);
    fn(begin, end, tid);
  });
}

template <typename Fn>
double LikelihoodEngine::dispatch_sum(Fn&& fn) {
  const std::size_t npat = patterns_->num_patterns();
  if (crew_ == nullptr || crew_->num_threads() == 1) {
    obs::count(obs::Counter::kPatternsEvaluated, npat);
    obs::count(obs::Counter::kReductionCalls);
    return fn(std::size_t{0}, npat, 0);
  }
  refresh_partition();
  crew_->run([&](int tid, int) {
    const std::size_t begin = part_bounds_[static_cast<std::size_t>(tid)];
    const std::size_t end = part_bounds_[static_cast<std::size_t>(tid) + 1];
    obs::count(obs::Counter::kPatternsEvaluated, end - begin);
    crew_->reduction(tid) = fn(begin, end, tid);
  });
  return crew_->sum_reduction();
}

template <typename Fn>
void LikelihoodEngine::dispatch_range(std::size_t n, Fn&& fn) {
  if (crew_ == nullptr || crew_->num_threads() == 1) {
    obs::count(obs::Counter::kPatternsEvaluated, n);
    fn(std::size_t{0}, n, 0);
    return;
  }
  crew_->run([&](int tid, int) {
    const Stripe s = stripe(n, tid, crew_->num_threads());
    obs::count(obs::Counter::kPatternsEvaluated, s.end - s.begin);
    fn(s.begin, s.end, tid);
  });
}

std::uint64_t LikelihoodEngine::repeat_version(const Tree& tree,
                                               int rec) const {
  if (tree.is_tip_record(rec)) {
    // Tip classes derive from the (immutable) tip row plus, under CAT, the
    // current category assignment.
    return rates_.kind() == RateKind::kCat ? cat_epoch_ + 1 : 1;
  }
  return repeats_of(rec).version;
}

ClassSource LikelihoodEngine::class_source(const Tree& tree, int rec) const {
  if (tree.is_tip_record(rec)) {
    const auto row = patterns_->row(static_cast<std::size_t>(rec));
    const int* pcat = rates_.kind() == RateKind::kCat
                          ? rates_.pattern_categories().data()
                          : nullptr;
    return ClassSource::tip(row.data(), pcat, rates_.num_categories());
  }
  const auto& sr = repeats_of(rec);
  return ClassSource::inner(sr.class_of.data(), sr.num_classes);
}

void LikelihoodEngine::update_repeat_classes(const Tree& tree, int rec) {
  const auto [c1, c2] = tree.children(rec);
  auto& sr = repeats_of(rec);
  const std::uint64_t v1 = repeat_version(tree, c1);
  const std::uint64_t v2 = repeat_version(tree, c2);
  if (sr.version != 0 && sr.child_rec1 == c1 &&
      sr.child_rec2 == c2 && sr.child_ver1 == v1 && sr.child_ver2 == v2 &&
      sr.cat_epoch == cat_epoch_)
    return;

  // A node's classes refine each child's, so an inactive inner child makes
  // this node inactive too; skip the combine that could not activate.
  const auto inactive = [&](int c) {
    return !tree.is_tip_record(c) && !repeats_of(c).active;
  };
  if (inactive(c1) || inactive(c2)) {
    sr.num_classes = 0;
    sr.active = false;
  } else {
    const std::size_t npat = patterns_->num_patterns();
    sr.num_classes =
        combiner_.combine(class_source(tree, c1), class_source(tree, c2), npat,
                          &sr.class_of, &sr.reps, &sr.copies);
    sr.active = sr.num_classes <=
                static_cast<std::uint32_t>(kRepeatActivationRatio *
                                           static_cast<double>(npat));
  }
  if (!sr.active) {
    // Nothing reads an inactive record's arrays (its parents skip their
    // combine), so only active records hold pattern-sized memory.
    sr.class_of = {};
    sr.reps = {};
    sr.copies = {};
  }
  sr.child_rec1 = c1;
  sr.child_rec2 = c2;
  sr.child_ver1 = v1;
  sr.child_ver2 = v2;
  sr.cat_epoch = cat_epoch_;
  sr.version = ++repeat_version_counter_;
}

std::uint32_t LikelihoodEngine::repeat_classes(const Tree& tree,
                                               int rec) const {
  if (tree.is_tip_record(rec)) return 0;
  const auto& sr = repeats_of(rec);
  return sr.active ? sr.num_classes : 0;
}

std::uint64_t LikelihoodEngine::edge_scale_total(const Tree& tree, int rec) {
  int x = rec;
  int y = tree.back(rec);
  RAXH_EXPECTS(y >= 0);
  if (tree.is_tip_record(y)) std::swap(x, y);
  ensure_clv(tree, y);
  if (!tree.is_tip_record(x)) ensure_clv(tree, x);
  const std::size_t npat = patterns_->num_patterns();
  std::uint64_t total = 0;
  const int* sy = scale(tree.clv_slot(y));
  for (std::size_t p = 0; p < npat; ++p)
    total += static_cast<std::uint64_t>(sy[p]);
  if (!tree.is_tip_record(x)) {
    const int* sx = scale(tree.clv_slot(x));
    for (std::size_t p = 0; p < npat; ++p)
      total += static_cast<std::uint64_t>(sx[p]);
  }
  return total;
}

void LikelihoodEngine::ensure_clv(const Tree& tree, int rec) {
  if (tree.is_tip_record(rec)) return;
  const auto [c1, c2] = tree.children(rec);
  ensure_clv(tree, c1);
  ensure_clv(tree, c2);
  if (repeats_enabled()) update_repeat_classes(tree, rec);

  auto& meta = slots_[static_cast<std::size_t>(tree.clv_slot(rec))];
  const double len1 = tree.length(tree.next(rec));
  const double len2 = tree.length(tree.next(tree.next(rec)));
  const bool valid = meta.oriented_rec == rec &&
                     meta.model_epoch == model_epoch_ &&
                     meta.child_rec1 == c1 && meta.child_rec2 == c2 &&
                     meta.child_len1 == len1 && meta.child_len2 == len2 &&
                     meta.child_ver1 == content_version(tree, c1) &&
                     meta.child_ver2 == content_version(tree, c2);
  if (valid) return;
  compute_clv(tree, rec);
}

void LikelihoodEngine::compute_clv(const Tree& tree, int rec) {
  const auto [c1, c2] = tree.children(rec);
  const double len1 = tree.length(tree.next(rec));
  const double len2 = tree.length(tree.next(tree.next(rec)));
  const int slot = tree.clv_slot(rec);
  const auto lay = layout();

  // P sets and tip lookups come from the cache; only lengths (or a model)
  // not seen since the last model change pay for transition_matrix.
  const std::size_t line1 = pmat_line(len1);
  const std::size_t line2 = pmat_line(len2, line1);
  const bool tip1 = tree.is_tip_record(c1);
  const bool tip2 = tree.is_tip_record(c2);
  const double* pmat1 = line_pmats(line1);
  const double* pmat2 = line_pmats(line2);

  double* out = clv(slot);
  int* out_scale = scale(slot);

  // Site repeats: ensure_clv has already brought this node's classes up to
  // date. When its repeat map is active, phase A computes only the class
  // representatives (the kernels take the rep list as `pattern_ids`) and
  // phase B copies each listed non-representative's CLV + scale count from
  // its representative. Copies are exact, so results are bitwise-identical
  // to the plain full-range newview.
  const RecordRepeats* sr = nullptr;
  if (repeats_enabled()) {
    const auto& srm = repeats_of(rec);
    if (srm.active) sr = &srm;
  }

  auto run_newview = [&](auto&& nv) {
    if (sr == nullptr) {
      dispatch([&](std::size_t b, std::size_t e, int) { nv(b, e, nullptr); });
      return;
    }
    const std::uint32_t* ids = sr->reps.data();
    dispatch_range(sr->reps.size(),
                   [&](std::size_t b, std::size_t e, int) { nv(b, e, ids); });
    dispatch_range(sr->copies.size(), [&](std::size_t b, std::size_t e, int) {
      copy_repeat_rows(lay, sr->copies.data() + b, e - b, out, out_scale);
    });
    obs::count(obs::Counter::kRepeatPatternsComputed, sr->reps.size());
    obs::count(obs::Counter::kRepeatPatternsCopied, sr->copies.size());
  };

  if (tip1 && tip2) {
    const auto row1 = patterns_->row(static_cast<std::size_t>(c1));
    const auto row2 = patterns_->row(static_cast<std::size_t>(c2));
    const double* lookup1 = line_lookup(line1);
    const double* lookup2 = line_lookup(line2, lookup1);
    run_newview([&](std::size_t b, std::size_t e, const std::uint32_t* ids) {
      kern::newview_tip_tip(lay, b, e, row1.data(), row2.data(), lookup1,
                            lookup2, out, out_scale, ids);
    });
  } else if (tip1 || tip2) {
    const int tip_rec = tip1 ? c1 : c2;
    const int inner_rec = tip1 ? c2 : c1;
    const auto tip_row = patterns_->row(static_cast<std::size_t>(tip_rec));
    const double* tip_lookup = line_lookup(tip1 ? line1 : line2);
    const double* inner_pmat = tip1 ? pmat2 : pmat1;
    const int inner_slot = tree.clv_slot(inner_rec);
    run_newview([&](std::size_t b, std::size_t e, const std::uint32_t* ids) {
      kern::newview_tip_inner(lay, b, e, tip_row.data(), tip_lookup,
                              clv(inner_slot), scale(inner_slot), inner_pmat,
                              out, out_scale, ids);
    });
  } else {
    const int slot1 = tree.clv_slot(c1);
    const int slot2 = tree.clv_slot(c2);
    run_newview([&](std::size_t b, std::size_t e, const std::uint32_t* ids) {
      kern::newview_inner_inner(lay, b, e, clv(slot1), scale(slot1), pmat1,
                                clv(slot2), scale(slot2), pmat2, out,
                                out_scale, ids);
    });
  }

  auto& meta = slots_[static_cast<std::size_t>(slot)];
  meta.oriented_rec = rec;
  meta.model_epoch = model_epoch_;
  meta.child_rec1 = c1;
  meta.child_rec2 = c2;
  meta.child_len1 = len1;
  meta.child_len2 = len2;
  meta.child_ver1 = content_version(tree, c1);
  meta.child_ver2 = content_version(tree, c2);
  meta.version = ++version_counter_;
  ++newview_count_;
  obs::count(obs::Counter::kNewviewCalls);
}

double LikelihoodEngine::evaluate_edge(const Tree& tree, int rec,
                                       double* per_pattern) {
  obs::count(obs::Counter::kEvaluateCalls);
  // Orient so that x is a tip whenever the edge touches one.
  int x = rec;
  int y = tree.back(rec);
  RAXH_EXPECTS(y >= 0);
  if (tree.is_tip_record(y)) std::swap(x, y);
  RAXH_EXPECTS(!tree.is_tip_record(y));  // no tip-tip edges in trees with n>=3

  // Ensure both CLVs before taking the edge's P line: their newviews fill
  // cache lines and may evict it.
  ensure_clv(tree, y);
  if (!tree.is_tip_record(x)) ensure_clv(tree, x);

  const auto lay = layout();
  const std::size_t line = pmat_line(tree.length(rec));
  const double* freqs = model_.freqs().data();
  const int slot_y = tree.clv_slot(y);

  if (tree.is_tip_record(x)) {
    const auto tip_row = patterns_->row(static_cast<std::size_t>(x));
    const double* lookup = line_lookup(line);
    return dispatch_sum([&](std::size_t b, std::size_t e, int) {
      return kern::evaluate_tip_inner(lay, b, e, freqs, tip_row.data(),
                                      lookup, clv(slot_y),
                                      scale(slot_y), weights_.data(),
                                      per_pattern);
    });
  }

  const int slot_x = tree.clv_slot(x);
  const double* pmat = line_pmats(line);
  return dispatch_sum([&](std::size_t b, std::size_t e, int) {
    return kern::evaluate_inner_inner(lay, b, e, freqs, clv(slot_x),
                                      scale(slot_x), pmat,
                                      clv(slot_y), scale(slot_y),
                                      weights_.data(), per_pattern);
  });
}

double LikelihoodEngine::evaluate(const Tree& tree, int rec) {
  return evaluate_edge(tree, rec, nullptr);
}

void LikelihoodEngine::per_pattern_lnl(const Tree& tree,
                                       std::span<double> out) {
  RAXH_EXPECTS(out.size() == patterns_->num_patterns());
  evaluate_edge(tree, 0, out.data());
}

void LikelihoodEngine::build_sumtable(const Tree& tree, int rec) {
  int x = rec;
  int y = tree.back(rec);
  if (tree.is_tip_record(y)) std::swap(x, y);
  ensure_clv(tree, y);
  const auto lay = layout();
  const double* freqs = model_.freqs().data();
  const double* vmat = model_.right_vectors().data();
  const double* vinv = model_.left_vectors().data();
  const int slot_y = tree.clv_slot(y);

  if (tree.is_tip_record(x)) {
    const auto tip_row = patterns_->row(static_cast<std::size_t>(x));
    dispatch([&](std::size_t b, std::size_t e, int) {
      kern::edge_sumtable_tip_inner(lay, b, e, freqs, vmat, vinv,
                                    tip_row.data(), clv(slot_y),
                                    sumtable_.data());
      const int* sy = scale(slot_y);
      for (std::size_t p = b; p < e; ++p) sum_scale_[p] = sy[p];
    });
  } else {
    ensure_clv(tree, x);
    const int slot_x = tree.clv_slot(x);
    dispatch([&](std::size_t b, std::size_t e, int) {
      kern::edge_sumtable_inner_inner(lay, b, e, freqs, vmat, vinv,
                                      clv(slot_x), clv(slot_y),
                                      sumtable_.data());
      const int* sx = scale(slot_x);
      const int* sy = scale(slot_y);
      for (std::size_t p = b; p < e; ++p) sum_scale_[p] = sx[p] + sy[p];
    });
  }
}

void LikelihoodEngine::prepare_branch(const Tree& tree, int rec) {
  build_sumtable(tree, rec);
}

kern::Derivatives LikelihoodEngine::branch_derivatives(double t) {
  obs::count(obs::Counter::kDerivativeCalls);
  const auto lay = layout();
  const double* eigenvalues = model_.eigenvalues().data();
  const double* cat_rates = rates_.rates().data();
  if (crew_ == nullptr || crew_->num_threads() == 1) {
    obs::count(obs::Counter::kPatternsEvaluated, patterns_->num_patterns());
    return kern::nr_derivatives(lay, 0, patterns_->num_patterns(),
                                sumtable_.data(), eigenvalues, cat_rates, t,
                                weights_.data(), sum_scale_.data());
  }
  refresh_partition();
  crew_->resize_reduction(3);
  crew_->run([&](int tid, int) {
    const std::size_t b = part_bounds_[static_cast<std::size_t>(tid)];
    const std::size_t e = part_bounds_[static_cast<std::size_t>(tid) + 1];
    obs::count(obs::Counter::kPatternsEvaluated, e - b);
    const auto part = kern::nr_derivatives(lay, b, e, sumtable_.data(),
                                           eigenvalues, cat_rates, t,
                                           weights_.data(), sum_scale_.data());
    crew_->reduction(tid, 0) = part.lnl;
    crew_->reduction(tid, 1) = part.d1;
    crew_->reduction(tid, 2) = part.d2;
  });
  kern::Derivatives d;
  d.lnl = crew_->sum_reduction(0);
  d.d1 = crew_->sum_reduction(1);
  d.d2 = crew_->sum_reduction(2);
  crew_->resize_reduction(1);
  return d;
}

double newton_branch_length(
    const std::function<kern::Derivatives(double)>& derivatives, double t0) {
  double t = std::clamp(t0, kMinBranchLength, kMaxBranchLength);
  for (int iter = 0; iter < 32; ++iter) {
    const kern::Derivatives d = derivatives(t);
    double proposal;
    if (d.d2 < 0.0) {
      proposal = t - d.d1 / d.d2;
      // Damp wild Newton steps to a factor-of-4 move.
      proposal = std::clamp(proposal, t / 4.0, t * 4.0);
    } else {
      proposal = d.d1 > 0.0 ? t * 2.0 : t / 2.0;
    }
    proposal = std::clamp(proposal, kMinBranchLength, kMaxBranchLength);
    const double delta = std::fabs(proposal - t);
    t = proposal;
    if (delta < 1e-9) break;
  }
  return t;
}

double LikelihoodEngine::optimize_branch(Tree& tree, int rec) {
  prepare_branch(tree, rec);
  const double t = newton_branch_length(
      [this](double candidate) { return branch_derivatives(candidate); },
      tree.length(rec));
  tree.set_length(rec, t);
  return t;
}

double LikelihoodEngine::smooth_branches(Tree& tree, int passes) {
  RAXH_EXPECTS(passes >= 1);
  for (int pass = 0; pass < passes; ++pass)
    for (int e : tree.edges()) optimize_branch(tree, e);
  return evaluate(tree);
}

double LikelihoodEngine::optimize_all(Tree& tree, double epsilon,
                                      int max_rounds) {
  double lnl = evaluate(tree);
  for (int round = 0; round < max_rounds; ++round) {
    smooth_branches(tree, 1);
    double next = optimize_gtr(tree, epsilon);
    if (rates_.kind() == RateKind::kGamma) {
      next = optimize_alpha(tree);
    } else if (rates_.kind() == RateKind::kCat) {
      next = optimize_cat_rates(tree);
    }
    next = smooth_branches(tree, 1);
    if (next - lnl < epsilon) return next;
    lnl = next;
  }
  return lnl;
}

}  // namespace raxh
