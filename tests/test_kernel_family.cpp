// Kernel-family plumbing and kernel-level parity: member selection (S2
// bugfix: set_kernel_isa must reject unsupported members instead of lying on
// read), the loud scalar fallback past kMaxCatMatrices (S1 bugfix: one-time
// [WRN] + kKernelFallback obs counter), and bitwise agreement of every
// compiled-and-supported member with the scalar reference across layouts
// (pattern-major / blocked), rate models (GAMMA / CAT), the full
// newview/evaluate/sumtable/derivative trio, and scattered site-repeat id
// lists.
#include <gtest/gtest.h>

#include <cstring>
#include <string>
#include <vector>

#include "likelihood/kernels.h"
#include "obs/obs.h"
#include "util/prng.h"

namespace raxh {
namespace {

struct ScopedIsa {
  explicit ScopedIsa(kern::KernelIsa isa) : prev(kern::kernel_isa()) {
    EXPECT_TRUE(kern::set_kernel_isa(isa))
        << kern::kernel_isa_name(isa) << " not supported";
  }
  ~ScopedIsa() { kern::set_kernel_isa(prev); }
  kern::KernelIsa prev;
};

std::vector<kern::KernelIsa> simd_isas() {
  std::vector<kern::KernelIsa> out;
  for (int i = 1; i < kern::kNumKernelIsas; ++i) {
    const auto isa = static_cast<kern::KernelIsa>(i);
    if (kern::kernel_isa_supported(isa)) out.push_back(isa);
  }
  return out;
}

// ---------------------------------------------------------------------------
// A full chain through the trio with deterministic pseudo-random inputs.
// ---------------------------------------------------------------------------

struct Shape {
  bool gamma = true;   // GAMMA: ncat=4, clv_cats=4; CAT: ncat=5, clv_cats=1
  bool blocked = false;
  std::size_t npat = 37;  // deliberately not a multiple of kBlockLanes
};

struct ChainOut {
  std::vector<double> clv1, clv2, clv3, st_ti, st_ii, pp_ti, pp_ii;
  std::vector<int> s1, s2, s3;
  double lnl_ti = 0.0, lnl_ii = 0.0;
  kern::Derivatives d;
};

ChainOut run_chain(const Shape& sh, const std::vector<std::uint32_t>& ids) {
  const std::size_t npat = sh.npat;
  const int ncat = sh.gamma ? 4 : 5;

  std::vector<int> pcat;
  std::vector<double> cw;
  kern::RateLayout l;
  l.ncat_model = ncat;
  l.clv_cats = sh.gamma ? ncat : 1;
  if (sh.gamma) {
    cw.assign(4, 0.25);
    l.cat_weights = cw.data();
  } else {
    pcat.resize(npat);
    for (std::size_t p = 0; p < npat; ++p)
      pcat[p] = static_cast<int>(p % static_cast<std::size_t>(ncat));
    l.pattern_cat = pcat.data();
  }
  if (sh.blocked) {
    l.clv_layout = kern::ClvLayout::kBlocked;
    l.padded_patterns = kern::RateLayout::padded_rows(npat);
  }
  const std::size_t stride = l.clv_stride(npat);
  const std::size_t pp_len = sh.blocked ? l.padded_patterns : npat;

  Lcg r(1234);
  auto rnd = [&r] { return 0.05 + r.next_double(); };
  std::vector<DnaState> tipA(npat), tipB(npat), tipC(npat);
  for (std::size_t p = 0; p < npat; ++p) {
    tipA[p] = static_cast<DnaState>(p * 7 % 15 + 1);
    tipB[p] = static_cast<DnaState>(p * 5 % 15 + 1);
    tipC[p] = static_cast<DnaState>(p * 11 % 15 + 1);
  }
  std::vector<double> pmat1(ncat * 16), pmat2(ncat * 16), pmat3(ncat * 16);
  for (auto& v : pmat1) v = rnd();
  for (auto& v : pmat2) v = rnd();
  for (auto& v : pmat3) v = rnd();
  std::vector<double> lk1(ncat * 64), lk2(ncat * 64), lk3(ncat * 64);
  kern::build_tip_lookup(pmat1.data(), ncat, lk1.data());
  kern::build_tip_lookup(pmat2.data(), ncat, lk2.data());
  kern::build_tip_lookup(pmat3.data(), ncat, lk3.data());

  const double freqs[4] = {0.26, 0.24, 0.27, 0.23};
  std::vector<int> weights(npat);
  for (std::size_t p = 0; p < npat; ++p)
    weights[p] = 1 + static_cast<int>(p % 3);
  std::vector<double> vmat(16), vinv(16);
  for (auto& v : vmat) v = rnd() - 0.5;
  for (auto& v : vinv) v = rnd() - 0.5;
  const double eigenvalues[4] = {0.0, -0.7, -1.1, -2.2};
  std::vector<double> cat_rates(ncat);
  for (int c = 0; c < ncat; ++c) cat_rates[c] = 0.2 + 0.6 * c;

  const std::uint32_t* idp = ids.empty() ? nullptr : ids.data();
  const std::size_t nv_end = ids.empty() ? npat : ids.size();

  ChainOut o;
  o.clv1.assign(stride, 0.0);
  o.clv2.assign(stride, 0.0);
  o.clv3.assign(stride, 0.0);
  o.st_ti.assign(stride, 0.0);
  o.st_ii.assign(stride, 0.0);
  o.pp_ti.assign(pp_len, 0.0);
  o.pp_ii.assign(pp_len, 0.0);
  o.s1.assign(npat, 0);
  o.s2.assign(npat, 0);
  o.s3.assign(npat, 0);

  kern::newview_tip_tip(l, 0, nv_end, tipA.data(), tipB.data(), lk1.data(),
                        lk2.data(), o.clv1.data(), o.s1.data(), idp);
  kern::newview_tip_inner(l, 0, nv_end, tipC.data(), lk3.data(), o.clv1.data(),
                          o.s1.data(), pmat2.data(), o.clv2.data(),
                          o.s2.data(), idp);
  kern::newview_inner_inner(l, 0, nv_end, o.clv1.data(), o.s1.data(),
                            pmat1.data(), o.clv2.data(), o.s2.data(),
                            pmat3.data(), o.clv3.data(), o.s3.data(), idp);
  o.lnl_ti = kern::evaluate_tip_inner(l, 0, npat, freqs, tipA.data(),
                                      lk1.data(), o.clv3.data(), o.s3.data(),
                                      weights.data(), o.pp_ti.data());
  o.lnl_ii = kern::evaluate_inner_inner(l, 0, npat, freqs, o.clv2.data(),
                                        o.s2.data(), pmat1.data(),
                                        o.clv3.data(), o.s3.data(),
                                        weights.data(), o.pp_ii.data());
  kern::edge_sumtable_tip_inner(l, 0, npat, freqs, vmat.data(), vinv.data(),
                                tipA.data(), o.clv3.data(), o.st_ti.data());
  kern::edge_sumtable_inner_inner(l, 0, npat, freqs, vmat.data(), vinv.data(),
                                  o.clv2.data(), o.clv3.data(),
                                  o.st_ii.data());
  o.d = kern::nr_derivatives(l, 0, npat, o.st_ii.data(), eigenvalues,
                             cat_rates.data(), 0.13, weights.data(),
                             o.s3.data());
  return o;
}

void expect_bitwise(const ChainOut& got, const ChainOut& want,
                    const std::string& what) {
  EXPECT_EQ(got.clv1, want.clv1) << what;
  EXPECT_EQ(got.clv2, want.clv2) << what;
  EXPECT_EQ(got.clv3, want.clv3) << what;
  EXPECT_EQ(got.st_ti, want.st_ti) << what;
  EXPECT_EQ(got.st_ii, want.st_ii) << what;
  EXPECT_EQ(got.pp_ti, want.pp_ti) << what;
  EXPECT_EQ(got.pp_ii, want.pp_ii) << what;
  EXPECT_EQ(got.s1, want.s1) << what;
  EXPECT_EQ(got.s2, want.s2) << what;
  EXPECT_EQ(got.s3, want.s3) << what;
  EXPECT_EQ(got.lnl_ti, want.lnl_ti) << what;
  EXPECT_EQ(got.lnl_ii, want.lnl_ii) << what;
  EXPECT_EQ(got.d.lnl, want.d.lnl) << what;
  EXPECT_EQ(got.d.d1, want.d.d1) << what;
  EXPECT_EQ(got.d.d2, want.d.d2) << what;
}

TEST(KernelFamily, ParityAcrossLayoutsAndModels) {
  // Blocked is only exercised for GAMMA: blocked + per-pattern categories is
  // the documented loud-fallback combination (covered below).
  const Shape shapes[] = {{true, false, 37}, {true, true, 37},
                          {false, false, 37}, {true, true, 64}};
  for (const auto& sh : shapes) {
    const ChainOut want = [&] {
      ScopedIsa guard(kern::KernelIsa::kScalar);
      return run_chain(sh, {});
    }();
    for (const auto isa : simd_isas()) {
      ScopedIsa guard(isa);
      const ChainOut got = run_chain(sh, {});
      expect_bitwise(got, want,
                     std::string(kern::kernel_isa_name(isa)) +
                         (sh.blocked ? " blocked" : " pattern-major") +
                         (sh.gamma ? " GAMMA" : " CAT"));
    }
  }
}

TEST(KernelFamily, ParityOnScatteredRepeatIds) {
  // Site-repeat representative lists: newview computes only the listed
  // patterns; every member must agree bitwise on exactly those (the rest
  // stay zero on both sides).
  const std::vector<std::uint32_t> ids = {0,  3,  4,  5,  11, 12,
                                          13, 14, 15, 16, 20, 36};
  for (const bool blocked : {false, true}) {
    const Shape sh{true, blocked, 37};
    const ChainOut want = [&] {
      ScopedIsa guard(kern::KernelIsa::kScalar);
      return run_chain(sh, ids);
    }();
    for (const auto isa : simd_isas()) {
      ScopedIsa guard(isa);
      const ChainOut got = run_chain(sh, ids);
      expect_bitwise(got, want,
                     std::string(kern::kernel_isa_name(isa)) + " ids " +
                         (blocked ? "blocked" : "pattern-major"));
    }
  }
}

TEST(KernelFamily, FallbackPastMaxCatMatricesIsLoudAndCounted) {
  // S1 regression: a SIMD member asked to run a layout with more category
  // matrices than it can stage must fall back to the scalar reference AND
  // say so — fallback_count() plus the kKernelFallback obs counter.
  const auto isas = simd_isas();
  if (isas.empty()) GTEST_SKIP() << "no SIMD member on this build";

  const int ncat = kern::kMaxCatMatrices + 8;
  const std::size_t npat = 8;
  kern::RateLayout l;
  l.ncat_model = ncat;
  l.clv_cats = ncat;
  std::vector<double> cw(ncat, 1.0 / ncat);
  l.cat_weights = cw.data();

  std::vector<DnaState> tipA(npat), tipB(npat);
  for (std::size_t p = 0; p < npat; ++p) {
    tipA[p] = static_cast<DnaState>(p % 15 + 1);
    tipB[p] = static_cast<DnaState>((p * 3) % 15 + 1);
  }
  Lcg r(7);
  std::vector<double> pmat(ncat * 16);
  for (auto& v : pmat) v = 0.05 + r.next_double();
  std::vector<double> lookup(ncat * 64);
  kern::build_tip_lookup(pmat.data(), ncat, lookup.data());
  std::vector<double> clv(l.clv_stride(npat), 0.0);
  std::vector<int> scale(npat, 0);

  const std::vector<double> want_clv = [&] {
    ScopedIsa guard(kern::KernelIsa::kScalar);
    std::vector<double> out(l.clv_stride(npat), 0.0);
    std::vector<int> s(npat, 0);
    kern::newview_tip_tip(l, 0, npat, tipA.data(), tipB.data(), lookup.data(),
                          lookup.data(), out.data(), s.data());
    return out;
  }();

  const bool obs_was_enabled = obs::enabled();
  obs::set_enabled(true);
  const auto before = obs::counters_snapshot();
  const std::uint64_t before_fb = kern::fallback_count();

  ScopedIsa guard(isas.front());
  kern::newview_tip_tip(l, 0, npat, tipA.data(), tipB.data(), lookup.data(),
                        lookup.data(), clv.data(), scale.data());

  const auto after = obs::counters_snapshot();
  obs::set_enabled(obs_was_enabled);
  EXPECT_EQ(kern::fallback_count(), before_fb + 1);
  EXPECT_GE(after[obs::Counter::kKernelFallback] -
                before[obs::Counter::kKernelFallback],
            std::uint64_t{1});
  // The fallback must still produce the scalar answer, bitwise.
  EXPECT_EQ(clv, want_clv);
}

TEST(KernelFamily, BlockedCatLayoutFallsBackLoudly) {
  // The other unsupported-by-SIMD combination: blocked layout with
  // per-pattern categories (lane-divergent P matrices).
  const auto isas = simd_isas();
  if (isas.empty()) GTEST_SKIP() << "no SIMD member on this build";

  const std::size_t npat = 16;
  std::vector<int> pcat(npat);
  for (std::size_t p = 0; p < npat; ++p) pcat[p] = static_cast<int>(p % 3);
  kern::RateLayout l;
  l.ncat_model = 3;
  l.clv_cats = 1;
  l.pattern_cat = pcat.data();
  l.clv_layout = kern::ClvLayout::kBlocked;
  l.padded_patterns = kern::RateLayout::padded_rows(npat);

  std::vector<DnaState> tipA(npat, DnaState{5}), tipB(npat, DnaState{9});
  std::vector<double> pmat(3 * 16, 0.25);
  std::vector<double> lookup(3 * 64);
  kern::build_tip_lookup(pmat.data(), 3, lookup.data());
  std::vector<double> clv(l.clv_stride(npat), 0.0);
  std::vector<int> scale(npat, 0);

  const std::uint64_t before_fb = kern::fallback_count();
  ScopedIsa guard(isas.front());
  kern::newview_tip_tip(l, 0, npat, tipA.data(), tipB.data(), lookup.data(),
                        lookup.data(), clv.data(), scale.data());
  EXPECT_EQ(kern::fallback_count(), before_fb + 1);
}

TEST(KernelFamily, SetKernelIsaRejectsUnsupported) {
  // S2 regression: selecting an unavailable member must fail loudly (false)
  // and leave the effective member unchanged — the old set_kernel_mode
  // "succeeded" on non-GNU builds while kernel_mode() kept reading kScalar.
  const kern::KernelIsa before = kern::kernel_isa();
  bool found_unsupported = false;
  for (int i = 1; i < kern::kNumKernelIsas; ++i) {
    const auto isa = static_cast<kern::KernelIsa>(i);
    if (kern::kernel_isa_supported(isa)) continue;
    found_unsupported = true;
    EXPECT_FALSE(kern::set_kernel_isa(isa)) << kern::kernel_isa_name(isa);
    EXPECT_EQ(kern::kernel_isa(), before) << kern::kernel_isa_name(isa);
  }
  // NEON and AVX-512 cannot both be supported on one machine, so at least one
  // member is always rejectable.
  EXPECT_TRUE(found_unsupported);

  // Supported selections stick and read back as themselves.
  EXPECT_TRUE(kern::set_kernel_isa(kern::KernelIsa::kScalar));
  EXPECT_EQ(kern::kernel_isa(), kern::KernelIsa::kScalar);
  EXPECT_TRUE(kern::set_kernel_isa(before));
  EXPECT_EQ(kern::kernel_isa(), before);
}

TEST(KernelFamily, ParseNamesAndList) {
  for (int i = 0; i < kern::kNumKernelIsas; ++i) {
    const auto isa = static_cast<kern::KernelIsa>(i);
    kern::KernelIsa out;
    EXPECT_TRUE(kern::parse_kernel_isa(kern::kernel_isa_name(isa), &out));
    EXPECT_EQ(out, isa);
  }
  kern::KernelIsa out;
  EXPECT_TRUE(kern::parse_kernel_isa("auto", &out));
  EXPECT_EQ(out, kern::best_kernel_isa());
  EXPECT_FALSE(kern::parse_kernel_isa("AVX2", &out));
  EXPECT_FALSE(kern::parse_kernel_isa("sse9", &out));
  EXPECT_NE(kern::kernel_isa_list().find("scalar"), std::string::npos);
}

TEST(KernelFamily, JsonSectionReportsEffectiveMember) {
  // S2: the metrics/BENCH JSON must carry the mode actually running, not the
  // mode last requested.
  {
    ScopedIsa guard(kern::KernelIsa::kScalar);
    EXPECT_NE(kern::to_json_section().find("\"isa\":\"scalar\""),
              std::string::npos);
  }
  const std::string effective = kern::kernel_isa_name(kern::kernel_isa());
  EXPECT_NE(kern::to_json_section().find("\"isa\":\"" + effective + "\""),
            std::string::npos);
  EXPECT_NE(kern::to_json_section().find("\"fallbacks\":"), std::string::npos);
}

}  // namespace
}  // namespace raxh
