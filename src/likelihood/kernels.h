// Raw per-pattern-range likelihood kernels (the "newview / evaluate /
// derivative" trio of RAxML). All functions operate on a contiguous pattern
// range [begin, end), which is the unit the thread crew stripes across
// workers. No kernel allocates or synchronizes; the engine owns buffers and
// dispatch.
//
// Conventions:
//  * CLVs come in two storage layouts (ClvLayout below). Pattern-major AoS:
//    clv[((p * clv_cats) + c) * 4 + state]. Blocked SoA: patterns are grouped
//    into blocks of kBlockLanes, states/categories are planes within a block
//    and the pattern is the fastest (lane) dimension:
//    clv[(p / L) * clv_cats * 4 * L + (c * 4 + state) * L + p % L] — one
//    contiguous, 64-byte-aligned vector load covers L patterns of one
//    (category, state) plane. Either way values are scaled by
//    2^(-256 * ... ) — more precisely by kScaleFactor^scale[p] — to dodge
//    underflow.
//  * Tip data are 4-bit IUPAC masks; tip "CLV" entries are 0/1 indicators.
//  * `RateLayout` abstracts GAMMA (all categories per pattern) vs CAT (one
//    category per pattern, chosen by pattern_cat) and carries the CLV layout.
//  * The three newview kernels accept an optional `pattern_ids` list: when
//    non-null, [begin, end) indexes into it and only the listed patterns are
//    computed. This is the site-repeat hook — the engine computes one
//    representative per repeat class and copies the rest (engine.cpp).
//
// Kernel family: one scalar reference implementation plus SIMD members
// (generic baseline, AVX-512, NEON) built from a single shared source
// (kernels_impl.inl) compiled per-ISA. Every member keeps the scalar
// operation order per lane and is compiled without FMA contraction, so all
// members produce BITWISE-identical results on a given host — asserted by
// tests/test_simd.cpp and tests/test_kernel_family.cpp. The active member is
// selected by CPUID at startup (best supported wins) and can be overridden
// with set_kernel_isa(), the RAXH_KERNELS environment variable, or the
// `--kernels=` CLI flag.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>

#include "bio/dna.h"

namespace raxh::kern {

inline constexpr double kScaleThreshold = 1.0 / 1.329227995784916e+36 /
                                          1.329227995784916e+36 /
                                          1.329227995784916e+36 /
                                          1.329227995784916e+36;  // 2^-480
inline constexpr double kScaleFactor = 1.329227995784916e+36 *
                                       1.329227995784916e+36 *
                                       1.329227995784916e+36 *
                                       1.329227995784916e+36;  // 2^480
// log(kScaleFactor): each scale count contributes -480*ln2 to the true lnL.
inline constexpr double kLogScaleFactor = 332.7106466687737;

// ---------------------------------------------------------------------------
// Kernel family selection
// ---------------------------------------------------------------------------

// Implementation members, ordered worst-to-best so best_kernel_isa() can
// pick the highest supported one.
enum class KernelIsa : int {
  kScalar = 0,  // reference loops; always available, any layout
  kGeneric,     // GCC vector extensions at the build's baseline arch
  kNeon,        // aarch64 Advanced SIMD
  kAvx512,      // x86-64 with 512-bit vectors (F+VL)
  kCount
};
inline constexpr int kNumKernelIsas = static_cast<int>(KernelIsa::kCount);

// Stable lowercase name ("scalar", "generic", "neon", "avx512").
[[nodiscard]] const char* kernel_isa_name(KernelIsa isa);

// True if the member's translation unit was built into this binary.
[[nodiscard]] bool kernel_isa_compiled(KernelIsa isa);
// True if compiled AND this machine can execute it (CPUID / arch check).
[[nodiscard]] bool kernel_isa_supported(KernelIsa isa);
// Best supported member on this machine (>= kScalar, usually better).
[[nodiscard]] KernelIsa best_kernel_isa();

// Select the active member. Returns false — and leaves the active member
// UNCHANGED — if `isa` is not supported on this machine, so callers cannot
// end up believing a mode is active that reads back as something else
// (kernel_isa() always reports the effective member). Process-wide; not
// meant to be toggled concurrently with running kernels.
bool set_kernel_isa(KernelIsa isa);

// The effective active member. First call applies the RAXH_KERNELS
// environment override (falling back to best_kernel_isa() when unset,
// unparseable, or unsupported — with a one-time [WRN] in the latter cases).
[[nodiscard]] KernelIsa kernel_isa();

// Parse "scalar" | "generic" | "neon" | "avx512" | "auto"
// (case-sensitive). "auto" yields best_kernel_isa(). Returns false on
// unknown names.
bool parse_kernel_isa(std::string_view name, KernelIsa* out);

// Space-separated list of members with availability markers, e.g.
// "scalar generic (neon: not compiled in) avx512" — for --help and
// error messages.
[[nodiscard]] std::string kernel_isa_list();

// `"kernel":{...}` JSON fragment reporting the effective member, the default
// CLV layout, and the fallback count — embedded in --metrics-out documents
// and BENCH_*.json summaries so a bench can never unknowingly report numbers
// from a different kernel than it claims.
[[nodiscard]] std::string to_json_section();

// Number of times a SIMD member had to fall back to the scalar reference
// because layout.ncat_model exceeded kMaxCatMatrices (mirrors the
// obs::Counter::kKernelFallback counter, but is available with obs disabled).
[[nodiscard]] std::uint64_t fallback_count();

// Upper bound on per-category P matrices the SIMD members stage on the
// stack; layouts with more categories fall back to the scalar reference.
// The fallback is LOUD: a one-time [WRN] plus the kKernelFallback obs
// counter, so benches can't unknowingly measure the wrong kernel.
inline constexpr int kMaxCatMatrices = 32;

// ---------------------------------------------------------------------------
// CLV storage layout
// ---------------------------------------------------------------------------

// Lane count of the blocked layout: 8 doubles = one cache line = one AVX-512
// register. Blocked CLV rows are padded to a multiple of this.
inline constexpr int kBlockLanes = 8;

enum class ClvLayout : int {
  kPatternMajor = 0,  // AoS: [(p * clv_cats + c) * 4 + s]
  kBlocked,           // SoA: [(p/L * clv_cats*4 + c*4+s) * L + p%L], L = 8
};
[[nodiscard]] const char* clv_layout_name(ClvLayout layout);

struct RateLayout {
  int ncat_model = 1;   // number of per-category P matrices / rates
  int clv_cats = 1;     // categories stored per pattern (GAMMA: ncat, CAT: 1)
  const int* pattern_cat = nullptr;  // CAT: pattern -> model category
  const double* cat_weights = nullptr;  // GAMMA: per-category weights

  ClvLayout clv_layout = ClvLayout::kPatternMajor;
  // Blocked only: CLV row length in patterns (num_patterns rounded up to a
  // multiple of kBlockLanes). The engine zero-weights the padding lanes.
  std::size_t padded_patterns = 0;

  // Model category of storage category c for pattern p.
  [[nodiscard]] int model_cat(std::size_t p, int c) const {
    return pattern_cat != nullptr ? pattern_cat[p] : c;
  }
  [[nodiscard]] double weight(int c) const {
    return cat_weights != nullptr ? cat_weights[c] : 1.0;
  }

  // Index of (pattern, category, state) in a CLV/sumtable under this layout.
  [[nodiscard]] std::size_t clv_index(std::size_t p, int c, int s) const {
    if (clv_layout == ClvLayout::kPatternMajor)
      return (p * static_cast<std::size_t>(clv_cats) + c) * 4 + s;
    const std::size_t blk = p / kBlockLanes;
    const std::size_t lane = p % kBlockLanes;
    return (blk * static_cast<std::size_t>(clv_cats) * 4 +
            static_cast<std::size_t>(c) * 4 + s) *
               kBlockLanes +
           lane;
  }
  // Doubles per CLV slot for `npatterns` patterns under this layout.
  [[nodiscard]] std::size_t clv_stride(std::size_t npatterns) const {
    const std::size_t rows = clv_layout == ClvLayout::kBlocked
                                 ? padded_rows(npatterns)
                                 : npatterns;
    return rows * static_cast<std::size_t>(clv_cats) * 4;
  }
  [[nodiscard]] static std::size_t padded_rows(std::size_t npatterns) {
    return (npatterns + kBlockLanes - 1) / kBlockLanes * kBlockLanes;
  }
};

// Precomputed P * tip-indicator products: lookup[cat*64 + mask*4 + i] =
// sum_{j in mask} P_cat[i][j]. Built once per (edge length, model) by the
// engine; kernels index it by the tip's 4-bit mask.
void build_tip_lookup(const double* pmats, int ncat, double* lookup);

// --- newview: fill the CLV at a node from its two children ---
//
// When `pattern_ids` is non-null, [begin, end) indexes into it (site-repeat
// representative lists); otherwise [begin, end) are pattern indices.

void newview_tip_tip(const RateLayout& layout, std::size_t begin,
                     std::size_t end, const DnaState* tip_left,
                     const DnaState* tip_right, const double* lookup_left,
                     const double* lookup_right, double* clv, int* scale,
                     const std::uint32_t* pattern_ids = nullptr);

void newview_tip_inner(const RateLayout& layout, std::size_t begin,
                       std::size_t end, const DnaState* tip_left,
                       const double* lookup_left, const double* clv_right,
                       const int* scale_right, const double* pmat_right,
                       double* clv, int* scale,
                       const std::uint32_t* pattern_ids = nullptr);

void newview_inner_inner(const RateLayout& layout, std::size_t begin,
                         std::size_t end, const double* clv_left,
                         const int* scale_left, const double* pmat_left,
                         const double* clv_right, const int* scale_right,
                         const double* pmat_right, double* clv, int* scale,
                         const std::uint32_t* pattern_ids = nullptr);

// --- evaluate: log-likelihood across an edge ---

// x side is a tip (mask + lookup built from the edge P matrices); y side is a
// CLV. Returns the weighted lnL of the range; if per_pattern != nullptr also
// writes each pattern's unweighted lnL (under the blocked layout the buffer
// must cover padded_patterns entries).
double evaluate_tip_inner(const RateLayout& layout, std::size_t begin,
                          std::size_t end, const double* freqs,
                          const DnaState* tip_x, const double* lookup_x,
                          const double* clv_y, const int* scale_y,
                          const int* weights, double* per_pattern);

// Both sides are CLVs; the edge P matrices multiply the y side.
double evaluate_inner_inner(const RateLayout& layout, std::size_t begin,
                            std::size_t end, const double* freqs,
                            const double* clv_x, const int* scale_x,
                            const double* pmat, const double* clv_y,
                            const int* scale_y, const int* weights,
                            double* per_pattern);

// --- Newton-Raphson support across an edge ---

// sumtable[p][c][k] = (sum_i pi_i x_i V_ik) * (sum_j Vinv_kj y_j): the edge
// likelihood becomes L(t) = sum_k sumtable_k * exp(lambda_k * r_c * t),
// making the branch-length derivatives analytic. The sumtable uses the same
// storage layout as the CLVs.
void edge_sumtable_tip_inner(const RateLayout& layout, std::size_t begin,
                             std::size_t end, const double* freqs,
                             const double* vmat, const double* vinv,
                             const DnaState* tip_x, const double* clv_y,
                             double* sumtable);

void edge_sumtable_inner_inner(const RateLayout& layout, std::size_t begin,
                               std::size_t end, const double* freqs,
                               const double* vmat, const double* vinv,
                               const double* clv_x, const double* clv_y,
                               double* sumtable);

// First and second derivative of the range's weighted lnL with respect to
// the branch length t, plus the lnL value itself. `scale_sum` carries the
// combined per-pattern scale counts of the two CLVs the sumtable was built
// from (nullptr = all zero); with it the lnl field is the true
// scale-corrected log-likelihood, directly comparable against evaluate_*.
// (Historically the field silently ignored scaling — a footgun for
// Brent-vs-NR optimizer cross-checks on deep trees.)
struct Derivatives {
  double lnl = 0.0;
  double d1 = 0.0;
  double d2 = 0.0;
};
Derivatives nr_derivatives(const RateLayout& layout, std::size_t begin,
                           std::size_t end, const double* sumtable,
                           const double* eigenvalues, const double* cat_rates,
                           double t, const int* weights,
                           const int* scale_sum = nullptr);

// ---------------------------------------------------------------------------
// Implementation plumbing (kernels.cpp + per-ISA translation units)
// ---------------------------------------------------------------------------

namespace detail {

// Per-member table of the full trio. Signatures mirror the free functions.
struct KernelOps {
  void (*newview_tip_tip)(const RateLayout&, std::size_t, std::size_t,
                          const DnaState*, const DnaState*, const double*,
                          const double*, double*, int*, const std::uint32_t*);
  void (*newview_tip_inner)(const RateLayout&, std::size_t, std::size_t,
                            const DnaState*, const double*, const double*,
                            const int*, const double*, double*, int*,
                            const std::uint32_t*);
  void (*newview_inner_inner)(const RateLayout&, std::size_t, std::size_t,
                              const double*, const int*, const double*,
                              const double*, const int*, const double*,
                              double*, int*, const std::uint32_t*);
  double (*evaluate_tip_inner)(const RateLayout&, std::size_t, std::size_t,
                               const double*, const DnaState*, const double*,
                               const double*, const int*, const int*,
                               double*);
  double (*evaluate_inner_inner)(const RateLayout&, std::size_t, std::size_t,
                                 const double*, const double*, const int*,
                                 const double*, const double*, const int*,
                                 const int*, double*);
  void (*edge_sumtable_tip_inner)(const RateLayout&, std::size_t, std::size_t,
                                  const double*, const double*, const double*,
                                  const DnaState*, const double*, double*);
  void (*edge_sumtable_inner_inner)(const RateLayout&, std::size_t,
                                    std::size_t, const double*, const double*,
                                    const double*, const double*,
                                    const double*, double*);
  Derivatives (*nr_derivatives)(const RateLayout&, std::size_t, std::size_t,
                                const double*, const double*, const double*,
                                double, const int*, const int*);
};

// The scalar reference table (kernels.cpp); always available. SIMD members
// delegate the unaligned block edges of newview/sumtable ranges to it, which
// is bitwise-safe because every member keeps the scalar per-lane operation
// order.
[[nodiscard]] const KernelOps* ops_scalar();

// Record `n` patterns delegated to ops_scalar() by one SIMD call (the
// obs::Counter::kKernelScalarPatterns counter). Defined out of line in
// kernels.cpp so the per-ISA TUs emit no inline obs code under their -m flags.
void note_scalar_patterns(std::size_t n);

// Implemented in the per-ISA TUs; returns nullptr when not compiled in.
[[nodiscard]] const KernelOps* ops_generic();
[[nodiscard]] const KernelOps* ops_avx512();
[[nodiscard]] const KernelOps* ops_neon();

}  // namespace detail

}  // namespace raxh::kern
