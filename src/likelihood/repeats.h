// Site-repeat detection (Kobert-style per-node repeat classes) for the
// likelihood engine. Two patterns are in the same repeat class at a node
// when the pattern columns restricted to the node's subtree are identical —
// then their CLVs (values AND scale counts) are identical, so newview can
// compute one representative per class and copy the rest.
//
// Classes are built bottom-up: a tip's class is its 4-bit IUPAC mask (plus
// the pattern's rate category under CAT, where the per-pattern P matrix
// differs), and an inner node's class is the pair (left child class, right
// child class) renumbered densely. Classes depend only on subtree topology
// and tip data — NOT on branch lengths or model parameters — so they survive
// the branch-length smoothing that dominates a search; the engine tracks
// their validity separately from CLV validity (engine.cpp).
//
// Copying a CLV is exact, so repeats on/off is bitwise-invisible to every
// evaluate/derivative result; golden trees do not move.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "bio/dna.h"

namespace raxh {

// Process-wide repeat toggle: on by default, RAXH_REPEATS=off (or
// set_repeats_enabled(false), or the CLI's --repeats=off) disables. Read
// once per engine newview; cheap.
[[nodiscard]] bool repeats_enabled();
void set_repeats_enabled(bool enabled);

// A node's per-pattern repeat classes viewed as an input to the combine
// step: either an inner node's dense class array, or a tip row (classes
// derived on the fly from the IUPAC mask and, under CAT, the pattern's
// category).
struct ClassSource {
  const std::uint32_t* classes = nullptr;  // inner node: dense class ids
  const DnaState* tips = nullptr;          // tip: IUPAC masks
  const int* pattern_cat = nullptr;        // CAT only (tip sources)
  std::uint32_t num_classes = 0;

  [[nodiscard]] std::uint32_t at(std::size_t p) const {
    if (classes != nullptr) return classes[p];
    const std::uint32_t cat =
        pattern_cat != nullptr ? static_cast<std::uint32_t>(pattern_cat[p]) : 0;
    return static_cast<std::uint32_t>(tips[p]) + 16 * cat;
  }
  [[nodiscard]] static ClassSource tip(const DnaState* row,
                                       const int* pcat, int ncat) {
    ClassSource s;
    s.tips = row;
    s.pattern_cat = pcat;
    s.num_classes = 16 * static_cast<std::uint32_t>(pcat != nullptr ? ncat : 1);
    return s;
  }
  [[nodiscard]] static ClassSource inner(const std::uint32_t* classes,
                                         std::uint32_t num_classes) {
    ClassSource s;
    s.classes = classes;
    s.num_classes = num_classes;
    return s;
  }
};

// One non-representative pattern and the representative it copies from.
struct RepeatCopy {
  std::uint32_t dst;
  std::uint32_t src;
};

// Pair-renumbering scratch, reusable across newviews so the table is
// allocated once. Not thread-safe; the engine combines on the master thread.
// The pass is O(npat) but it is serial Amdahl time on every newview whose
// subtree changed (a quarter of an ordinary-divergence run before inactive
// parents stopped combining), so it is kept to one cache-sized table.
class RepeatCombiner {
 public:
  // Densely renumber the pairs (a.at(p), b.at(p)) over [0, npat) in order of
  // first occurrence: fills class_of[p] with the pattern's class id, reps[k]
  // with the first (lowest-index) pattern of class k, and copies with every
  // other pattern paired with its representative, in pattern order. Returns
  // the class count.
  std::uint32_t combine(const ClassSource& a, const ClassSource& b,
                        std::size_t npat,
                        std::vector<std::uint32_t>* class_of,
                        std::vector<std::uint32_t>* reps,
                        std::vector<RepeatCopy>* copies = nullptr);

 private:
  // Open addressing with linear probing over next_pow2(2 * npat) slots, so
  // the load factor stays <= 1/2 whatever the pair space; cleared per call.
  std::vector<std::uint64_t> keys_;  // kEmpty or the pair a * nb + b
  std::vector<std::uint32_t> ids_;
};

// Per-directed-record repeat state owned by the engine. `version`
// identifies the class-array content so parents can validate against it
// (analogous to the CLV SlotMeta version).
struct RecordRepeats {
  int child_rec1 = -1, child_rec2 = -1;
  std::uint64_t child_ver1 = 0, child_ver2 = 0;  // child repeat versions
  std::uint64_t cat_epoch = 0;   // CAT assignment the classes were built for
  std::uint64_t version = 0;     // 0 = never built
  std::uint32_t num_classes = 0;
  // Worth using (enough duplication). A node with an inactive inner child is
  // inactive without combining: its classes refine the child's, so it has
  // at least as many. Inactive records hold no class_of/reps/copies.
  bool active = false;
  std::vector<std::uint32_t> class_of;
  std::vector<std::uint32_t> reps;
  std::vector<RepeatCopy> copies;
};

// A repeat map is only worth applying when enough patterns are copies: a
// representative computed through a scattered id list costs more than one in
// a straight range (gathered lanes under the blocked layout) and every copy
// costs a CLV row. Paired in-process timings of branch smoothing and SPR
// sweeps on a duplicate-heavy (267 patterns) and an ordinary (763 patterns)
// alignment, GAMMA and CAT, were within +-3% of repeats off at ratios
// 0.2-0.5 and lost up to 12% at 0.9 (EXPERIMENTS.md).
inline constexpr double kRepeatActivationRatio = 0.5;

}  // namespace raxh
