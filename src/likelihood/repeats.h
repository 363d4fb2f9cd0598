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
#include <unordered_map>
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

// Pair-renumbering scratch, reusable across newviews so the direct lookup
// table is allocated once. Not thread-safe; the engine combines on the
// master thread (an O(npat) pass, small next to the kernels it saves).
class RepeatCombiner {
 public:
  // Densely renumber the pairs (a.at(p), b.at(p)) over [0, npat): fills
  // class_of[p] with the pattern's class id and reps[k] with the first
  // (lowest-index) pattern of class k; returns the class count.
  std::uint32_t combine(const ClassSource& a, const ClassSource& b,
                        std::size_t npat,
                        std::vector<std::uint32_t>* class_of,
                        std::vector<std::uint32_t>* reps);

 private:
  // Direct table for small pair spaces (a.num_classes * b.num_classes <=
  // kDirectMax), stamped per call so it never needs clearing; hash map
  // beyond that.
  static constexpr std::uint64_t kDirectMax = std::uint64_t{1} << 20;
  std::vector<std::uint64_t> stamp_;
  std::vector<std::uint32_t> table_;
  std::uint64_t epoch_ = 0;
  std::unordered_map<std::uint64_t, std::uint32_t> map_;
};

// Per-CLV-slot repeat state owned by the engine. `version` identifies the
// class-array content so parents can validate against it (analogous to the
// CLV SlotMeta version).
struct SlotRepeats {
  int oriented_rec = -1;
  int child_rec1 = -1, child_rec2 = -1;
  std::uint64_t child_ver1 = 0, child_ver2 = 0;  // child repeat versions
  std::uint64_t cat_epoch = 0;   // CAT assignment the classes were built for
  std::uint64_t version = 0;     // 0 = never built
  std::uint32_t num_classes = 0;
  bool active = false;  // worth using (enough duplication)
  std::vector<std::uint32_t> class_of;
  std::vector<std::uint32_t> reps;
};

// A repeat map is only worth applying when enough patterns are copies;
// computing representatives through a scattered id list costs slightly more
// per pattern than a straight range.
inline constexpr double kRepeatActivationRatio = 0.9;

}  // namespace raxh
