#include "likelihood/repeats.h"

#include <algorithm>
#include <atomic>
#include <bit>
#include <cstdlib>
#include <cstring>

namespace raxh {

namespace {

std::atomic<int> g_repeats{-1};  // -1 = read RAXH_REPEATS on first use

int init_repeats() {
  int on = 1;
  if (const char* env = std::getenv("RAXH_REPEATS");
      env != nullptr && *env != '\0') {
    if (std::strcmp(env, "off") == 0 || std::strcmp(env, "0") == 0) on = 0;
  }
  int expected = -1;
  g_repeats.compare_exchange_strong(expected, on, std::memory_order_relaxed);
  return g_repeats.load(std::memory_order_relaxed);
}

}  // namespace

bool repeats_enabled() {
  const int v = g_repeats.load(std::memory_order_relaxed);
  return (v >= 0 ? v : init_repeats()) != 0;
}

void set_repeats_enabled(bool enabled) {
  g_repeats.store(enabled ? 1 : 0, std::memory_order_relaxed);
}

std::uint32_t RepeatCombiner::combine(const ClassSource& a,
                                      const ClassSource& b, std::size_t npat,
                                      std::vector<std::uint32_t>* class_of,
                                      std::vector<std::uint32_t>* reps,
                                      std::vector<RepeatCopy>* copies) {
  class_of->resize(npat);
  reps->clear();
  if (copies != nullptr) copies->clear();
  // Every key is < a.num_classes * nb <= (2^32 - 1)^2, so ~0 is free.
  constexpr std::uint64_t kEmpty = ~std::uint64_t{0};
  std::size_t size = 16;
  while (size < 2 * npat) size *= 2;
  if (keys_.size() != size) {
    keys_.resize(size);
    ids_.resize(size);
  }
  std::fill(keys_.begin(), keys_.end(), kEmpty);
  const int shift = 64 - std::countr_zero(size);
  const std::uint64_t mask = size - 1;
  const std::uint64_t nb = b.num_classes;
  std::uint32_t next = 0;
  for (std::size_t p = 0; p < npat; ++p) {
    const std::uint64_t key = a.at(p) * nb + b.at(p);
    // Fibonacci hashing: the top bits of key * 2^64/phi spread both the
    // dense inner ids and the sparse tip-mask ids over the table.
    std::size_t h = (key * 0x9E3779B97F4A7C15ull) >> shift;
    while (keys_[h] != key && keys_[h] != kEmpty) h = (h + 1) & mask;
    if (keys_[h] == kEmpty) {
      keys_[h] = key;
      ids_[h] = next++;
      reps->push_back(static_cast<std::uint32_t>(p));
    } else if (copies != nullptr) {
      copies->push_back({static_cast<std::uint32_t>(p), (*reps)[ids_[h]]});
    }
    (*class_of)[p] = ids_[h];
  }
  return next;
}

}  // namespace raxh
