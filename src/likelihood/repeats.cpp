#include "likelihood/repeats.h"

#include <atomic>
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
                                      std::vector<std::uint32_t>* reps) {
  class_of->resize(npat);
  reps->clear();
  const std::uint64_t nb = b.num_classes;
  const std::uint64_t pairs = static_cast<std::uint64_t>(a.num_classes) * nb;
  std::uint32_t next = 0;
  if (pairs <= kDirectMax) {
    if (stamp_.size() < pairs) {
      stamp_.resize(pairs, 0);
      table_.resize(pairs);
    }
    ++epoch_;
    for (std::size_t p = 0; p < npat; ++p) {
      const std::uint64_t key = a.at(p) * nb + b.at(p);
      if (stamp_[key] != epoch_) {
        stamp_[key] = epoch_;
        table_[key] = next++;
        reps->push_back(static_cast<std::uint32_t>(p));
      }
      (*class_of)[p] = table_[key];
    }
    return next;
  }
  map_.clear();
  map_.reserve(npat);
  for (std::size_t p = 0; p < npat; ++p) {
    const std::uint64_t key = a.at(p) * nb + b.at(p);
    const auto [it, inserted] = map_.try_emplace(key, next);
    if (inserted) {
      ++next;
      reps->push_back(static_cast<std::uint32_t>(p));
    }
    (*class_of)[p] = it->second;
  }
  return next;
}

}  // namespace raxh
