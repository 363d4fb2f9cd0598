// Benchmark-side tracing: spans recorded in memory around calls into the
// program's public API, plus the two decorators the traced run threads
// through the pipeline (a timing Comm and a timing Evaluator). Nothing here
// is compiled into the program itself.
#pragma once

#include <chrono>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

#include "likelihood/evaluator.h"
#include "minimpi/comm.h"

namespace perfbench {

inline std::uint64_t now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

struct SpanRecord {
  const char* name = "";  // a string literal
  std::uint64_t start_ns = 0;
  std::uint64_t end_ns = 0;
  int id = 0;
  int parent = -1;  // id of the enclosing span on the same thread, -1 = root
};

// Process-wide span store. Spans nest per thread; a span's parent is the
// innermost span open on the recording thread when it began.
class SpanLog {
 public:
  static SpanLog& instance();

  int begin(const char* name);
  void end(int id);

  [[nodiscard]] std::vector<SpanRecord> snapshot() const;

  struct Totals {
    double total_s = 0.0;
    double self_s = 0.0;
    std::uint64_t count = 0;
  };
  // For the spans called `name`: summed duration, summed self time (duration
  // minus the time covered by direct children), and call count.
  [[nodiscard]] Totals totals(const std::string& name) const;

  // {"spans":[{"name","start_ns","end_ns","id","parent"},...]}
  [[nodiscard]] std::string to_json() const;

 private:
  mutable std::mutex mu_;
  std::vector<SpanRecord> spans_;
};

class ScopedSpan {
 public:
  explicit ScopedSpan(const char* name)
      : id_(SpanLog::instance().begin(name)) {}
  ~ScopedSpan() { SpanLog::instance().end(id_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  int id_;
};

// Comm decorator in the style of minimpi's FaultyComm: the inner comm is a
// pure transport, this object keeps the (identically counted) Comm::Stats
// and records a span around every transport send/recv, collectives included.
class TimedComm final : public raxh::mpi::Comm {
 public:
  explicit TimedComm(raxh::mpi::Comm& inner) : inner_(&inner) {
    set_collectives(inner.collectives());
  }

  [[nodiscard]] int rank() const override { return inner_->rank(); }
  [[nodiscard]] int size() const override { return inner_->size(); }

 protected:
  void do_send(int dest, int tag, const raxh::mpi::Bytes& payload) override;
  raxh::mpi::Bytes do_recv(int src, int tag) override;
  bool do_probe(int src) override { return inner_->probe(src); }

 private:
  raxh::mpi::Comm* inner_;
};

// Evaluator decorator: one span per call, named after the Evaluator method.
class TimedEvaluator final : public raxh::Evaluator {
 public:
  explicit TimedEvaluator(raxh::Evaluator& inner) : inner_(&inner) {}

  double evaluate(const raxh::Tree& tree, int rec) override;
  double optimize_branch(raxh::Tree& tree, int rec) override;
  double smooth_branches(raxh::Tree& tree, int passes) override;
  double optimize_model(raxh::Tree& tree) override;

 private:
  raxh::Evaluator* inner_;
};

}  // namespace perfbench
