// The evaluator abstraction the search algorithms climb against; the
// production implementation is EngineEvaluator over one GTR engine. Keeps
// SprSearch independent of how the likelihood is computed.
#pragma once

#include "tree/tree.h"

namespace raxh {

class Evaluator {
 public:
  virtual ~Evaluator() = default;

  // Log-likelihood at the edge (rec, back(rec)).
  virtual double evaluate(const Tree& tree, int rec) = 0;
  double evaluate(const Tree& tree) { return evaluate(tree, 0); }

  // Newton-Raphson on one branch; returns the optimized length.
  virtual double optimize_branch(Tree& tree, int rec) = 0;

  // Optimize every branch `passes` times; returns the final lnL.
  virtual double smooth_branches(Tree& tree, int passes) = 0;

  // One full model-parameter optimization round; returns the final lnL.
  virtual double optimize_model(Tree& tree) = 0;
};

class LikelihoodEngine;

// Evaluator view over a single LikelihoodEngine. Non-owning.
class EngineEvaluator final : public Evaluator {
 public:
  explicit EngineEvaluator(LikelihoodEngine& engine) : engine_(&engine) {}

  double evaluate(const Tree& tree, int rec) override;
  double optimize_branch(Tree& tree, int rec) override;
  double smooth_branches(Tree& tree, int passes) override;
  double optimize_model(Tree& tree) override;

  [[nodiscard]] LikelihoodEngine& engine() const { return *engine_; }

 private:
  LikelihoodEngine* engine_;
};

}  // namespace raxh
