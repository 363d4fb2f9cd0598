#include "tree/tree.h"

#include <algorithm>
#include <cctype>
#include <map>
#include <sstream>
#include <stdexcept>

#include "util/check.h"

namespace raxh {

Tree::Tree(std::size_t num_taxa) : num_taxa_(num_taxa) {
  RAXH_EXPECTS(num_taxa >= 3);
  const std::size_t internals = num_taxa - 2;
  records_.resize(num_taxa + 3 * internals);
  internal_used_.assign(internals, false);
  // Tips: next == self (degenerate ring of one).
  for (std::size_t t = 0; t < num_taxa; ++t)
    records_[t].next = static_cast<int>(t);
  // Preset internal ring cycles.
  for (std::size_t j = 0; j < internals; ++j) {
    const int base = static_cast<int>(num_taxa + 3 * j);
    records_[idx(base)].next = base + 1;
    records_[idx(base + 1)].next = base + 2;
    records_[idx(base + 2)].next = base;
  }
}

int Tree::node_id(int rec) const {
  RAXH_EXPECTS(rec >= 0 && rec < static_cast<int>(records_.size()));
  if (is_tip_record(rec)) return rec;
  const int n = static_cast<int>(num_taxa_);
  return n + (rec - n) / 3;
}

int Tree::clv_slot(int rec) const {
  RAXH_EXPECTS(!is_tip_record(rec));
  const int n = static_cast<int>(num_taxa_);
  return (rec - n) / 3;
}

void Tree::set_length(int rec, double length) {
  RAXH_EXPECTS(length >= 0.0);
  auto& r = records_[idx(rec)];
  RAXH_EXPECTS(r.back >= 0);
  r.length = length;
  records_[idx(r.back)].length = length;
}

void Tree::hook(int a, int b, double length) {
  records_[idx(a)].back = b;
  records_[idx(b)].back = a;
  records_[idx(a)].length = length;
  records_[idx(b)].length = length;
}

int Tree::allocate_internal() {
  for (std::size_t j = 0; j < internal_used_.size(); ++j) {
    if (!internal_used_[j]) {
      internal_used_[j] = true;
      return static_cast<int>(num_taxa_ + 3 * j);
    }
  }
  RAXH_EXPECTS(false && "no free internal node");
  return -1;
}

void Tree::make_triplet(int tip_a, int tip_b, int tip_c, double length) {
  RAXH_EXPECTS(inserted_tips_ == 0);
  RAXH_EXPECTS(tip_a != tip_b && tip_b != tip_c && tip_a != tip_c);
  const int ring = allocate_internal();
  hook(ring, tip_a, length);
  hook(next(ring), tip_b, length);
  hook(next(next(ring)), tip_c, length);
  inserted_tips_ = 3;
}

int Tree::insert_tip(int tip, int edge_rec, double tip_length) {
  RAXH_EXPECTS(is_tip_record(tip));
  RAXH_EXPECTS(records_[idx(tip)].back == -1);
  const int s = edge_rec;
  const int t = back(s);
  RAXH_EXPECTS(t >= 0);
  const double half = std::max(length(s) / 2.0, kMinBranchLength);
  const int ring = allocate_internal();
  hook(next(ring), s, half);
  hook(next(next(ring)), t, half);
  hook(ring, tip, tip_length);
  ++inserted_tips_;
  return ring;
}

std::vector<int> Tree::edges() const {
  std::vector<int> out;
  for (int rec = 0; rec < static_cast<int>(records_.size()); ++rec) {
    const int b = records_[idx(rec)].back;
    if (b > rec) out.push_back(rec);
  }
  return out;
}

std::vector<int> Tree::internal_records() const {
  std::vector<int> out;
  const int n = static_cast<int>(num_taxa_);
  for (std::size_t j = 0; j < internal_used_.size(); ++j) {
    if (!internal_used_[j]) continue;
    const int base = n + 3 * static_cast<int>(j);
    out.push_back(base);
    out.push_back(base + 1);
    out.push_back(base + 2);
  }
  return out;
}

Tree::Children Tree::children(int rec) const {
  RAXH_EXPECTS(!is_tip_record(rec));
  return Children{back(next(rec)), back(next(next(rec)))};
}

Tree::SprMove Tree::prune(int p) {
  RAXH_EXPECTS(!is_tip_record(p));
  SprMove move;
  move.p = p;
  move.q = back(next(p));
  move.r = back(next(next(p)));
  RAXH_EXPECTS(move.q >= 0 && move.r >= 0);
  move.q_len = length(next(p));
  move.r_len = length(next(next(p)));
  hook(move.q, move.r,
       std::min(move.q_len + move.r_len, kMaxBranchLength));
  // The carried ring's side records dangle until regraft; clearing their
  // back pointers keeps edges()/traversals from seeing phantom edges.
  records_[idx(next(p))].back = -1;
  records_[idx(next(next(p)))].back = -1;
  return move;
}

void Tree::regraft(SprMove& move, int s) {
  RAXH_EXPECTS(move.p >= 0);
  RAXH_EXPECTS(s != move.p);
  const int t = back(s);
  RAXH_EXPECTS(t >= 0);
  // Regrafting into the detached component would disconnect the tree.
  RAXH_EXPECTS(!in_subtree(move.p, s));
  move.s = s;
  move.t = t;
  move.s_len = length(s);
  const double half = std::max(move.s_len / 2.0, kMinBranchLength);
  hook(next(move.p), s, half);
  hook(next(next(move.p)), t, half);
}

void Tree::undo_regraft(SprMove& move) {
  RAXH_EXPECTS(move.p >= 0 && move.s >= 0);
  hook(move.s, move.t, move.s_len);
  records_[idx(next(move.p))].back = -1;
  records_[idx(next(next(move.p)))].back = -1;
  move.s = -1;
  move.t = -1;
}

void Tree::undo(const SprMove& move) {
  RAXH_EXPECTS(move.p >= 0);
  if (move.s >= 0) hook(move.s, move.t, move.s_len);
  hook(next(move.p), move.q, move.q_len);
  hook(next(next(move.p)), move.r, move.r_len);
}

bool Tree::in_subtree(int p, int rec) const {
  // Collect node ids of the subtree behind p (across the edge p - back(p)).
  std::vector<int> stack = {back(p)};
  std::vector<bool> seen(records_.size(), false);
  while (!stack.empty()) {
    const int r = stack.back();
    stack.pop_back();
    seen[idx(r)] = true;
    if (!is_tip_record(r)) {
      seen[idx(next(r))] = true;
      seen[idx(next(next(r)))] = true;
      const auto [c1, c2] = children(r);
      stack.push_back(c1);
      stack.push_back(c2);
    }
  }
  return seen[idx(rec)];
}

std::vector<int> Tree::postorder(int rec) const {
  std::vector<int> out;
  if (is_tip_record(rec)) return out;
  // Iterative DFS; push children before marking the record done.
  std::vector<std::pair<int, bool>> stack = {{rec, false}};
  while (!stack.empty()) {
    auto [r, expanded] = stack.back();
    stack.pop_back();
    if (is_tip_record(r)) continue;
    if (expanded) {
      out.push_back(r);
    } else {
      stack.emplace_back(r, true);
      const auto [c1, c2] = children(r);
      stack.emplace_back(c1, false);
      stack.emplace_back(c2, false);
    }
  }
  return out;
}

std::vector<int> Tree::full_traversal(int rec) const {
  std::vector<int> out = postorder(rec);
  const std::vector<int> other = postorder(back(rec));
  out.insert(out.end(), other.begin(), other.end());
  return out;
}

namespace {

void append_subtree(const Tree& tree, int rec,
                    const std::vector<std::string>& names, std::ostream& out) {
  const int b = tree.back(rec);
  if (tree.is_tip_record(b)) {
    out << names[static_cast<std::size_t>(tree.tip_id(b))];
  } else {
    out << '(';
    append_subtree(tree, tree.next(b), names, out);
    out << ',';
    append_subtree(tree, tree.next(tree.next(b)), names, out);
    out << ')';
  }
  out << ':' << tree.length(rec);
}

}  // namespace

std::string Tree::to_newick(const std::vector<std::string>& names) const {
  RAXH_EXPECTS(is_complete());
  RAXH_EXPECTS(names.size() == num_taxa_);
  std::ostringstream out;
  out.precision(17);  // round-trips doubles exactly (checkpoint fidelity)
  const int r = back(0);  // internal node adjacent to tip 0
  RAXH_EXPECTS(r >= 0);
  out << '(' << names[0] << ':' << length(0) << ',';
  append_subtree(*this, next(r), names, out);
  out << ',';
  append_subtree(*this, next(next(r)), names, out);
  out << ");";
  return out.str();
}

double Tree::total_length() const {
  double sum = 0.0;
  for (int e : edges()) sum += length(e);
  return sum;
}

Tree::RawTopology Tree::export_raw() const {
  RawTopology raw;
  raw.num_taxa = num_taxa_;
  raw.inserted_tips = inserted_tips_;
  raw.back.reserve(records_.size());
  raw.length.reserve(records_.size());
  for (const auto& r : records_) {
    raw.back.push_back(r.back);
    raw.length.push_back(r.length);
  }
  for (bool used : internal_used_)
    raw.internal_used.push_back(used ? 1 : 0);
  return raw;
}

Tree Tree::import_raw(const RawTopology& raw) {
  Tree tree(raw.num_taxa);
  RAXH_EXPECTS(raw.back.size() == tree.records_.size());
  RAXH_EXPECTS(raw.length.size() == tree.records_.size());
  RAXH_EXPECTS(raw.internal_used.size() == tree.internal_used_.size());
  tree.inserted_tips_ = raw.inserted_tips;
  for (std::size_t i = 0; i < raw.back.size(); ++i) {
    tree.records_[i].back = raw.back[i];
    tree.records_[i].length = raw.length[i];
  }
  for (std::size_t j = 0; j < raw.internal_used.size(); ++j)
    tree.internal_used_[j] = raw.internal_used[j] != 0;
  if (tree.is_complete()) tree.check_invariants();
  return tree;
}

void Tree::check_invariants() const {
  RAXH_ASSERT(is_complete());
  const int n = static_cast<int>(num_taxa_);
  // Ring closure and back symmetry.
  for (int rec : internal_records()) {
    RAXH_ASSERT(next(next(next(rec))) == rec);
    RAXH_ASSERT(back(rec) >= 0);
    RAXH_ASSERT(back(back(rec)) == rec);
    RAXH_ASSERT(length(rec) == length(back(rec)));
  }
  for (int t = 0; t < n; ++t) {
    RAXH_ASSERT(back(t) >= 0);
    RAXH_ASSERT(back(back(t)) == t);
  }
  // Edge count of an unrooted binary tree.
  RAXH_ASSERT(edges().size() == 2 * num_taxa_ - 3);
  // Connectivity: from tip 0, every tip and used internal ring is reachable.
  std::vector<bool> seen(records_.size(), false);
  std::vector<int> stack = {back(0)};
  seen[0] = true;
  std::size_t tips_seen = 1;
  while (!stack.empty()) {
    const int r = stack.back();
    stack.pop_back();
    if (seen[idx(r)]) continue;
    seen[idx(r)] = true;
    if (is_tip_record(r)) {
      ++tips_seen;
      continue;
    }
    seen[idx(next(r))] = true;
    seen[idx(next(next(r)))] = true;
    const auto [c1, c2] = children(r);
    if (!seen[idx(c1)]) stack.push_back(c1);
    if (!seen[idx(c2)]) stack.push_back(c2);
  }
  RAXH_ASSERT(tips_seen == num_taxa_);
}

// --- Newick parsing ---

namespace {

struct PNode {
  std::string name;
  double length = kDefaultBranchLength;
  std::vector<PNode> children;
};

class NewickParser {
 public:
  explicit NewickParser(const std::string& text) : text_(text) {}

  PNode parse() {
    skip_space();
    PNode root = parse_node();
    skip_space();
    if (pos_ < text_.size() && text_[pos_] == ';') ++pos_;
    return root;
  }

 private:
  [[noreturn]] void fail(const std::string& what) const {
    throw std::runtime_error("newick parse error at position " +
                             std::to_string(pos_) + ": " + what);
  }

  void skip_space() {
    while (pos_ < text_.size() &&
           std::isspace(static_cast<unsigned char>(text_[pos_])))
      ++pos_;
  }

  PNode parse_node() {
    skip_space();
    PNode node;
    if (pos_ < text_.size() && text_[pos_] == '(') {
      ++pos_;
      for (;;) {
        node.children.push_back(parse_node());
        skip_space();
        if (pos_ >= text_.size()) fail("unterminated subtree");
        if (text_[pos_] == ',') {
          ++pos_;
          continue;
        }
        if (text_[pos_] == ')') {
          ++pos_;
          break;
        }
        fail("expected ',' or ')'");
      }
    }
    skip_space();
    // Optional label (inner labels, e.g. support values, are ignored for
    // internal nodes).
    std::string label;
    while (pos_ < text_.size() && text_[pos_] != ':' && text_[pos_] != ',' &&
           text_[pos_] != ')' && text_[pos_] != ';' && text_[pos_] != '(' &&
           !std::isspace(static_cast<unsigned char>(text_[pos_]))) {
      label += text_[pos_++];
    }
    if (node.children.empty()) {
      if (label.empty()) fail("tip without a name");
      node.name = label;
    }
    skip_space();
    if (pos_ < text_.size() && text_[pos_] == ':') {
      ++pos_;
      std::size_t used = 0;
      try {
        node.length = std::stod(text_.substr(pos_), &used);
      } catch (const std::exception&) {
        fail("malformed branch length");
      }
      if (node.length < 0.0) node.length = kMinBranchLength;
      pos_ += used;
    }
    return node;
  }

  const std::string& text_;
  std::size_t pos_ = 0;
};

// Fold multifurcations into binary nodes joined by minimum-length branches.
void binarize(PNode& node) {
  for (auto& c : node.children) binarize(c);
  const std::size_t limit = 2;
  while (node.children.size() > limit + 1) {  // keep at most 3 at the root...
    // ...the caller decides what to do with 3; here reduce to <= 3.
    PNode merged;
    merged.length = kMinBranchLength;
    merged.children.push_back(std::move(node.children[node.children.size() - 2]));
    merged.children.push_back(std::move(node.children[node.children.size() - 1]));
    node.children.pop_back();
    node.children.pop_back();
    node.children.push_back(std::move(merged));
  }
}

void binarize_internal(PNode& node) {
  for (auto& c : node.children) {
    binarize_internal(c);
  }
  while (node.children.size() > 2) {
    PNode merged;
    merged.length = kMinBranchLength;
    merged.children.push_back(std::move(node.children[node.children.size() - 2]));
    merged.children.push_back(std::move(node.children[node.children.size() - 1]));
    node.children.pop_back();
    node.children.pop_back();
    node.children.push_back(std::move(merged));
  }
}

}  // namespace

Tree Tree::parse_newick(const std::string& text,
                        const std::vector<std::string>& names) {
  NewickParser parser(text);
  PNode root = parser.parse();
  if (root.children.empty())
    throw std::runtime_error("newick: single-taxon input is not a tree");

  // Binarize everything below the root; the root itself may keep 3 children.
  for (auto& c : root.children) binarize_internal(c);
  while (root.children.size() > 3) binarize(root);
  // binarize() keeps <=3 at this level; ensure that held.
  if (root.children.size() > 3)
    throw std::runtime_error("newick: could not binarize root");

  std::map<std::string, int> name_index;
  for (std::size_t i = 0; i < names.size(); ++i)
    name_index[names[i]] = static_cast<int>(i);

  // Leaf count must match the taxon set before conversion (a surplus would
  // exhaust the internal-node pool mid-build).
  auto count_leaves = [](auto&& self, const PNode& node) -> std::size_t {
    if (node.children.empty()) return 1;
    std::size_t total = 0;
    for (const auto& c : node.children) total += self(self, c);
    return total;
  };
  const std::size_t leaves = count_leaves(count_leaves, root);
  if (leaves != names.size())
    throw std::runtime_error("newick: tree has " + std::to_string(leaves) +
                             " leaves but the taxon set has " +
                             std::to_string(names.size()));

  Tree tree(names.size());

  // Recursive conversion: returns the record facing the parent.
  std::vector<bool> tip_used(names.size(), false);
  auto convert = [&](auto&& self, const PNode& node) -> int {
    if (node.children.empty()) {
      auto it = name_index.find(node.name);
      if (it == name_index.end())
        throw std::runtime_error("newick: unknown taxon '" + node.name + "'");
      if (tip_used[static_cast<std::size_t>(it->second)])
        throw std::runtime_error("newick: duplicate taxon '" + node.name + "'");
      tip_used[static_cast<std::size_t>(it->second)] = true;
      ++tree.inserted_tips_;
      return it->second;
    }
    RAXH_ASSERT(node.children.size() == 2);
    const int ring = tree.allocate_internal();
    const int c1 = self(self, node.children[0]);
    const int c2 = self(self, node.children[1]);
    tree.hook(tree.next(ring), c1, node.children[0].length);
    tree.hook(tree.next(tree.next(ring)), c2, node.children[1].length);
    return ring;
  };

  if (root.children.size() == 3) {
    const int ring = tree.allocate_internal();
    const int c1 = convert(convert, root.children[0]);
    const int c2 = convert(convert, root.children[1]);
    const int c3 = convert(convert, root.children[2]);
    tree.hook(ring, c1, root.children[0].length);
    tree.hook(tree.next(ring), c2, root.children[1].length);
    tree.hook(tree.next(tree.next(ring)), c3, root.children[2].length);
  } else if (root.children.size() == 2) {
    // Rooted input: merge the two root branches into one edge.
    const int c1 = convert(convert, root.children[0]);
    const int c2 = convert(convert, root.children[1]);
    tree.hook(c1, c2, root.children[0].length + root.children[1].length);
  } else {
    throw std::runtime_error("newick: root must have 2 or 3 children");
  }

  if (!tree.is_complete())
    throw std::runtime_error("newick: tree does not cover all " +
                             std::to_string(names.size()) + " taxa");
  tree.check_invariants();
  return tree;
}

}  // namespace raxh
