// Unrooted binary phylogenetic tree in the node-ring representation RAxML
// uses: every internal node is a ring of three directed records; every edge
// joins two records via their `back` links. Tips are single records with ids
// [0, num_taxa).
//
// Directed records are what the likelihood engine keys its conditional
// likelihood vectors on: the CLV "at record r" summarizes the subtree on r's
// node-side and is valid when evaluating the edge (r, back(r)).
//
// The class supports incremental construction (stepwise addition), SPR
// prune/regraft with exact undo, Newick I/O, and traversal helpers. All
// mutators keep the two directed records of an edge length-synchronized.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace raxh {

// Default branch length for freshly created edges (RAxML's default z maps to
// roughly this in substitutions/site units).
inline constexpr double kDefaultBranchLength = 0.1;
inline constexpr double kMinBranchLength = 1e-6;
inline constexpr double kMaxBranchLength = 30.0;

class Tree {
 public:
  // A tree over `num_taxa` taxa with no edges yet; build with make_triplet()
  // + insert_tip(), or use parse_newick().
  explicit Tree(std::size_t num_taxa);

  // --- construction ---

  // Initialize as the unique 3-taxon topology over tips {a, b, c}.
  void make_triplet(int tip_a, int tip_b, int tip_c,
                    double length = kDefaultBranchLength);

  // Splice `tip` into the edge (edge_rec, back(edge_rec)): a fresh internal
  // node subdivides the edge and the tip hangs off it. The original edge
  // length is split evenly; the tip edge gets `tip_length`.
  // Returns the ring record whose back is the tip.
  int insert_tip(int tip, int edge_rec,
                 double tip_length = kDefaultBranchLength);

  // Parse a Newick string; taxon labels must occur in `names` (their index
  // becomes the tip id). Accepts binary trees rooted with a bifurcation or
  // trifurcation at the outermost level. Throws std::runtime_error on
  // malformed input.
  static Tree parse_newick(const std::string& text,
                           const std::vector<std::string>& names);

  // --- structure queries ---

  [[nodiscard]] std::size_t num_taxa() const { return num_taxa_; }
  // True once all taxa have been inserted.
  [[nodiscard]] bool is_complete() const {
    return inserted_tips_ == num_taxa_;
  }
  [[nodiscard]] std::size_t num_inserted_tips() const { return inserted_tips_; }

  [[nodiscard]] int back(int rec) const { return records_[idx(rec)].back; }
  [[nodiscard]] int next(int rec) const { return records_[idx(rec)].next; }
  [[nodiscard]] bool is_tip_record(int rec) const {
    return rec < static_cast<int>(num_taxa_);
  }
  // Tip id of a tip record (== the record id).
  [[nodiscard]] int tip_id(int rec) const { return rec; }
  // Owning node id: tips 0..n-1, internal nodes n..2n-3 (all three ring
  // records of an internal node share the id).
  [[nodiscard]] int node_id(int rec) const;
  // The internal node's CLV slot, 0..n-3. Requires an internal record.
  [[nodiscard]] int clv_slot(int rec) const;

  [[nodiscard]] double length(int rec) const { return records_[idx(rec)].length; }
  void set_length(int rec, double length);  // updates both directions

  // All edges, once each, as the record with the smaller id.
  [[nodiscard]] std::vector<int> edges() const;
  // Internal records in use (3 per active internal node).
  [[nodiscard]] std::vector<int> internal_records() const;

  // Records of the two subtree children of internal record r: the records
  // across the other two ring members. (c1, c2) = (back(next(r)),
  // back(next(next(r)))).
  struct Children {
    int rec1;
    int rec2;
  };
  [[nodiscard]] Children children(int rec) const;

  // --- SPR ---

  // Everything needed to undo a prune+regraft.
  struct SprMove {
    int p = -1;       // internal record carried with the pruned subtree
    int q = -1, r = -1;    // former neighbor records, rejoined by the prune
    double q_len = 0, r_len = 0;
    int s = -1, t = -1;    // regraft edge records
    double s_len = 0;
    bool valid() const { return p >= 0; }
  };

  // Prune the subtree behind internal record p (the subtree rooted at
  // back(p), carried together with p's node), reconnecting p's two former
  // neighbors. Returns partial move info; complete with regraft().
  SprMove prune(int p);

  // Regraft a pruned subtree (from prune()) into edge (s, back(s)).
  // s must not lie in the pruned subtree. Updates and returns the move.
  void regraft(SprMove& move, int s);

  // Undo only the regraft half of `move` (the subtree dangles again, ready
  // for the next regraft candidate). Clears move.s/move.t.
  void undo_regraft(SprMove& move);

  // Restore the topology and branch lengths from before `move`.
  void undo(const SprMove& move);

  // True if record `rec`'s edge lies strictly inside the subtree behind
  // record p (used to exclude regraft targets during SPR enumeration).
  [[nodiscard]] bool in_subtree(int p, int rec) const;

  // --- traversal ---

  // Records in a bottom-up (children before parent) order covering the
  // subtree behind `rec`; tips omitted. Computing CLVs in this order makes
  // CLV(rec) computable last.
  [[nodiscard]] std::vector<int> postorder(int rec) const;

  // Full-tree postorder for evaluating at edge (rec, back(rec)): bottom-up
  // records of both subtree sides.
  [[nodiscard]] std::vector<int> full_traversal(int rec) const;

  // --- output ---

  // Newick with branch lengths, unrooted (trifurcation at the node adjacent
  // to tip 0). Requires a complete tree.
  [[nodiscard]] std::string to_newick(const std::vector<std::string>& names) const;

  // Sum of all branch lengths.
  [[nodiscard]] double total_length() const;

  // Raw structural serialization: captures the exact record layout (not just
  // the topology), so search trajectories that iterate records resume
  // bit-identically after a checkpoint round trip. Newick round trips do NOT
  // preserve layout; use this for state persistence.
  struct RawTopology {
    std::size_t num_taxa = 0;
    std::size_t inserted_tips = 0;
    std::vector<int> back;       // per record
    std::vector<double> length;  // per record
    std::vector<std::uint8_t> internal_used;
  };
  [[nodiscard]] RawTopology export_raw() const;
  static Tree import_raw(const RawTopology& raw);

  // Structural invariants (rings closed, back links symmetric, lengths
  // synchronized, correct node/edge counts). Aborts on violation; used by
  // tests and after complex rearrangements in debug paths.
  void check_invariants() const;

 private:
  struct Record {
    int back = -1;
    int next = -1;
    double length = 0.0;
  };

  static std::size_t idx(int rec) { return static_cast<std::size_t>(rec); }

  // Connect records a and b as an edge with the given length.
  void hook(int a, int b, double length);

  int allocate_internal();  // ring of 3 records; returns the first record

  std::size_t num_taxa_ = 0;
  std::size_t inserted_tips_ = 0;
  std::vector<Record> records_;
  std::vector<bool> internal_used_;  // per internal node (ring)
};

}  // namespace raxh
