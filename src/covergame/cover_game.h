#ifndef FEATSEP_COVERGAME_COVER_GAME_H_
#define FEATSEP_COVERGAME_COVER_GAME_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "relational/database.h"
#include "util/budget.h"

namespace featsep {

/// Solver for the existential k-cover game of Chen and Dalmau (paper,
/// Section 5): decides the relation (D, ā) →_k (D', b̄), i.e., whether
/// Duplicator has a winning strategy. By Proposition 5.2, this holds iff
/// every CQ of generalized hypertree width ≤ k that selects ā over D also
/// selects b̄ over D' — the engine behind GHW(k)-SEP, GHW(k)-CLS
/// (Algorithm 1) and GHW(k)-ApxSep (Algorithm 2).
///
/// Implementation: positional (history-free) strategies suffice because the
/// winning condition is a safety condition. Game positions are the element
/// sets coverable by at most k facts of D, represented canonically (one
/// position per distinct element set). For each position S the solver
/// enumerates all partial homomorphisms h : S → dom(D') that, together with
/// the fixed pebbles ā → b̄, preserve every fact of D whose elements lie in
/// S ∪ set(ā). A greatest fixpoint then deletes every h that Spoiler can
/// defeat: h ∈ F(S) survives iff for every position S' some h' ∈ F(S')
/// agrees with h on S ∩ S'. Duplicator wins iff no position runs out of
/// strategies.
///
/// The fixpoint is computed by support counting over *overlap subsets*: the
/// nonempty sets T = S ∩ S' of two distinct positions. The condition above
/// is equivalent to "for every overlap subset T ⊆ S, h|T is the projection
/// of a live strategy in every position containing T". The constructor
/// stores each position's strategies in one flat table and interns every
/// strategy's projection onto every overlap subset it contains (both
/// ā-independent). A strategy whose projection no viable strategy of the
/// subset's smallest position carries can never be supported; it is marked
/// non-viable once, for every pebbling. TryDecide counts, per (position, T,
/// projection), the live strategies and, per (T, projection), the positions
/// that still support it; when a projection loses a position's support, the
/// strategies carrying it are deleted through a worklist, and the run ends
/// as soon as a position empties.
///
/// Complexity: O(|D|^k) positions with O(|D'|^k) candidate strategies each;
/// polynomial for every fixed k (Proposition 5.1), with the exponent growing
/// in k as the theory predicts. Memory is one projection key per
/// (strategy, overlap subset of its position) — at most 2^|S| − 1 per
/// strategy — plus the counters TryDecide allocates per call. Each strategy
/// is deleted at most once; a deletion costs one counter update per overlap
/// subset of its position, and a position is rescanned only when one of its
/// projections loses support. Positions hold at most 64 elements.
///
/// The solver precomputes the ā-independent part (positions, strategy
/// tables and projection keys) once per (D, D', k), so probing many pebble
/// pairs — as the separability preorder does — amortizes it.
class CoverGameSolver {
 public:
  /// Prepares positions and candidate strategies for games from `from` to
  /// `to` with cover bound `k` (k ≥ 1). Both databases must outlive the
  /// solver and share a schema. `budget` (nullptr = unbounded) must outlive
  /// the solver too; it is charged per enumerated position/strategy and per
  /// position/subset indexed during construction, and per filtered position
  /// and worklist step in TryDecide. A budget that
  /// trips during construction leaves the solver permanently interrupted —
  /// every TryDecide then reports the budget outcome.
  CoverGameSolver(const Database& from, const Database& to, std::size_t k,
                  ExecutionBudget* budget = nullptr);

  /// Decides (from, ā) →_k (to, b̄). The tuples must have equal length;
  /// repeated values in ā must pair with equal values in b̄ (otherwise the
  /// pebbled tuples admit no partial homomorphism and the answer is false).
  /// CHECK-fails if the budget trips; use TryDecide for interruptible runs.
  bool Decide(const std::vector<Value>& a_tuple,
              const std::vector<Value>& b_tuple) const;

  /// Budgeted Decide: `value` is meaningful only when ok() — an interrupted
  /// fixpoint is UNDECIDED, not a loss.
  Budgeted<bool> TryDecide(const std::vector<Value>& a_tuple,
                           const std::vector<Value>& b_tuple) const;

  /// Number of game positions (distinct ≤k-fact-coverable element sets).
  std::size_t num_positions() const { return positions_.size(); }

  /// Total candidate strategies enumerated across positions (before any
  /// per-query filtering); a measure of the game's size.
  std::size_t num_candidate_strategies() const;

 private:
  struct Position {
    std::vector<Value> elements;  // Sorted.
    /// Indexes (into from_) of the facts of `from` whose elements all lie in
    /// `elements` — the facts any strategy at this position must preserve.
    std::vector<FactIndex> covered_facts;
    /// Candidate strategies, each preserving all `covered_facts`: strategy i
    /// (global id first_strategy + i) is the image row
    /// values_[first_value + i·|elements|, …) aligned with `elements`.
    std::size_t first_strategy = 0;
    std::size_t num_strategies = 0;
    std::size_t first_value = 0;
    /// The overlap subsets inside `elements`: supports_[first_support + j],
    /// j < num_supports.
    std::size_t first_support = 0;
    std::size_t num_supports = 0;
  };

  /// One (position, overlap subset) pair.
  struct Support {
    std::uint64_t mask = 0;   ///< The subset's elements, as bits of S.
    std::uint32_t subset = 0;
    std::uint32_t position = 0;
    /// Strategy i's projection key onto the subset is keys_[first_key + i].
    std::size_t first_key = 0;
    /// Offset of this pair's per-projection live counts in TryDecide.
    std::size_t first_counter = 0;
  };

  /// An overlap subset T with its projection key space.
  struct Subset {
    std::uint32_t num_keys = 0;       ///< Distinct projections onto T.
    std::uint32_t num_positions = 0;  ///< Positions containing T.
    /// Offset of its per-projection supporter counts in TryDecide.
    std::size_t first_counter = 0;
    /// Its supports: subset_supports_[first_support + i], i < num_positions.
    std::size_t first_support = 0;
  };

  void EnumeratePositions();
  void EnumerateMaps(Position* position);
  void IndexOverlapSubsets();
  void InternProjections();

  const Database& from_;
  const Database& to_;
  std::size_t k_;
  ExecutionBudget* budget_;
  /// Set when the budget trips during construction: the position/strategy
  /// tables are incomplete and no game can be decided from them.
  bool interrupted_ = false;
  std::vector<Position> positions_;
  std::vector<Value> values_;                ///< Strategy rows.
  std::vector<Support> supports_;            ///< Grouped by position.
  std::vector<Subset> subsets_;
  std::vector<std::uint32_t> subset_supports_;  ///< Support ids per subset.
  /// Projection keys of the viable strategies (kNoKey for the others).
  std::vector<std::uint32_t> keys_;
  /// Per strategy: false when some projection is carried by no viable
  /// strategy of the subset's smallest containing position, so it can
  /// never be supported.
  std::vector<std::uint8_t> viable_;
  std::size_t num_support_counters_ = 0;  ///< Σ over supports of num_keys.
  std::size_t num_subset_counters_ = 0;   ///< Σ over subsets of num_keys.
};

/// Convenience wrapper: (from, ā) →_k (to, b̄).
bool CoverGameWins(const Database& from, const std::vector<Value>& a_tuple,
                   const Database& to, const std::vector<Value>& b_tuple,
                   std::size_t k);

/// The full →_k preorder over the given elements of a single database:
/// result[i][j] = ( (db, elements[i]) →_k (db, elements[j]) ).
/// Shares one CoverGameSolver across all pairs.
std::vector<std::vector<bool>> CoverPreorder(
    const Database& db, const std::vector<Value>& elements, std::size_t k);

}  // namespace featsep

#endif  // FEATSEP_COVERGAME_COVER_GAME_H_
