#ifndef FEATSEP_TESTING_REFERENCE_COVER_GAME_H_
#define FEATSEP_TESTING_REFERENCE_COVER_GAME_H_

#include <cstddef>
#include <vector>

#include "relational/database.h"

namespace featsep {
namespace testing {

/// Deliberately unoptimized reference for the existential k-cover game of
/// Chen and Dalmau (paper, Section 5): a round-robin greatest fixpoint.
/// Every round compares every ordered pair of positions, projecting the
/// live strategies of one onto the overlap and deleting the strategies of
/// the other whose projection is missing, until a round deletes nothing.
///
/// It exists as a permanent independent oracle for the differential fuzz
/// harness (`covergame/kernel-vs-reference`). DO NOT optimize it or share
/// code with `src/covergame`; slowness and independence are the point. It
/// has no budget, coverage probes or fault points. Keep oracle instances
/// small (O(|D|^k) positions with O(|D'|^k) strategies each, every round
/// O(positions²)).
class RefCoverGame {
 public:
  /// Enumerates positions (distinct element sets of at most k facts of
  /// `from`) and their fact-preserving maps into `to`. Both databases must
  /// outlive the oracle and share a schema; k ≥ 1.
  RefCoverGame(const Database& from, const Database& to, std::size_t k);

  /// (from, ā) →_k (to, b̄), with the same contract as
  /// CoverGameSolver::Decide.
  bool Decide(const std::vector<Value>& a_tuple,
              const std::vector<Value>& b_tuple) const;

 private:
  struct Position {
    std::vector<Value> elements;  // Sorted.
    std::vector<FactIndex> covered_facts;
    std::vector<std::vector<Value>> maps;
  };

  void EnumeratePositions();
  void EnumerateMaps(Position* position);

  const Database& from_;
  const Database& to_;
  std::size_t k_;
  std::vector<Position> positions_;
};

}  // namespace testing
}  // namespace featsep

#endif  // FEATSEP_TESTING_REFERENCE_COVER_GAME_H_
