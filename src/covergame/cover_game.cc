#include "covergame/cover_game.h"

#include <algorithm>
#include <bit>
#include <limits>
#include <unordered_map>
#include <unordered_set>
#include <utility>

#include "testing/coverage.h"
#include "testing/faults.h"
#include "util/budget.h"
#include "util/check.h"
#include "util/hash.h"

namespace featsep {

namespace {

constexpr std::uint32_t kNoKey = std::numeric_limits<std::uint32_t>::max();

/// Hash of a projected tuple.
std::uint64_t ProjectionHash(const Value* values, std::size_t n) {
  std::uint64_t hash = 0x9e3779b97f4a7c15ULL;
  for (std::size_t i = 0; i < n; ++i) {
    hash = (hash ^ values[i]) * 0xff51afd7ed558ccdULL;
    hash ^= hash >> 29;
  }
  return hash;
}

}  // namespace

CoverGameSolver::CoverGameSolver(const Database& from, const Database& to,
                                 std::size_t k, ExecutionBudget* budget)
    : from_(from), to_(to), k_(k), budget_(budget) {
  FEATSEP_CHECK_GE(k, 1u) << "cover game requires k >= 1";
  FEATSEP_CHECK(from.schema() == to.schema())
      << "cover game requires equal schemas";
  if (!RecheckBudget(budget_)) {
    interrupted_ = true;
    return;
  }
  EnumeratePositions();
  std::size_t num_strategies = 0;
  for (Position& position : positions_) {
    if (interrupted_) return;
    position.first_strategy = num_strategies;
    EnumerateMaps(&position);
    num_strategies += position.num_strategies;
  }
  if (!interrupted_) IndexOverlapSubsets();
  if (!interrupted_) InternProjections();
}

void CoverGameSolver::EnumeratePositions() {
  // Enumerate all subsets of at most k facts; canonicalize by element set.
  std::unordered_set<std::vector<Value>, VectorHash<Value>> seen;
  std::vector<FactIndex> chosen;

  auto add_position = [&](const std::vector<Value>& elements) {
    if (interrupted_) return;
    if (!ChargeBudget(budget_)) {
      interrupted_ = true;
      return;
    }
    if (!seen.insert(elements).second) return;
    FEATSEP_CHECK_LE(elements.size(), 64u)
        << "cover-game positions are limited to 64 elements";
    Position position;
    position.elements = elements;
    // Facts of `from_` whose elements all lie in `elements`.
    std::unordered_set<FactIndex> covered;
    for (Value v : elements) {
      for (FactIndex fi : from_.FactsContaining(v)) {
        if (covered.count(fi) > 0) continue;
        const Fact& fact = from_.fact(fi);
        bool inside = true;
        for (Value arg : fact.args) {
          if (!std::binary_search(elements.begin(), elements.end(), arg)) {
            inside = false;
            break;
          }
        }
        if (inside) covered.insert(fi);
      }
    }
    position.covered_facts.assign(covered.begin(), covered.end());
    std::sort(position.covered_facts.begin(), position.covered_facts.end());
    FEATSEP_COVERAGE(kCoverPosition);
    positions_.push_back(std::move(position));
  };

  // The empty position (Spoiler holding no pebbles).
  add_position({});

  // Recursive enumeration of fact subsets of size 1..k.
  auto recurse = [&](auto&& self, FactIndex next) -> void {
    if (interrupted_) return;
    if (!chosen.empty()) {
      std::vector<Value> elements;
      for (FactIndex fi : chosen) {
        for (Value v : from_.fact(fi).args) elements.push_back(v);
      }
      std::sort(elements.begin(), elements.end());
      elements.erase(std::unique(elements.begin(), elements.end()),
                     elements.end());
      add_position(elements);
    }
    if (chosen.size() == k_) return;
    for (FactIndex fi = next; fi < from_.size(); ++fi) {
      chosen.push_back(fi);
      self(self, fi + 1);
      chosen.pop_back();
    }
  };
  recurse(recurse, 0);
}

void CoverGameSolver::EnumerateMaps(Position* position) {
  const std::vector<Value>& elements = position->elements;
  const std::size_t width = elements.size();
  position->first_value = values_.size();
  if (elements.empty()) {
    position->num_strategies = 1;  // The empty map.
    return;
  }

  // Backtracking over the covered facts, choosing an image fact in `to_`
  // for each; the element map must stay consistent. Every element of the
  // position occurs in some covered fact (positions are unions of facts),
  // so a full choice determines the whole map. Conversely the map
  // determines every choice (the image of a covered fact is R(h(args)), and
  // `to_` holds each fact once), so no map is recorded twice.
  std::vector<std::vector<std::size_t>> arg_index;  // Per covered fact.
  for (FactIndex fi : position->covered_facts) {
    std::vector<std::size_t> indices;
    for (Value v : from_.fact(fi).args) {
      indices.push_back(static_cast<std::size_t>(
          std::lower_bound(elements.begin(), elements.end(), v) -
          elements.begin()));
    }
    arg_index.push_back(std::move(indices));
  }

  std::vector<Value> image(width, kNoValue);
  std::vector<std::size_t> trail;  // Elements assigned, in order.

  auto recurse = [&](auto&& self, std::size_t fact_pos) -> void {
    if (interrupted_) return;
    if (!ChargeBudget(budget_)) {
      interrupted_ = true;
      return;
    }
    if (fact_pos == position->covered_facts.size()) {
      FEATSEP_COVERAGE(kCoverMap);
      values_.insert(values_.end(), image.begin(), image.end());
      ++position->num_strategies;
      return;
    }
    const RelationId relation =
        from_.fact(position->covered_facts[fact_pos]).relation;
    const std::vector<std::size_t>& indices = arg_index[fact_pos];
    // Candidate image facts: those carrying an already-mapped argument in
    // its place, or all facts of the relation. Both lists keep the
    // database's fact order.
    const std::vector<FactIndex>* targets = &to_.FactsOf(relation);
    for (std::size_t pos = 0; pos < indices.size(); ++pos) {
      if (image[indices[pos]] != kNoValue) {
        targets = &to_.FactsWith(relation, pos, image[indices[pos]]);
        break;
      }
    }
    for (FactIndex ti : *targets) {
      const std::vector<Value>& args = to_.fact(ti).args;
      // Try to unify: each source arg must map to the target arg.
      std::size_t mark = trail.size();
      bool ok = true;
      for (std::size_t pos = 0; pos < indices.size(); ++pos) {
        Value& slot = image[indices[pos]];
        if (slot == kNoValue) {
          slot = args[pos];
          trail.push_back(indices[pos]);
        } else if (slot != args[pos]) {
          ok = false;
          break;
        }
      }
      if (ok) self(self, fact_pos + 1);
      while (trail.size() > mark) {
        image[trail.back()] = kNoValue;
        trail.pop_back();
      }
    }
  };
  recurse(recurse, 0);
}

void CoverGameSolver::IndexOverlapSubsets() {
  const std::size_t num_positions = positions_.size();
  // Positions containing each element of `from_`, in increasing order.
  std::vector<std::vector<std::uint32_t>> positions_of(from_.num_values());
  for (std::size_t p = 0; p < num_positions; ++p) {
    for (Value v : positions_[p].elements) {
      positions_of[v].push_back(static_cast<std::uint32_t>(p));
    }
  }

  // Per position r, the overlap S_r ∩ S_q with every position q sharing an
  // element, as a bitmask of S_r. Each distinct overlap is a subset T; the
  // first time T shows up, every position containing T shares an element
  // with r, so its containing positions are r and the neighbours q whose
  // overlap covers T.
  std::unordered_map<std::vector<Value>, std::uint32_t, VectorHash<Value>>
      subset_ids;
  std::vector<std::vector<std::uint32_t>> containing;  // Per subset.
  std::vector<std::uint64_t> overlap(num_positions, 0);
  std::vector<std::uint32_t> neighbours;
  std::vector<std::uint64_t> seen;
  std::vector<std::size_t> distinct;  // Occupied slots of `seen`.
  for (std::size_t r = 0; r < num_positions; ++r) {
    if (!ChargeBudget(budget_)) {
      interrupted_ = true;
      return;
    }
    const std::vector<Value>& elements = positions_[r].elements;
    for (std::size_t b = 0; b < elements.size(); ++b) {
      for (std::uint32_t q : positions_of[elements[b]]) {
        if (q == r) continue;
        if (overlap[q] == 0) neighbours.push_back(q);
        overlap[q] |= std::uint64_t{1} << b;
      }
    }
    // Distinct overlaps, through an open-addressing set cleared by `distinct`.
    std::size_t capacity = 2;
    while (capacity < 2 * neighbours.size()) capacity *= 2;
    if (seen.size() < capacity) seen.resize(capacity, 0);
    for (std::uint32_t q : neighbours) {
      std::uint64_t mask = overlap[q];
      std::size_t slot = (mask * 0x9e3779b97f4a7c15ULL >> 20) & (capacity - 1);
      while (seen[slot] != 0 && seen[slot] != mask) {
        slot = (slot + 1) & (capacity - 1);
      }
      if (seen[slot] == 0) {
        seen[slot] = mask;
        distinct.push_back(slot);
      }
    }
    for (std::size_t slot : distinct) {
      const std::uint64_t mask = seen[slot];
      std::vector<Value> subset;
      for (std::uint64_t m = mask; m != 0; m &= m - 1) {
        subset.push_back(elements[std::countr_zero(m)]);
      }
      auto [it, inserted] = subset_ids.emplace(
          std::move(subset), static_cast<std::uint32_t>(containing.size()));
      if (!inserted) continue;
      std::vector<std::uint32_t> holders = {static_cast<std::uint32_t>(r)};
      for (std::uint32_t q : neighbours) {
        if ((overlap[q] & mask) == mask) holders.push_back(q);
      }
      std::sort(holders.begin(), holders.end());
      containing.push_back(std::move(holders));
    }
    for (std::uint32_t q : neighbours) overlap[q] = 0;
    for (std::size_t slot : distinct) seen[slot] = 0;
    neighbours.clear();
    distinct.clear();
  }

  // Supports grouped by position, each position's in increasing subset id.
  std::vector<std::vector<std::uint32_t>> subsets_of(num_positions);
  for (std::uint32_t t = 0; t < containing.size(); ++t) {
    for (std::uint32_t p : containing[t]) subsets_of[p].push_back(t);
  }
  std::vector<const std::vector<Value>*> subset_elements(containing.size());
  for (const auto& [subset, t] : subset_ids) subset_elements[t] = &subset;

  subsets_.resize(containing.size());
  std::size_t num_keys_total = 0;
  for (std::size_t p = 0; p < num_positions; ++p) {
    Position& position = positions_[p];
    position.first_support = supports_.size();
    position.num_supports = subsets_of[p].size();
    for (std::uint32_t t : subsets_of[p]) {
      Support support;
      support.subset = t;
      support.position = static_cast<std::uint32_t>(p);
      support.first_key = num_keys_total;
      num_keys_total += position.num_strategies;
      std::size_t b = 0;
      for (Value v : *subset_elements[t]) {
        while (position.elements[b] != v) ++b;
        support.mask |= std::uint64_t{1} << b;
      }
      supports_.push_back(support);
    }
  }
  // Subset → its support ids, in position order.
  std::vector<std::size_t> cursor(num_positions, 0);
  for (std::uint32_t t = 0; t < containing.size(); ++t) {
    subsets_[t].num_positions = static_cast<std::uint32_t>(containing[t].size());
    subsets_[t].first_support = subset_supports_.size();
    for (std::uint32_t p : containing[t]) {
      subset_supports_.push_back(static_cast<std::uint32_t>(
          positions_[p].first_support + cursor[p]++));
    }
  }
  keys_.assign(num_keys_total, kNoKey);
}

void CoverGameSolver::InternProjections() {
  // Per subset T, the key space is the set of projections of the viable
  // strategies of its smallest containing position: a projection outside it
  // is never supported by that position, so a strategy carrying one can
  // never be live and is marked non-viable. Non-viable strategies get no
  // keys.
  viable_.assign(num_candidate_strategies(), 1);
  std::vector<std::uint32_t> slots;  // Open addressing over key ids + 1.
  std::vector<Value> key_values;     // Key id → its projection.
  Value projection[64];
  for (std::size_t t = 0; t < subsets_.size(); ++t) {
    if (!ChargeBudget(budget_)) {
      interrupted_ = true;
      return;
    }
    Subset& subset = subsets_[t];
    const std::uint32_t* holders = &subset_supports_[subset.first_support];
    const Position* owner = &positions_[supports_[holders[0]].position];
    for (std::uint32_t h = 1; h < subset.num_positions; ++h) {
      const Position& candidate = positions_[supports_[holders[h]].position];
      if (candidate.num_strategies < owner->num_strategies) {
        owner = &candidate;
      }
    }
    const std::size_t width =
        static_cast<std::size_t>(std::popcount(supports_[holders[0]].mask));
    std::size_t capacity = 2;
    while (capacity < 2 * owner->num_strategies) capacity *= 2;
    slots.assign(capacity, 0);
    key_values.clear();

    // Looks up (or, for the owner, adds) the projection of every strategy
    // of each containing position.
    for (bool adding : {true, false}) {
      for (std::uint32_t h = 0; h < subset.num_positions; ++h) {
        const Support& support = supports_[holders[h]];
        const Position& position = positions_[support.position];
        if (adding != (&position == owner)) continue;
        const Value* row = values_.data() + position.first_value;
        std::uint32_t* keys = keys_.data() + support.first_key;
        std::uint8_t* viable = viable_.data() + position.first_strategy;
        for (std::size_t i = 0; i < position.num_strategies;
             ++i, row += position.elements.size()) {
          if (viable[i] == 0) continue;
          std::size_t n = 0;
          for (std::uint64_t m = support.mask; m != 0; m &= m - 1) {
            projection[n++] = row[std::countr_zero(m)];
          }
          std::size_t slot = ProjectionHash(projection, n) & (capacity - 1);
          std::uint32_t key = kNoKey;
          while (slots[slot] != 0) {
            const Value* known = key_values.data() + (slots[slot] - 1) * width;
            if (std::equal(projection, projection + width, known)) {
              key = slots[slot] - 1;
              break;
            }
            slot = (slot + 1) & (capacity - 1);
          }
          if (key == kNoKey && adding) {
            key = subset.num_keys++;
            slots[slot] = key + 1;
            key_values.insert(key_values.end(), projection, projection + width);
          }
          keys[i] = key;
          if (key == kNoKey) viable[i] = 0;
        }
      }
    }
    subset.first_counter = num_subset_counters_;
    num_subset_counters_ += subset.num_keys;
  }
  for (Support& support : supports_) {
    support.first_counter = num_support_counters_;
    num_support_counters_ += subsets_[support.subset].num_keys;
  }
}

std::size_t CoverGameSolver::num_candidate_strategies() const {
  std::size_t total = 0;
  for (const Position& position : positions_) total += position.num_strategies;
  return total;
}

bool CoverGameSolver::Decide(const std::vector<Value>& a_tuple,
                             const std::vector<Value>& b_tuple) const {
  Budgeted<bool> result = TryDecide(a_tuple, b_tuple);
  FEATSEP_CHECK(result.ok())
      << "unbudgeted cover-game entry point interrupted; use TryDecide";
  return result.value;
}

Budgeted<bool> CoverGameSolver::TryDecide(
    const std::vector<Value>& a_tuple,
    const std::vector<Value>& b_tuple) const {
  FEATSEP_CHECK_EQ(a_tuple.size(), b_tuple.size());
  Budgeted<bool> result;
  result.value = false;
  // A solver whose tables were truncated by the budget, or a budget already
  // tripped at entry, cannot decide anything.
  if (interrupted_ || !RecheckBudget(budget_)) {
    result.outcome = OutcomeOf(budget_);
    return result;
  }

  // Base map ā → b̄; must be functional.
  std::unordered_map<Value, Value> base;
  for (std::size_t i = 0; i < a_tuple.size(); ++i) {
    auto [it, inserted] = base.emplace(a_tuple[i], b_tuple[i]);
    if (!inserted && it->second != b_tuple[i]) {
      FEATSEP_COVERAGE(kCoverBaseReject);
      return result;
    }
  }

  // Facts touching ā (candidates for the mixed / pure-ā checks).
  std::unordered_set<FactIndex> touching_a;
  for (const auto& [a, b] : base) {
    (void)b;
    if (a < from_.num_values()) {
      for (FactIndex fi : from_.FactsContaining(a)) touching_a.insert(fi);
    }
  }

  // Pure-ā facts must be preserved by the base map alone.
  for (FactIndex fi : touching_a) {
    const Fact& fact = from_.fact(fi);
    bool pure = true;
    std::vector<Value> args;
    args.reserve(fact.args.size());
    for (Value v : fact.args) {
      auto it = base.find(v);
      if (it == base.end()) {
        pure = false;
        break;
      }
      args.push_back(it->second);
    }
    if (pure && !to_.ContainsFact(Fact{fact.relation, std::move(args)})) {
      FEATSEP_COVERAGE(kCoverBaseReject);
      return result;
    }
  }

  // Filter: a strategy is live iff it is viable, agrees with the base map
  // on S ∩ set(ā), and preserves the mixed facts under base ∪ h.
  std::vector<std::uint8_t> live(viable_);
  std::vector<std::size_t> live_count(positions_.size());
  std::vector<std::pair<std::size_t, Value>> pinned;  // (index in S, b).
  struct MixedFact {
    RelationId relation;
    /// Per argument: a base value, or kNoValue to read `index` of the row.
    std::vector<std::pair<Value, std::size_t>> args;
  };
  std::vector<MixedFact> mixed;
  Fact probe;
  for (std::size_t p = 0; p < positions_.size(); ++p) {
    if (!ChargeBudget(budget_)) {
      result.outcome = OutcomeOf(budget_);
      return result;
    }
    const Position& position = positions_[p];
    const std::vector<Value>& elements = position.elements;
    pinned.clear();
    for (std::size_t i = 0; i < elements.size(); ++i) {
      auto it = base.find(elements[i]);
      if (it != base.end()) pinned.emplace_back(i, it->second);
    }
    // Mixed facts: touch ā, lie inside S ∪ set(ā), and use ≥1 element of
    // S \ set(ā) (pure-ā facts were already checked above).
    mixed.clear();
    for (FactIndex fi : touching_a) {
      const Fact& fact = from_.fact(fi);
      MixedFact check{fact.relation, {}};
      bool inside = true;
      bool uses_s_only_element = false;
      for (Value v : fact.args) {
        auto in_a = base.find(v);
        auto in_s = std::lower_bound(elements.begin(), elements.end(), v);
        if (in_a != base.end()) {
          check.args.emplace_back(in_a->second, 0);
        } else if (in_s != elements.end() && *in_s == v) {
          uses_s_only_element = true;
          check.args.emplace_back(
              kNoValue, static_cast<std::size_t>(in_s - elements.begin()));
        } else {
          inside = false;
          break;
        }
      }
      if (inside && uses_s_only_element) mixed.push_back(std::move(check));
    }

    std::size_t count = 0;
    for (std::size_t i = 0; i < position.num_strategies; ++i) {
      std::uint8_t& alive = live[position.first_strategy + i];
      if (alive == 0) continue;
      const Value* row =
          values_.data() + position.first_value + i * elements.size();
      bool ok = true;
      for (const auto& [index, value] : pinned) {
        if (row[index] != value) {
          ok = false;
          break;
        }
      }
      for (std::size_t m = 0; ok && m < mixed.size(); ++m) {
        probe.relation = mixed[m].relation;
        probe.args.clear();
        for (const auto& [value, index] : mixed[m].args) {
          probe.args.push_back(value != kNoValue ? value : row[index]);
        }
        ok = to_.ContainsFact(probe);
      }
      alive = ok ? 1 : 0;
      count += alive;
    }
    if (count == 0) {
      FEATSEP_COVERAGE(kCoverPositionDead);
      return result;
    }
    live_count[p] = count;
  }

  // Support counts: per (position, T, projection) the live strategies
  // carrying it, and per (T, projection) the positions with such a strategy.
  std::vector<std::uint32_t> carriers(num_support_counters_, 0);
  std::vector<std::uint32_t> supporters(num_subset_counters_, 0);
  for (const Support& support : supports_) {
    const Position& position = positions_[support.position];
    for (std::size_t i = 0; i < position.num_strategies; ++i) {
      if (live[position.first_strategy + i] != 0) {
        ++carriers[support.first_counter + keys_[support.first_key + i]];
      }
    }
  }
  std::vector<std::uint32_t> worklist;
  std::vector<std::uint8_t> queued(supports_.size(), 0);
  for (const Support& support : supports_) {
    const Subset& subset = subsets_[support.subset];
    for (std::uint32_t key = 0; key < subset.num_keys; ++key) {
      if (carriers[support.first_counter + key] != 0) {
        ++supporters[subset.first_counter + key];
      }
    }
  }
  // A support needs a scan iff some live strategy there carries a
  // projection that not every position containing T supports.
  for (std::uint32_t g = 0; g < supports_.size(); ++g) {
    const Support& support = supports_[g];
    const Subset& subset = subsets_[support.subset];
    for (std::uint32_t key = 0; key < subset.num_keys; ++key) {
      if (carriers[support.first_counter + key] != 0 &&
          supporters[subset.first_counter + key] < subset.num_positions) {
        queued[g] = 1;
        worklist.push_back(g);
        break;
      }
    }
  }

  // Deletes strategy i of position p; false iff p ran out of strategies.
  // A projection that loses its last carrier at p loses p's support; the
  // first such loss makes the projection unsupported everywhere, so every
  // support of T still carrying it is queued for a scan.
  auto remove = [&](std::size_t p, std::size_t i) -> bool {
    const Position& position = positions_[p];
    live[position.first_strategy + i] = 0;
    for (std::size_t j = 0; j < position.num_supports; ++j) {
      const Support& support = supports_[position.first_support + j];
      const std::uint32_t key = keys_[support.first_key + i];
      if (--carriers[support.first_counter + key] != 0) continue;
      const Subset& subset = subsets_[support.subset];
      if (supporters[subset.first_counter + key]-- != subset.num_positions) {
        continue;
      }
      for (std::uint32_t h = 0; h < subset.num_positions; ++h) {
        std::uint32_t g = subset_supports_[subset.first_support + h];
        if (queued[g] == 0 && carriers[supports_[g].first_counter + key] != 0) {
          queued[g] = 1;
          worklist.push_back(g);
        }
      }
    }
    return --live_count[p] != 0;
  };

  // Greatest fixpoint: scan queued supports, deleting the live strategies
  // whose projection onto T lost support somewhere.
  while (true) {
    FEATSEP_COVERAGE(kCoverFixpointRound);
    FEATSEP_FAULT_POINT(kCoverFixpointRound);
    if (worklist.empty()) break;
    if (!ChargeBudget(budget_)) {
      result.outcome = OutcomeOf(budget_);
      return result;
    }
    std::uint32_t g = worklist.back();
    worklist.pop_back();
    queued[g] = 0;
    const Support& support = supports_[g];
    const Subset& subset = subsets_[support.subset];
    const Position& position = positions_[support.position];
    bool deleted = false;
    for (std::size_t i = 0; i < position.num_strategies; ++i) {
      if (live[position.first_strategy + i] == 0) continue;
      std::uint32_t key = keys_[support.first_key + i];
      if (supporters[subset.first_counter + key] == subset.num_positions) {
        continue;
      }
      deleted = true;
      if (!remove(support.position, i)) {
        FEATSEP_COVERAGE(kCoverStrategyDeleted);
        FEATSEP_COVERAGE(kCoverLose);
        return result;
      }
    }
    if (deleted) FEATSEP_COVERAGE(kCoverStrategyDeleted);
  }
  FEATSEP_COVERAGE(kCoverWin);
  result.value = true;
  return result;
}

bool CoverGameWins(const Database& from, const std::vector<Value>& a_tuple,
                   const Database& to, const std::vector<Value>& b_tuple,
                   std::size_t k) {
  CoverGameSolver solver(from, to, k);
  return solver.Decide(a_tuple, b_tuple);
}

std::vector<std::vector<bool>> CoverPreorder(
    const Database& db, const std::vector<Value>& elements, std::size_t k) {
  CoverGameSolver solver(db, db, k);
  std::size_t n = elements.size();
  std::vector<std::vector<bool>> result(n, std::vector<bool>(n, false));
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < n; ++j) {
      result[i][j] =
          i == j || solver.Decide({elements[i]}, {elements[j]});
    }
  }
  return result;
}

}  // namespace featsep
