#include "core/ghw_separability.h"

#include <memory>
#include <random>

#include <gtest/gtest.h>

#include "core/separability.h"
#include "relational/database_ops.h"
#include "test_util.h"

namespace featsep {
namespace {

using ::featsep::testing::AddCycle;
using ::featsep::testing::AddEntity;
using ::featsep::testing::GraphSchema;

/// Entities at the heads of paths of given lengths, labeled by the
/// predicate length >= 2.
std::shared_ptr<TrainingDatabase> PathLengthDataset(
    const std::vector<std::size_t>& lengths) {
  auto db = std::make_shared<Database>(GraphSchema());
  auto training = std::make_shared<TrainingDatabase>(db);
  for (std::size_t i = 0; i < lengths.size(); ++i) {
    std::string prefix = "p" + std::to_string(i) + "_";
    auto nodes = testing::AddPath(*db, prefix, lengths[i]);
    db->AddFact(db->schema().entity_relation(), {nodes[0]});
    training->SetLabel(nodes[0],
                       lengths[i] >= 2 ? kPositive : kNegative);
  }
  return training;
}

/// Entities attached by a one-way tail edge to directed cycles of the
/// given lengths; label +1 iff the length is divisible by 4. With the tail
/// (rather than η directly on a cycle node) no acyclic query can see the
/// cycle length — walks from the entity never return to an η-marked node —
/// so width 1 cannot separate, while the ghw-2 cycle queries can.
std::shared_ptr<TrainingDatabase> CycleDataset(
    const std::vector<std::size_t>& lengths) {
  auto db = std::make_shared<Database>(GraphSchema());
  auto training = std::make_shared<TrainingDatabase>(db);
  RelationId edge = db->schema().FindRelation("E");
  for (std::size_t i = 0; i < lengths.size(); ++i) {
    std::string prefix = "c" + std::to_string(i) + "_";
    auto nodes = AddCycle(*db, prefix, lengths[i]);
    Value e = db->Intern(prefix + "e");
    db->AddFact(edge, {e, nodes[0]});
    db->AddFact(db->schema().entity_relation(), {e});
    training->SetLabel(e, lengths[i] % 4 == 0 ? kPositive : kNegative);
  }
  return training;
}

TEST(GhwStructureTest, PathLengthsFormAChain) {
  auto training = PathLengthDataset({0, 1, 2, 3});
  GhwEntityStructure s = ComputeGhwStructure(training->database(), 1);
  ASSERT_EQ(s.entities.size(), 4u);
  // Head of the length-i path satisfies exactly the path queries of
  // length <= i: e_i ≤ e_j iff i <= j... (acyclic queries at the head are
  // out-trees, i.e., path depth governs them).
  EXPECT_EQ(s.num_classes(), 4u);
  for (int i = 0; i < 4; ++i) {
    for (int j = 0; j < 4; ++j) {
      EXPECT_EQ(s.leq[i][j], i <= j) << i << " vs " << j;
    }
  }
  // Topological order must be ascending in path length.
  for (std::size_t pos = 0; pos + 1 < s.topo_order.size(); ++pos) {
    EXPECT_LT(s.classes[s.topo_order[pos]][0],
              s.classes[s.topo_order[pos + 1]][0]);
  }
}

TEST(GhwSepTest, PathLengthsSeparableAtWidthOne) {
  auto training = PathLengthDataset({0, 1, 2, 3});
  EXPECT_TRUE(DecideGhwSep(*training, 1).separable);
}

TEST(GhwSepTest, CycleTailsSeparableAtBothWidths) {
  // Directed cycles of distinct lengths are distinguishable already by
  // acyclic (width-1) queries when pebbled: walk-confluence patterns
  // ("forward paths of lengths p and q from x meet") measure the cycle
  // length mod m through the deterministic out-walks. So separability
  // holds at k = 1 and, by GHW(1) ⊆ GHW(2) monotonicity, at k = 2.
  auto training = CycleDataset({4, 8, 3, 5});
  EXPECT_TRUE(DecideGhwSep(*training, 1).separable);
  EXPECT_TRUE(DecideGhwSep(*training, 2).separable);
}

/// Twin entities with identical structure and conflicting labels: never
/// separable, at any width (they are →_k-equivalent for every k).
std::shared_ptr<TrainingDatabase> ConflictingTwins() {
  auto db = std::make_shared<Database>(GraphSchema());
  auto training = std::make_shared<TrainingDatabase>(db);
  for (int i = 0; i < 2; ++i) {
    std::string prefix = "t" + std::to_string(i) + "_";
    auto nodes = testing::AddPath(*db, prefix, 2);
    db->AddFact(db->schema().entity_relation(), {nodes[0]});
    training->SetLabel(nodes[0], i == 0 ? kPositive : kNegative);
  }
  return training;
}

TEST(GhwSepTest, MonotoneInK) {
  // GHW(k) ⊆ GHW(k+1), so separability is monotone in k; exercised on a
  // separable instance and on a twin-conflict instance (inseparable at
  // every k).
  auto separable = PathLengthDataset({0, 1, 2});
  EXPECT_TRUE(DecideGhwSep(*separable, 1).separable);
  EXPECT_TRUE(DecideGhwSep(*separable, 2).separable);

  auto twins = ConflictingTwins();
  GhwSepResult at1 = DecideGhwSep(*twins, 1);
  GhwSepResult at2 = DecideGhwSep(*twins, 2);
  EXPECT_FALSE(at1.separable);
  EXPECT_FALSE(at2.separable);
  EXPECT_TRUE(at1.conflict.has_value());
  EXPECT_TRUE(at2.conflict.has_value());
}

TEST(GhwClassifierTest, TrainFailsOnInseparableInput) {
  EXPECT_FALSE(GhwClassifier::Train(ConflictingTwins(), 1).has_value());
  EXPECT_FALSE(GhwClassifier::Train(ConflictingTwins(), 2).has_value());
}

TEST(GhwClassifierTest, ReproducesTrainingLabels) {
  auto training = PathLengthDataset({0, 1, 2, 3});
  auto classifier = GhwClassifier::Train(training, 1);
  ASSERT_TRUE(classifier.has_value());
  EXPECT_EQ(classifier->dimension(), 4u);
  Labeling predicted = classifier->Classify(training->database());
  for (Value e : training->Entities()) {
    EXPECT_EQ(predicted.Get(e), training->label(e));
  }
}

TEST(GhwClassifierTest, Algorithm1ClassifiesUnseenEntities) {
  auto training = PathLengthDataset({0, 1, 2, 3});
  auto classifier = GhwClassifier::Train(training, 1);
  ASSERT_TRUE(classifier.has_value());

  Database eval(GraphSchema());
  auto long_path = testing::AddPath(eval, "L", 5);
  auto short_path = testing::AddPath(eval, "S", 1);
  eval.AddFact(eval.schema().entity_relation(), {long_path[0]});
  eval.AddFact(eval.schema().entity_relation(), {short_path[0]});
  Labeling predicted = classifier->Classify(eval);
  EXPECT_EQ(predicted.Get(long_path[0]), kPositive);
  EXPECT_EQ(predicted.Get(short_path[0]), kNegative);
}

TEST(GhwClassifierTest, Algorithm1AtWidthTwoOnCycles) {
  auto training = CycleDataset({4, 8, 3, 5});
  auto classifier = GhwClassifier::Train(training, 2);
  ASSERT_TRUE(classifier.has_value());

  // The evaluation database realizes the same global structure (an entity
  // on a cycle of each training length): the implicit features q_{e_i} may
  // contain conjuncts about D's disconnected components, so D' must not be
  // globally poorer than D for the intuitive per-entity reading.
  Database eval(GraphSchema());
  std::vector<std::pair<std::size_t, Label>> expected = {
      {4, kPositive}, {8, kPositive}, {3, kNegative}, {5, kNegative}};
  std::vector<Value> eval_entities;
  RelationId edge = eval.schema().FindRelation("E");
  for (const auto& [length, label] : expected) {
    (void)label;
    std::string prefix = "x" + std::to_string(length) + "_";
    auto nodes = AddCycle(eval, prefix, length);
    Value f = eval.Intern(prefix + "e");
    eval.AddFact(edge, {f, nodes[0]});
    eval.AddFact(eval.schema().entity_relation(), {f});
    eval_entities.push_back(f);
  }
  Labeling predicted = classifier->Classify(eval);
  for (std::size_t i = 0; i < expected.size(); ++i) {
    EXPECT_EQ(predicted.Get(eval_entities[i]), expected[i].second)
        << "cycle length " << expected[i].first;
  }
}

TEST(GhwApxTest, Algorithm2RecoversFromASingleFlip) {
  // Two classes of 3 equivalent entities each; flip one label.
  auto db = std::make_shared<Database>(GraphSchema());
  auto training = std::make_shared<TrainingDatabase>(db);
  for (int i = 0; i < 3; ++i) {
    std::string name = "long" + std::to_string(i);
    auto nodes = testing::AddPath(*db, name + "_", 2);
    db->AddFact(db->schema().entity_relation(), {nodes[0]});
    training->SetLabel(nodes[0], kPositive);
  }
  for (int i = 0; i < 3; ++i) {
    std::string name = "short" + std::to_string(i);
    auto nodes = testing::AddPath(*db, name + "_", 1);
    db->AddFact(db->schema().entity_relation(), {nodes[0]});
    training->SetLabel(nodes[0], kNegative);
  }
  // Flip one positive to negative: now inseparable, min disagreement 1.
  Value flipped = db->FindValue("long0_0");
  training->SetLabel(flipped, kNegative);

  EXPECT_FALSE(DecideGhwSep(*training, 1).separable);
  GhwRelabelResult relabel = GhwOptimalRelabel(*training, 1);
  EXPECT_EQ(relabel.disagreement, 1u);
  EXPECT_EQ(relabel.relabeled.Get(flipped), kPositive);

  EXPECT_FALSE(DecideGhwApxSep(*training, 1, 0.0));
  EXPECT_TRUE(DecideGhwApxSep(*training, 1, 1.0 / 6.0));

  // ApxCls (Corollary 7.5) classifies an evaluation database.
  Database eval(GraphSchema());
  auto nodes = testing::AddPath(eval, "e_", 2);
  eval.AddFact(eval.schema().entity_relation(), {nodes[0]});
  auto labeling = GhwApxClassify(training, 1, 1.0 / 6.0, eval);
  ASSERT_TRUE(labeling.has_value());
  EXPECT_EQ(labeling->Get(nodes[0]), kPositive);
  // Below the minimal error rate there is nothing to classify with.
  EXPECT_FALSE(GhwApxClassify(training, 1, 0.0, eval).has_value());
}

TEST(GhwApxTest, Algorithm2IsOptimalAgainstExhaustiveSearch) {
  // Small instance: verify minimality of the disagreement against brute
  // force over all 2^n labelings (Theorem 7.4's guarantee).
  auto training = PathLengthDataset({0, 1, 1, 2, 2, 2});
  // Corrupt labels adversarially.
  std::vector<Value> entities = training->Entities();
  training->SetLabel(entities[3], kNegative);
  training->SetLabel(entities[1], kPositive);

  GhwRelabelResult relabel = GhwOptimalRelabel(*training, 1);

  std::size_t brute_best = entities.size() + 1;
  std::size_t n = entities.size();
  for (std::uint64_t mask = 0; mask < (1ULL << n); ++mask) {
    auto db2 = std::make_shared<Database>(
        Copy(training->database()));
    TrainingDatabase candidate(db2);
    std::size_t disagreement = 0;
    for (std::size_t i = 0; i < n; ++i) {
      Label label = (mask >> i) & 1 ? kPositive : kNegative;
      candidate.SetLabel(entities[i], label);
      if (label != training->label(entities[i])) ++disagreement;
    }
    if (disagreement >= brute_best) continue;
    if (DecideGhwSep(candidate, 1).separable) brute_best = disagreement;
  }
  EXPECT_EQ(relabel.disagreement, brute_best);
}

// Property test: CQ[m]-separability implies GHW(m)-separability (since
// CQ[m] ⊆ GHW(m)), on random labeled graph databases.
TEST(GhwSepPropertyTest, CqmImpliesGhw) {
  std::mt19937_64 rng(47);
  int implications = 0;
  for (int trial = 0; trial < 15; ++trial) {
    auto db = std::make_shared<Database>(GraphSchema());
    auto training = std::make_shared<TrainingDatabase>(db);
    int n = 3;
    for (int i = 0; i < n; ++i) {
      Value e = AddEntity(*db, "e" + std::to_string(i));
      training->SetLabel(e, rng() % 2 == 0 ? kPositive : kNegative);
    }
    RelationId edge = db->schema().FindRelation("E");
    for (int i = 0; i < 4; ++i) {
      db->AddFact(edge, {db->Intern("v" + std::to_string(rng() % 5)),
                         db->Intern("v" + std::to_string(rng() % 5))});
    }
    // Attach entities to structure randomly.
    for (int i = 0; i < n; ++i) {
      if (rng() % 2 == 0) {
        db->AddFact(edge, {db->FindValue("e" + std::to_string(i)),
                           db->Intern("v" + std::to_string(rng() % 5))});
      }
    }
    if (DecideCqmSep(*training, 2).separable) {
      EXPECT_TRUE(DecideGhwSep(*training, 2).separable);
      ++implications;
    }
  }
  EXPECT_GT(implications, 0) << "vacuous property test";
}

}  // namespace
}  // namespace featsep
