#include "dyno/strategy.h"

#include <set>
#include <string>

#include <gtest/gtest.h>

namespace dyno {
namespace {

JobUnit MakeUnit(int64_t uid, double cost, int uncertainty) {
  JobUnit unit;
  unit.uid = uid;
  unit.est_cost = cost;
  unit.uncertainty = uncertainty;
  return unit;
}

class StrategyTest : public ::testing::Test {
 protected:
  StrategyTest() {
    units_.push_back(MakeUnit(1, 100.0, 1));  // cheap, certain
    units_.push_back(MakeUnit(2, 500.0, 3));  // expensive, uncertain
    units_.push_back(MakeUnit(3, 200.0, 3));  // mid, equally uncertain
    units_.push_back(MakeUnit(4, 50.0, 2));   // cheapest-but-one uncertainty
    for (const JobUnit& unit : units_) pointers_.push_back(&unit);
  }

  std::vector<JobUnit> units_;
  std::vector<const JobUnit*> pointers_;
};

TEST_F(StrategyTest, Cheapest1PicksMinCost) {
  auto picked = PickLeafJobs(ExecutionStrategy::kCheapest1, pointers_);
  ASSERT_EQ(picked.size(), 1u);
  EXPECT_EQ(picked[0]->uid, 4);
}

TEST_F(StrategyTest, Cheapest2PicksTwoCheapest) {
  auto picked = PickLeafJobs(ExecutionStrategy::kCheapest2, pointers_);
  ASSERT_EQ(picked.size(), 2u);
  EXPECT_EQ(picked[0]->uid, 4);
  EXPECT_EQ(picked[1]->uid, 1);
}

TEST_F(StrategyTest, Uncertain1PicksMostJoinsCheapestTieBreak) {
  auto picked = PickLeafJobs(ExecutionStrategy::kUncertain1, pointers_);
  ASSERT_EQ(picked.size(), 1u);
  // Units 2 and 3 tie at uncertainty 3; the cheaper (3) wins the tie so the
  // next re-optimization point arrives sooner.
  EXPECT_EQ(picked[0]->uid, 3);
}

TEST_F(StrategyTest, Uncertain2PicksTwoMostUncertain) {
  auto picked = PickLeafJobs(ExecutionStrategy::kUncertain2, pointers_);
  ASSERT_EQ(picked.size(), 2u);
  EXPECT_EQ(picked[0]->uid, 3);
  EXPECT_EQ(picked[1]->uid, 2);
}

TEST_F(StrategyTest, TakeIsCappedByAvailableJobs) {
  std::vector<const JobUnit*> one = {pointers_[0]};
  auto picked = PickLeafJobs(ExecutionStrategy::kUncertain2, one);
  EXPECT_EQ(picked.size(), 1u);
  EXPECT_TRUE(PickLeafJobs(ExecutionStrategy::kCheapest2, {}).empty());
}

TEST_F(StrategyTest, SimpleSerialPicksFirstReadyInDecompositionOrder) {
  // Neither cost nor uncertainty: unit 1 is first, not cheapest.
  auto picked = PickLeafJobs(ExecutionStrategy::kSimpleSerial, pointers_);
  ASSERT_EQ(picked.size(), 1u);
  EXPECT_EQ(picked[0]->uid, 1);
  std::vector<const JobUnit*> reversed(pointers_.rbegin(),
                                       pointers_.rend());
  picked = PickLeafJobs(ExecutionStrategy::kSimpleSerial, reversed);
  ASSERT_EQ(picked.size(), 1u);
  EXPECT_EQ(picked[0]->uid, 4);
}

TEST_F(StrategyTest, SimpleParallelPicksEveryReadyUnitInOrder) {
  auto picked = PickLeafJobs(ExecutionStrategy::kSimpleParallel, pointers_);
  EXPECT_EQ(picked, pointers_);
  EXPECT_TRUE(PickLeafJobs(ExecutionStrategy::kSimpleParallel, {}).empty());
}

TEST_F(StrategyTest, SimpleStrategiesClassified) {
  EXPECT_TRUE(IsSimpleStrategy(ExecutionStrategy::kSimpleSerial));
  EXPECT_TRUE(IsSimpleStrategy(ExecutionStrategy::kSimpleParallel));
  EXPECT_FALSE(IsSimpleStrategy(ExecutionStrategy::kUncertain1));
  EXPECT_FALSE(IsSimpleStrategy(ExecutionStrategy::kCheapest2));
}

TEST_F(StrategyTest, NamesAreDistinct) {
  std::set<std::string> names;
  for (ExecutionStrategy strategy :
       {ExecutionStrategy::kSimpleSerial, ExecutionStrategy::kSimpleParallel,
        ExecutionStrategy::kUncertain1, ExecutionStrategy::kUncertain2,
        ExecutionStrategy::kCheapest1, ExecutionStrategy::kCheapest2}) {
    names.insert(ExecutionStrategyName(strategy));
  }
  EXPECT_EQ(names.size(), 6u);
}

TEST_F(StrategyTest, InputOrderDoesNotChangeSelection) {
  std::vector<const JobUnit*> reversed(pointers_.rbegin(),
                                       pointers_.rend());
  auto a = PickLeafJobs(ExecutionStrategy::kUncertain2, pointers_);
  auto b = PickLeafJobs(ExecutionStrategy::kUncertain2, reversed);
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) EXPECT_EQ(a[i]->uid, b[i]->uid);
}

}  // namespace
}  // namespace dyno
