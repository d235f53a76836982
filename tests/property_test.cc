// Property-based invariants over the holistic engine, parameterized over
// random seeds: aggregate identities, order-by ordering, limit bounds, and
// join-count identities that must hold for any input.

#include <gtest/gtest.h>

#include <map>

#include "tests/test_util.h"

namespace hique {
namespace {

class PropertyTest : public ::testing::TestWithParam<uint64_t> {
 protected:
  void SetUp() override {
    uint64_t seed = GetParam();
    Rng rng(seed);
    rows_r_ = 500 + rng.NextBounded(3000);
    rows_s_ = 200 + rng.NextBounded(2000);
    domain_ = 2 + static_cast<int64_t>(rng.NextBounded(200));
    testing::MakeIntTable(&catalog_, "r", rows_r_, domain_, seed * 3 + 1);
    testing::MakeIntTable(&catalog_, "s", rows_s_, domain_, seed * 3 + 2);
    engine_ = std::make_unique<HiqueEngine>(&catalog_);
    conn_ = engine_->OpenSession();
  }

  std::vector<std::vector<Value>> Run(const std::string& sql) {
    auto r = conn_.Query(sql);
    HQ_CHECK_MSG(r.ok(), r.status().ToString().c_str());
    return r.value().Rows();
  }

  Catalog catalog_;
  std::unique_ptr<HiqueEngine> engine_;
  Session conn_;
  uint64_t rows_r_ = 0, rows_s_ = 0;
  int64_t domain_ = 0;
};

// sum over groups of COUNT == total row count; group sums == global sum.
TEST_P(PropertyTest, GroupTotalsEqualGlobalTotals) {
  auto groups = Run("select r_k, count(*) as c, sum(r_v) as s from r "
                    "group by r_k");
  auto global = Run("select count(*) as c, sum(r_v) as s from r");
  int64_t count_sum = 0;
  int64_t v_sum = 0;
  for (const auto& row : groups) {
    count_sum += row[1].AsInt64();
    v_sum += row[2].AsInt64();
  }
  EXPECT_EQ(count_sum, global[0][0].AsInt64());
  EXPECT_EQ(v_sum, global[0][1].AsInt64());
  EXPECT_EQ(count_sum, static_cast<int64_t>(rows_r_));
}

// min <= avg <= max for every group.
TEST_P(PropertyTest, MinAvgMaxOrdering) {
  auto rows = Run("select r_k, min(r_v), avg(r_v), max(r_v) from r "
                  "group by r_k");
  for (const auto& row : rows) {
    double mn = row[1].AsDouble(), av = row[2].AsDouble(),
           mx = row[3].AsDouble();
    EXPECT_LE(mn, av + 1e-9);
    EXPECT_LE(av, mx + 1e-9);
  }
}

// ORDER BY produces a correctly ordered result.
TEST_P(PropertyTest, OrderByOrdering) {
  auto rows = Run("select r_k, sum(r_d) as total from r group by r_k "
                  "order by total desc, r_k");
  for (size_t i = 1; i < rows.size(); ++i) {
    double prev = rows[i - 1][1].AsDouble();
    double cur = rows[i][1].AsDouble();
    EXPECT_GE(prev, cur - 1e-9);
    if (std::abs(prev - cur) < 1e-12) {
      EXPECT_LT(rows[i - 1][0].AsInt32(), rows[i][0].AsInt32());
    }
  }
}

// LIMIT caps the result and returns a prefix of the full ordering.
TEST_P(PropertyTest, LimitIsOrderedPrefix) {
  auto all = Run("select r_k, sum(r_v) as t from r group by r_k "
                 "order by t desc, r_k");
  auto limited = Run("select r_k, sum(r_v) as t from r group by r_k "
                     "order by t desc, r_k limit 3");
  EXPECT_EQ(limited.size(), std::min<size_t>(3, all.size()));
  for (size_t i = 0; i < limited.size(); ++i) {
    EXPECT_EQ(limited[i][0].AsInt32(), all[i][0].AsInt32());
    EXPECT_EQ(limited[i][1].AsInt64(), all[i][1].AsInt64());
  }
}

// |r JOIN s| == sum over keys of count_r(k) * count_s(k).
TEST_P(PropertyTest, JoinCardinalityIdentity) {
  auto rcounts = Run("select r_k, count(*) as c from r group by r_k");
  auto scounts = Run("select s_k, count(*) as c from s group by s_k");
  std::map<int32_t, int64_t> by_key;
  for (const auto& row : rcounts) {
    by_key[row[0].AsInt32()] = row[1].AsInt64();
  }
  int64_t expected = 0;
  for (const auto& row : scounts) {
    auto it = by_key.find(row[0].AsInt32());
    if (it != by_key.end()) expected += it->second * row[1].AsInt64();
  }
  auto joined = Run("select count(*) as c from r, s where r_k = s_k");
  EXPECT_EQ(joined[0][0].AsInt64(), expected);
}

// Filter partitioning: |v < x| + |v >= x| == |all|.
TEST_P(PropertyTest, FilterPartitioning) {
  auto lo = Run("select count(*) from r where r_v < 5000");
  auto hi = Run("select count(*) from r where r_v >= 5000");
  auto all = Run("select count(*) from r");
  EXPECT_EQ(lo[0][0].AsInt64() + hi[0][0].AsInt64(), all[0][0].AsInt64());
}

// Every algorithm choice computes the same grouped result.
TEST_P(PropertyTest, AggregationAlgorithmsAgree) {
  std::string sql =
      "select r_k, count(*) as c, sum(r_d) as s from r group by r_k";
  std::map<int32_t, std::pair<int64_t, double>> expected;
  {
    plan::PlannerOptions opts;
    opts.force_agg_algo = plan::AggAlgo::kHybridHashSort;
    auto rows = testing::PlannerSession(engine_.get(), opts).Query(sql);
    ASSERT_TRUE(rows.ok());
    for (const auto& row : rows.value().Rows()) {
      expected[row[0].AsInt32()] = {row[1].AsInt64(), row[2].AsDouble()};
    }
  }
  for (plan::AggAlgo algo : {plan::AggAlgo::kSort, plan::AggAlgo::kMap}) {
    plan::PlannerOptions opts;
    opts.force_agg_algo = algo;
    opts.map_agg_max_cells = 1u << 16;
    auto rows = testing::PlannerSession(engine_.get(), opts).Query(sql);
    ASSERT_TRUE(rows.ok()) << rows.status().ToString();
    size_t seen = 0;
    for (const auto& row : rows.value().Rows()) {
      auto it = expected.find(row[0].AsInt32());
      ASSERT_NE(it, expected.end());
      EXPECT_EQ(row[1].AsInt64(), it->second.first);
      EXPECT_NEAR(row[2].AsDouble(), it->second.second,
                  1e-6 * std::max(1.0, std::abs(it->second.second)));
      ++seen;
    }
    EXPECT_EQ(seen, expected.size());
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, PropertyTest,
                         ::testing::Values(1, 2, 3, 5, 8, 13, 21, 34, 55));

}  // namespace
}  // namespace hique
