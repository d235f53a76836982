// End-to-end differential tests: HIQUE (parse -> optimize -> codegen ->
// compile -> dlopen -> run) against the naive reference executor.

#include <gtest/gtest.h>

#include "tests/test_util.h"

namespace hique {
namespace {

using testing::CheckAgainstReference;
using testing::MakeIntTable;

class E2ETest : public ::testing::Test {
 protected:
  void SetUp() override {
    MakeIntTable(&catalog_, "r", 2000, 50, 1);
    MakeIntTable(&catalog_, "s", 1500, 50, 2);
    MakeIntTable(&catalog_, "u", 500, 50, 3);
    engine_ = std::make_unique<HiqueEngine>(&catalog_);
    conn_ = engine_->OpenSession();
  }

  Catalog catalog_;
  std::unique_ptr<HiqueEngine> engine_;
  Session conn_;
};

#define EXPECT_MATCHES_REF(sql)                                \
  do {                                                         \
    Status s = CheckAgainstReference(engine_.get(), sql);      \
    EXPECT_TRUE(s.ok()) << s.ToString() << "\nquery: " << sql; \
  } while (0)

TEST_F(E2ETest, ScanProject) {
  EXPECT_MATCHES_REF("select r_k, r_v from r");
}

TEST_F(E2ETest, ScanFilter) {
  EXPECT_MATCHES_REF("select r_k, r_v from r where r_v < 500");
}

TEST_F(E2ETest, ScanFilterConjunction) {
  EXPECT_MATCHES_REF(
      "select r_k, r_d from r where r_v >= 100 and r_v < 700 and r_k <> 3");
}

TEST_F(E2ETest, ScanExpression) {
  EXPECT_MATCHES_REF(
      "select r_k, r_d * 2.0 + r_v as x from r where r_k <= 25");
}

TEST_F(E2ETest, BinaryJoin) {
  EXPECT_MATCHES_REF(
      "select r_k, r_v, s_v from r, s where r_k = s_k and r_v < 50");
}

TEST_F(E2ETest, ThreeWayJoinTeam) {
  EXPECT_MATCHES_REF(
      "select r_v, s_v, u_v from r, s, u "
      "where r_k = s_k and s_k = u_k and r_v < 20 and s_v < 100 and u_v < "
      "200");
}

TEST_F(E2ETest, GroupByAggregates) {
  EXPECT_MATCHES_REF(
      "select r_k, count(*), sum(r_v), avg(r_d), min(r_v), max(r_v) "
      "from r group by r_k");
}

TEST_F(E2ETest, ScalarAggregate) {
  EXPECT_MATCHES_REF(
      "select count(*), sum(r_d), avg(r_v) from r where r_v > 500");
}

TEST_F(E2ETest, JoinThenAggregate) {
  EXPECT_MATCHES_REF(
      "select r_k, sum(s_v), count(*) from r, s where r_k = s_k "
      "group by r_k");
}

TEST_F(E2ETest, OrderBy) {
  Status s = CheckAgainstReference(
      engine_.get(),
      "select r_k, count(*) as c from r group by r_k order by r_k",
      /*respect_order=*/true);
  EXPECT_TRUE(s.ok()) << s.ToString();
}

TEST_F(E2ETest, OrderByDescWithLimit) {
  Status s = CheckAgainstReference(
      engine_.get(),
      "select r_k, sum(r_v) as total from r group by r_k "
      "order by total desc, r_k limit 10",
      /*respect_order=*/true);
  EXPECT_TRUE(s.ok()) << s.ToString();
}

TEST_F(E2ETest, CharGroupKeys) {
  EXPECT_MATCHES_REF(
      "select r_pad, count(*), sum(r_v) from r group by r_pad");
}

TEST_F(E2ETest, MultiKeyGrouping) {
  EXPECT_MATCHES_REF(
      "select r_k, r_pad, sum(r_d) from r group by r_k, r_pad");
}

TEST_F(E2ETest, CompiledQueryCacheHit) {
  std::string sql = "select count(*) from r";
  auto first = conn_.Query(sql);
  ASSERT_TRUE(first.ok()) << first.status().ToString();
  uint64_t cached = first.value().cache_stats.entries;
  auto second = conn_.Query(sql);
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(second.value().cache_stats.entries, cached);
  EXPECT_GE(second.value().cache_stats.hits, 1u);
  EXPECT_EQ(first.value().Rows()[0][0].AsInt64(),
            second.value().Rows()[0][0].AsInt64());
}

}  // namespace
}  // namespace hique
