#include <gtest/gtest.h>

#include "column/column_engine.h"
#include "iterator/volcano_engine.h"
#include "ref/reference.h"
#include "tests/test_util.h"
#include "plan/optimizer.h"
#include "sql/binder.h"
#include "tpch/tpch.h"

namespace hique {
namespace {

class TpchTest : public ::testing::Test {
 public:
  static Catalog& SharedCatalog() {
    static Catalog* catalog = [] {
      auto* c = new Catalog();
      tpch::TpchOptions opts;
      opts.scale_factor = 0.005;
      HQ_CHECK(tpch::LoadTpch(c, opts).ok());
      return c;
    }();
    return *catalog;
  }
};

TEST_F(TpchTest, CardinalitiesScale) {
  Catalog& c = SharedCatalog();
  EXPECT_EQ(c.GetTable("region").value()->NumTuples(), 5u);
  EXPECT_EQ(c.GetTable("nation").value()->NumTuples(), 25u);
  EXPECT_EQ(c.GetTable("customer").value()->NumTuples(), 750u);
  EXPECT_EQ(c.GetTable("orders").value()->NumTuples(), 7500u);
  uint64_t lines = c.GetTable("lineitem").value()->NumTuples();
  // 1..7 lines per order, uniform: ~4x orders.
  EXPECT_GT(lines, 7500u * 2);
  EXPECT_LT(lines, 7500u * 8);
}

TEST_F(TpchTest, GenerationIsDeterministic) {
  Catalog a, b;
  tpch::TpchOptions opts;
  opts.scale_factor = 0.001;
  ASSERT_TRUE(tpch::LoadTpch(&a, opts).ok());
  ASSERT_TRUE(tpch::LoadTpch(&b, opts).ok());
  auto ra = ref::ExecuteSql("select count(*), sum(l_extendedprice) "
                            "from lineitem", a);
  auto rb = ref::ExecuteSql("select count(*), sum(l_extendedprice) "
                            "from lineitem", b);
  ASSERT_TRUE(ra.ok());
  ASSERT_TRUE(rb.ok());
  EXPECT_TRUE(ref::CompareRowSets(ra.value(), rb.value()).ok());
}

TEST_F(TpchTest, ForeignKeysResolve) {
  Catalog& c = SharedCatalog();
  // Every order joins exactly one customer.
  auto r = ref::ExecuteSql(
      "select count(*) from orders, customer where o_custkey = c_custkey",
      c);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.value()[0][0].AsInt64(),
            static_cast<int64_t>(c.GetTable("orders").value()->NumTuples()));
}

TEST_F(TpchTest, ReturnFlagDomainMatchesSpecShape) {
  Catalog& c = SharedCatalog();
  auto r = ref::ExecuteSql(
      "select l_returnflag, l_linestatus, count(*) from lineitem "
      "group by l_returnflag, l_linestatus", c);
  ASSERT_TRUE(r.ok());
  // Paper: TPC-H Q1 produces four groups (A/F, N/F, N/O, R/F).
  EXPECT_EQ(r.value().size(), 4u);
}

struct TpchQueryCase {
  const char* name;
  std::string sql;
};

class TpchQueryTest : public ::testing::TestWithParam<int> {};

TEST_P(TpchQueryTest, AllEnginesMatchReference) {
  Catalog& catalog = TpchTest::SharedCatalog();
  std::string sql;
  switch (GetParam()) {
    case 1:
      sql = tpch::Query1Sql();
      break;
    case 3:
      sql = tpch::Query3Sql();
      break;
    default:
      sql = tpch::Query10Sql();
      break;
  }
  auto expected = ref::ExecuteSql(sql, catalog);
  ASSERT_TRUE(expected.ok()) << expected.status().ToString();

  auto check = [&](const char* engine_name, std::vector<ref::Row> actual) {
    Status cmp = ref::CompareRowSets(expected.value(), actual, false);
    EXPECT_TRUE(cmp.ok()) << engine_name << ": " << cmp.ToString();
  };
  auto table_rows = [](Table* t) {
    std::vector<ref::Row> rows;
    const Schema& s = t->schema();
    (void)t->ForEachTuple([&](const uint8_t* tuple) {
      ref::Row row;
      for (size_t c = 0; c < s.NumColumns(); ++c) {
        row.push_back(s.GetValue(tuple, c));
      }
      rows.push_back(std::move(row));
    });
    return rows;
  };

  {
    HiqueEngine engine(&catalog);
    Session conn = engine.OpenSession();
    auto r = conn.Query(sql);
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    std::vector<ref::Row> rows;
    for (auto& row : r.value().Rows()) rows.push_back(row);
    check("hique", std::move(rows));
  }
  {
    iter::VolcanoEngine engine(&catalog, iter::Mode::kGeneric);
    auto r = engine.Query(sql);
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    check("volcano-generic", table_rows(r.value().table.get()));
  }
  {
    iter::VolcanoEngine engine(&catalog, iter::Mode::kOptimized);
    auto r = engine.Query(sql);
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    check("volcano-optimized", table_rows(r.value().table.get()));
  }
  {
    col::ColumnEngine engine(&catalog);
    auto r = engine.Query(sql);
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    check("column", table_rows(r.value().table.get()));
  }
}

INSTANTIATE_TEST_SUITE_P(Queries, TpchQueryTest, ::testing::Values(1, 3, 10),
                         [](const ::testing::TestParamInfo<int>& info) {
                           return "Q" + std::to_string(info.param);
                         });

TEST_F(TpchTest, Query1UsesMapAggregation) {
  // The paper's headline result depends on this plan choice: two CHAR(1)
  // grouping attributes with six value combinations -> map aggregation,
  // no staging, selection inlined into the single scan.
  Catalog& catalog = SharedCatalog();
  auto bound = sql::ParseAndBind(tpch::Query1Sql(), catalog);
  ASSERT_TRUE(bound.ok());
  auto plan = plan::Optimize(std::move(bound).value());
  ASSERT_TRUE(plan.ok());
  bool found_map = false;
  for (const auto& op : plan.value()->ops) {
    if (const auto* agg = std::get_if<plan::AggOp>(&op)) {
      EXPECT_EQ(agg->algo, plan::AggAlgo::kMap);
      found_map = true;
    }
    EXPECT_FALSE(std::holds_alternative<plan::StageOp>(op))
        << "Q1 must evaluate in a single scan without staging";
  }
  EXPECT_TRUE(found_map);
}

}  // namespace
}  // namespace hique
