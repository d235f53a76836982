// Tests of the benchmark's own statistics, generators, trace arithmetic and
// oracle.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <set>

#include "exec/engine.h"
#include "oracle.h"
#include "params.h"
#include "stats.h"
#include "storage/types.h"
#include "tpch/tpch.h"
#include "trace.h"

namespace perfbench {
namespace {

TEST(Stats, MedianOddEvenEmpty) {
  EXPECT_DOUBLE_EQ(Median({3, 1, 2}), 2);
  EXPECT_DOUBLE_EQ(Median({4, 1, 3, 2}), 2.5);
  EXPECT_DOUBLE_EQ(Median({}), 0);
}

TEST(Stats, TailHasTenSamplesBeyond) {
  std::vector<double> v;
  for (int i = 1; i <= 100; ++i) v.push_back(i);
  double pct = 0;
  // 100 samples: the value with exactly ten above it is 90 (p90).
  EXPECT_DOUBLE_EQ(TailWithTenBeyond(v, &pct), 90);
  EXPECT_DOUBLE_EQ(pct, 90);
  v.clear();
  for (int i = 1; i <= 60; ++i) v.push_back(61 - i);  // unsorted input
  EXPECT_DOUBLE_EQ(TailWithTenBeyond(v, &pct), 50);
  size_t beyond = 0;
  for (double x : v) beyond += x > 50;
  EXPECT_EQ(beyond, kSamplesBeyondTail);
}

TEST(Stats, TailStopsAtP90) {
  std::vector<double> v;
  for (int i = 1; i <= 1000; ++i) v.push_back(i);
  double pct = 0;
  // A hundred samples lie above p90; the rule does not climb past it.
  EXPECT_DOUBLE_EQ(TailWithTenBeyond(v, &pct), 900);
  EXPECT_DOUBLE_EQ(pct, 90);
}

TEST(Stats, TailNeedsFortySamples) {
  std::vector<double> v;
  for (int i = 1; i <= 39; ++i) v.push_back(i);
  double pct = 0;
  EXPECT_DOUBLE_EQ(TailWithTenBeyond(v, &pct), 20);  // the median stands in
  EXPECT_DOUBLE_EQ(pct, 50);
  v.push_back(40);
  EXPECT_DOUBLE_EQ(TailWithTenBeyond(v, &pct), 30);
  EXPECT_DOUBLE_EQ(pct, 75);
}

TEST(Stats, GeoMean) {
  EXPECT_NEAR(GeoMean({1, 100}), 10, 1e-12);
  EXPECT_NEAR(GeoMean({2, 8, 4}), 4, 1e-12);
  EXPECT_DOUBLE_EQ(GeoMean({}), 0);
  EXPECT_DOUBLE_EQ(GeoMean({1, 0}), 0);
}

TEST(Params, StayInSpecRanges) {
  using hique::DateToDays;
  ParamGen gen(42);
  std::set<std::string> segments;
  for (int i = 0; i < 2000; ++i) {
    SubstitutionParams p = gen.Draw();
    EXPECT_GE(p.q1_delta_days, 60);
    EXPECT_LE(p.q1_delta_days, 120);
    segments.insert(p.q3_segment);
    EXPECT_GE(p.q3_date, DateToDays(1995, 3, 1));
    EXPECT_LE(p.q3_date, DateToDays(1995, 3, 31));
    int y, m, d;
    hique::DaysToDate(p.q6_year_start, &y, &m, &d);
    EXPECT_TRUE(y >= 1993 && y <= 1997 && m == 1 && d == 1);
    EXPECT_GE(p.q6_discount, 0.02 - 1e-12);
    EXPECT_LE(p.q6_discount, 0.09 + 1e-12);
    EXPECT_TRUE(p.q6_quantity == 24 || p.q6_quantity == 25);
    hique::DaysToDate(p.q10_month_start, &y, &m, &d);
    EXPECT_EQ(d, 1);
    EXPECT_GE(p.q10_month_start, DateToDays(1993, 2, 1));
    EXPECT_LE(p.q10_month_start, DateToDays(1995, 1, 1));
  }
  EXPECT_EQ(segments, (std::set<std::string>{"AUTOMOBILE", "BUILDING",
                                             "FURNITURE", "MACHINERY",
                                             "HOUSEHOLD"}));
}

TEST(Params, OneSeedOneSequence) {
  ParamGen a(7), b(7), c(8);
  bool differs = false;
  for (int i = 0; i < 50; ++i) {
    for (Kind k : kReadKinds) {
      QueryInstance x = a.Next(k), y = b.Next(k), z = c.Next(k);
      EXPECT_EQ(x.sql, y.sql);
      differs |= x.sql != z.sql;
    }
  }
  EXPECT_TRUE(differs);
}

TEST(Params, LiteralAndPreparedFormsAgree) {
  // The prepared form must have one placeholder per bound value.
  ParamGen gen(3);
  for (Kind k : kReadKinds) {
    QueryInstance q = gen.Next(k);
    const std::string ps = PreparedSql(k);
    EXPECT_EQ(static_cast<size_t>(std::count(ps.begin(), ps.end(), '?')),
              q.values.size())
        << KindName(k);
  }
}

TEST(Trace, SelfTimeSubtractsChildUnion) {
  Tracer t;
  const uint64_t root = t.Begin("root", 1);
  t.End(root);
  // Overlapping children [0.5,2) and [1,3) cover 2.5 ms of the root span.
  Span& r = const_cast<Span&>(t.spans()[root - 1]);
  r.start_ms = 0;
  r.end_ms = 10;
  t.AddChild(root, "a", 0.5, 1.5);
  t.AddChild(root, "b", 1.0, 2.0);
  EXPECT_NEAR(t.SelfTimeMs(root), 7.5, 1e-9);
  EXPECT_NEAR(t.SelfTimeMs(root + 1), 1.5, 1e-9);
}

TEST(Trace, TreeSelfTimeAddsUpToTheRootOrOverCounts) {
  Tracer t;
  const uint64_t root = t.Begin("root", 1);
  t.End(root);
  Span& r = const_cast<Span&>(t.spans()[root - 1]);
  r.start_ms = 0;
  r.end_ms = 10;
  // Nested, non-overlapping layers account for the root exactly.
  t.AddChild(root, "execute", 2, 6);
  const uint64_t exec = root + 1;
  t.AddChild(exec, "op", 2, 3);
  t.AddChild(exec, "op", 5, 2);
  EXPECT_NEAR(t.TreeSelfTimeMs(root), 10, 1e-9);
  // A grandchild that runs past its parent is counted twice.
  t.AddChild(exec, "op", 7, 3);
  EXPECT_NEAR(t.TreeSelfTimeMs(root), 12, 1e-9);
  // Spans of the next statement are not part of the tree.
  const uint64_t next = t.Begin("root", 2);
  t.End(next);
  EXPECT_NEAR(t.TreeSelfTimeMs(root), 12, 1e-9);
}

class OracleTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    catalog_ = new hique::Catalog();
    hique::tpch::TpchOptions o;
    o.scale_factor = 0.01;
    ASSERT_TRUE(hique::tpch::LoadTpch(catalog_, o).ok());
  }
  static void TearDownTestSuite() {
    delete catalog_;
    catalog_ = nullptr;
  }
  static hique::Catalog* catalog_;
};
hique::Catalog* OracleTest::catalog_ = nullptr;

TEST_F(OracleTest, WrongResultFailsTheCheck) {
  hique::EngineOptions eo;
  eo.threads = 2;
  eo.tiered_compilation = false;
  eo.compile.opt_level = 0;
  const char* tmp = std::getenv("TMPDIR");
  eo.gen_dir = std::string(tmp != nullptr ? tmp : "/tmp") + "/perfbench_test_gen";
  hique::HiqueEngine engine(catalog_, eo);
  hique::Session session = engine.OpenSession();
  ParamGen gen(1);
  QueryInstance q = gen.Next(Kind::kQ1);
  auto r = session.Query(q.sql);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  std::vector<hique::ref::Row> rows = TableRows(r.value().table.get());
  ASSERT_FALSE(rows.empty());
  EXPECT_TRUE(CheckAgainstIterator(catalog_, q.sql, rows).ok());

  // One aggregate off by a little more than the tolerance.
  std::vector<hique::ref::Row> wrong = rows;
  wrong[0][2] = hique::Value::Double(wrong[0][2].AsDouble() * 1.001);
  EXPECT_FALSE(CheckAgainstIterator(catalog_, q.sql, wrong).ok());
  // Swapped rows break an ORDER BY result.
  if (rows.size() > 1) {
    std::vector<hique::ref::Row> swapped = rows;
    std::swap(swapped[0], swapped[1]);
    EXPECT_FALSE(CheckAgainstIterator(catalog_, q.sql, swapped).ok());
  }
  // The isolated (forked) check carries the verdict back.
  hique::Catalog* catalog = catalog_;
  EXPECT_FALSE(RunIsolated([&] {
                 return CheckAgainstIterator(catalog, q.sql, wrong);
               }).ok());
  EXPECT_TRUE(RunIsolated([&] {
                return CheckAgainstIterator(catalog, q.sql, rows);
              }).ok());
  session.Close();
}

TEST_F(OracleTest, IteratorCountMatchesTable) {
  auto n = IteratorCount(catalog_, "select count(*) from orders");
  ASSERT_TRUE(n.ok());
  EXPECT_EQ(static_cast<uint64_t>(n.value()),
            catalog_->GetTable("orders").value()->NumTuples());
}

}  // namespace
}  // namespace perfbench
