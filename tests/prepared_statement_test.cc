// Prepared statements: `?` placeholders through lexer/parser/binder into
// ParamTable slots, Prepare/Execute skipping parse+optimize on re-execution,
// arity/type errors, eviction-proof shared library ownership, the
// -O0 -> -O2 background tier upgrade producing identical results, and the
// replan that repairs a map overflow or a table layout change on every
// prepared surface.

#include <gtest/gtest.h>

#include <chrono>
#include <thread>

#include "exec/engine.h"
#include "plan/params.h"
#include "ref/reference.h"
#include "sql/binder.h"
#include "sql/parser.h"
#include "tests/test_util.h"

namespace hique {
namespace {

/// Rows from a QueryResult as the reference executor's row type.
std::vector<ref::Row> RowsOf(const QueryResult& r) {
  std::vector<ref::Row> rows;
  for (auto& row : r.Rows()) rows.push_back(row);
  return rows;
}

/// Executes `stmt` with `values` and checks the rows against the reference
/// executor running `literal_sql` (the same query with literals inlined).
Status CheckExecuteAgainstReference(Session* session,
                                    const PreparedStatement& stmt,
                                    const std::vector<Value>& values,
                                    const std::string& literal_sql) {
  auto expected = ref::ExecuteSql(literal_sql, *session->engine()->catalog());
  if (!expected.ok()) return expected.status();
  auto actual = session->Execute(stmt, values);
  if (!actual.ok()) return actual.status();
  return ref::CompareRowSets(expected.value(), RowsOf(actual.value()), false);
}

class PreparedStatementTest : public ::testing::Test {
 protected:
  void SetUp() override {
    testing::MakeIntTable(&catalog_, "t", 2000, 16, 31);
    engine_ = std::make_unique<HiqueEngine>(&catalog_);
    conn_ = engine_->OpenSession();
  }
  Catalog catalog_;
  std::unique_ptr<HiqueEngine> engine_;
  Session conn_;
};

TEST(PlaceholderParseTest, OrdinalsAssignedInLexicalOrder) {
  auto stmt = sql::Parse("select a + ? from t where b < ? and c > ?");
  ASSERT_TRUE(stmt.ok()) << stmt.status().ToString();
  EXPECT_EQ(stmt.value()->num_placeholders, 3);
  ASSERT_EQ(stmt.value()->items.size(), 1u);
  const sql::Expr& item = *stmt.value()->items[0].expr;
  ASSERT_EQ(item.kind, sql::ExprKind::kBinary);
  EXPECT_EQ(item.right->kind, sql::ExprKind::kPlaceholder);
  EXPECT_EQ(item.right->placeholder, 0);
}

TEST_F(PreparedStatementTest, PlaceholderTypeInferredFromColumn) {
  // int32 column, double column, CHAR column: the filter placeholder takes
  // the column's type in each case.
  auto stmt = conn_.Prepare(
      "select t_k from t where t_v < ? and t_d < ? and t_pad = ?");
  ASSERT_TRUE(stmt.ok()) << stmt.status().ToString();
  EXPECT_EQ(stmt.value().num_placeholders(), 3u);
  Status s = CheckExecuteAgainstReference(
      &conn_, stmt.value(),
      {Value::Int64(500), Value::Double(400.0), Value::Char("p1", 2)},
      "select t_k from t where t_v < 500 and t_d < 400.0 and t_pad = 'p1'");
  EXPECT_TRUE(s.ok()) << s.ToString();
}

TEST_F(PreparedStatementTest, ArithmeticPlaceholderInfersSiblingType) {
  auto stmt = conn_.Prepare("select t_k, sum(t_d * ?) from t group by t_k");
  ASSERT_TRUE(stmt.ok()) << stmt.status().ToString();
  Status s = CheckExecuteAgainstReference(
      &conn_, stmt.value(), {Value::Double(2.5)},
      "select t_k, sum(t_d * 2.5) from t group by t_k");
  EXPECT_TRUE(s.ok()) << s.ToString();
}

TEST_F(PreparedStatementTest, ExecuteSkipsParseAndOptimize) {
  auto prepared = conn_.Prepare("select t_k from t where t_v < ?");
  ASSERT_TRUE(prepared.ok()) << prepared.status().ToString();
  const PreparedStatement& stmt = prepared.value();
  // Preparation paid the pipeline once.
  EXPECT_GT(stmt.prepare_timings().parse_ms, 0.0);
  EXPECT_GT(stmt.prepare_timings().compile_ms, 0.0);

  auto r = conn_.Execute(stmt, {Value::Int64(300)});
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  // Re-execution pays parameter binding + execution only.
  EXPECT_EQ(r.value().timings.parse_ms, 0.0);
  EXPECT_EQ(r.value().timings.optimize_ms, 0.0);
  EXPECT_EQ(r.value().timings.generate_ms, 0.0);
  EXPECT_EQ(r.value().timings.compile_ms, 0.0);
  EXPECT_GT(r.value().timings.execute_ms, 0.0);
  EXPECT_TRUE(r.value().cache_hit);
}

TEST_F(PreparedStatementTest, ArityAndTypeErrors) {
  auto stmt = conn_.Prepare("select t_k from t where t_v < ?");
  ASSERT_TRUE(stmt.ok());
  EXPECT_FALSE(conn_.Execute(stmt.value(), {}).ok());
  EXPECT_FALSE(conn_.Execute(stmt.value(),
                                {Value::Int64(1), Value::Int64(2)})
                   .ok());
  // CHAR value against an int32 column: uncoercible.
  EXPECT_FALSE(conn_.Execute(stmt.value(), {Value::Char("x", 1)}).ok());
  // A statement without placeholders rejects extra values.
  auto plain = conn_.Prepare("select count(*) from t");
  ASSERT_TRUE(plain.ok());
  EXPECT_FALSE(conn_.Execute(plain.value(), {Value::Int64(1)}).ok());
  EXPECT_TRUE(conn_.Execute(plain.value()).ok());
}

TEST_F(PreparedStatementTest, UnbindablePlaceholdersRejected) {
  // Both comparison sides placeholders: no column to infer a type from.
  EXPECT_FALSE(conn_.Prepare("select t_k from t where ? < ?").ok());
  // Bare placeholder in the select list: no typed context at all.
  EXPECT_FALSE(conn_.Prepare("select ? from t").ok());
  // Both arithmetic operands placeholders.
  EXPECT_FALSE(conn_.Prepare("select t_k from t where t_v < ? + ?").ok());
}

TEST_F(PreparedStatementTest, QueryRejectsPlaceholders) {
  auto r = conn_.Query("select t_k from t where t_v < ?");
  ASSERT_FALSE(r.ok());
  EXPECT_NE(r.status().message().find("Prepare"), std::string::npos);
}

TEST_F(PreparedStatementTest, SharesCacheWithLiteralQueries) {
  // With constant hoisting, `< 100` and `< ?` are the same plan template.
  ASSERT_TRUE(conn_.Query("select t_k from t where t_v < 100").ok());
  auto stmt = conn_.Prepare("select t_k from t where t_v < ?");
  ASSERT_TRUE(stmt.ok());
  EXPECT_TRUE(stmt.value().cache_hit());
  EXPECT_EQ(engine_->CacheStats().entries, 1u);
}

TEST_F(PreparedStatementTest, WorksWithHoistingDisabled) {
  EngineOptions opts;
  opts.hoist_constants = false;
  HiqueEngine engine(&catalog_, opts);
  Session conn = engine.OpenSession();
  auto stmt = conn.Prepare("select t_k from t where t_v < ?");
  ASSERT_TRUE(stmt.ok()) << stmt.status().ToString();
  Status s = CheckExecuteAgainstReference(
      &conn, stmt.value(), {Value::Int64(250)},
      "select t_k from t where t_v < 250");
  EXPECT_TRUE(s.ok()) << s.ToString();
}

TEST_F(PreparedStatementTest, SurvivesEviction) {
  EngineOptions opts;
  opts.max_cached_queries = 1;
  HiqueEngine engine(&catalog_, opts);
  Session conn = engine.OpenSession();
  auto stmt = conn.Prepare("select t_k from t where t_v < ?");
  ASSERT_TRUE(stmt.ok());
  // Evict the statement's cache entry with a structurally different query.
  ASSERT_TRUE(conn.Query("select count(*) from t").ok());
  EXPECT_GE(engine.CacheStats().evictions, 1u);
  // The statement pinned its library: execution still works, no recompile.
  auto r = conn.Execute(stmt.value(), {Value::Int64(300)});
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(r.value().timings.compile_ms, 0.0);
  EXPECT_GT(r.value().NumRows(), 0);
}

TEST_F(PreparedStatementTest, TierUpgradeIsResultIdentical) {
  // Default options: tier 0 compiles at -O0, the background worker swaps in
  // the -O2 library under the same signature.
  auto stmt = conn_.Prepare("select t_k, count(*) from t where t_v < ? "
                               "group by t_k");
  ASSERT_TRUE(stmt.ok()) << stmt.status().ToString();
  auto before = conn_.Execute(stmt.value(), {Value::Int64(700)});
  ASSERT_TRUE(before.ok());
  // Usually still the -O0 tier, but the background worker may already have
  // swapped -O2 in (it races a slow test runner, e.g. under TSan).
  EXPECT_TRUE(before.value().library_opt_level == 0 ||
              before.value().library_opt_level == 2)
      << before.value().library_opt_level;

  engine_->WaitForTierUpgrades();
  EXPECT_GE(engine_->CacheStats().tier_upgrades, 1u);

  auto after = conn_.Execute(stmt.value(), {Value::Int64(700)});
  ASSERT_TRUE(after.ok());
  EXPECT_EQ(after.value().library_opt_level, 2);

  // The -O2 tier is result-identical to the -O0 tier and to the reference.
  Status tiers = ref::CompareRowSets(RowsOf(before.value()),
                                     RowsOf(after.value()), false);
  EXPECT_TRUE(tiers.ok()) << tiers.ToString();
  Status s = CheckExecuteAgainstReference(
      &conn_, stmt.value(), {Value::Int64(700)},
      "select t_k, count(*) from t where t_v < 700 group by t_k");
  EXPECT_TRUE(s.ok()) << s.ToString();
}

TEST_F(PreparedStatementTest, CacheStatsCounts) {
  ASSERT_TRUE(conn_.Query("select t_k from t where t_v < 100").ok());
  ASSERT_TRUE(conn_.Query("select t_k from t where t_v < 200").ok());
  ASSERT_TRUE(conn_.Query("select count(*) from t").ok());
  CacheStats stats = engine_->CacheStats();
  EXPECT_EQ(stats.misses, 2u);   // two distinct plan templates
  EXPECT_EQ(stats.hits, 1u);     // the literal variant
  EXPECT_EQ(stats.entries, 2u);
  EXPECT_EQ(stats.evictions, 0u);
}

// The two failures a replan repairs, on every prepared surface. The first
// execution fails, replans and retries transparently; the replacement state
// stays in the statement, so the next execution (different binding) runs it
// directly: no repeated failure, and no second re-prepare — the plan cache
// sees no lookup at all.
enum class Surface { kExecute, kExecuteStream, kSubmitAsync };

struct ReplanCase {
  Surface surface;
  exec::RetryReason reason;
};

std::string ReplanCaseName(const ::testing::TestParamInfo<ReplanCase>& info) {
  std::string name = info.param.surface == Surface::kExecute ? "Execute"
                     : info.param.surface == Surface::kExecuteStream
                         ? "ExecuteStream"
                         : "SubmitAsync";
  return name + (info.param.reason == exec::RetryReason::kMapOverflow
                     ? "_MapOverflow"
                     : "_StalePlan");
}

Result<QueryResult> ExecuteOn(Surface surface, Session* session,
                              const PreparedStatement& stmt,
                              const std::vector<Value>& values) {
  switch (surface) {
    case Surface::kExecute:
      return session->Execute(stmt, values);
    case Surface::kExecuteStream: {
      auto rs = session->ExecuteStream(stmt, values);
      if (!rs.ok()) return rs.status();
      return rs.value().Materialize();
    }
    case Surface::kSubmitAsync:
      return session->SubmitAsync(stmt, values).Wait();
  }
  return Status::Internal("unknown surface");
}

class PreparedReplanTest : public ::testing::TestWithParam<ReplanCase> {};

TEST_P(PreparedReplanTest, ReplacementServesLaterExecutions) {
  const ReplanCase c = GetParam();
  Catalog catalog;
  Table* t = testing::MakeIntTable(&catalog, "t", 200, 4, 5);
  if (c.reason == exec::RetryReason::kMapOverflow) {
    // Stale statistics: claim 4 distinct keys, then insert many new ones
    // so map aggregation's directories overflow at run time.
    for (int i = 0; i < 500; ++i) {
      ASSERT_TRUE(t->AppendRow({Value::Int32(1000 + i), Value::Int32(i),
                                Value::Double(i), Value::Char("x", 8)})
                      .ok());
    }
    t->mutable_stats().valid = true;
  }

  HiqueEngine engine(&catalog);
  Session conn = engine.OpenSession();
  auto stmt = conn.Prepare(
      "select t_k, count(*) from t where t_v < ? group by t_k");
  ASSERT_TRUE(stmt.ok()) << stmt.status().ToString();
  if (c.reason == exec::RetryReason::kStalePlan) {
    // Low-cardinality integer columns: the codec chooser encodes them, so
    // Compress rewrites the pages and moves the layout under the plan.
    uint64_t layout = t->layout_version();
    ASSERT_TRUE(t->Compress().ok());
    ASSERT_NE(t->layout_version(), layout);
  }

  auto check = [&](int64_t bound) {
    auto r = ExecuteOn(c.surface, &conn, stmt.value(), {Value::Int64(bound)});
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    auto expected = ref::ExecuteSql(
        "select t_k, count(*) from t where t_v < " + std::to_string(bound) +
            " group by t_k",
        catalog);
    ASSERT_TRUE(expected.ok());
    Status cmp =
        ref::CompareRowSets(expected.value(), RowsOf(r.value()), false);
    EXPECT_TRUE(cmp.ok()) << cmp.ToString();
  };
  CacheStats before = engine.CacheStats();
  check(100000);  // fails, replans once, retries
  CacheStats replanned = engine.CacheStats();
  EXPECT_EQ(replanned.hits + replanned.misses, before.hits + before.misses + 1);
  check(250);  // starts from the statement's replacement
  CacheStats again = engine.CacheStats();
  EXPECT_EQ(again.hits + again.misses, replanned.hits + replanned.misses);
}

INSTANTIATE_TEST_SUITE_P(
    EverySurface, PreparedReplanTest,
    ::testing::Values(
        ReplanCase{Surface::kExecute, exec::RetryReason::kMapOverflow},
        ReplanCase{Surface::kExecuteStream, exec::RetryReason::kMapOverflow},
        ReplanCase{Surface::kSubmitAsync, exec::RetryReason::kMapOverflow},
        ReplanCase{Surface::kExecute, exec::RetryReason::kStalePlan},
        ReplanCase{Surface::kExecuteStream, exec::RetryReason::kStalePlan},
        ReplanCase{Surface::kSubmitAsync, exec::RetryReason::kStalePlan}),
    ReplanCaseName);

// An overflowing run must not adopt a concurrent stale-plan replacement
// that still plans map aggregation. Cursor A runs the overflowing binding
// on the prepared state; meanwhile the table is decompressed and execution B
// (an empty binding, so no overflow) replans for the new layout and stores
// that map-aggregation state. When A then collects its overflow, it must
// replan with hybrid aggregation rather than rerun B's state, which would
// overflow a second time and fail the statement.
TEST(PreparedReplanRaceTest, OverflowSkipsNonHybridReplacement) {
  Catalog catalog;
  Table* t = testing::MakeIntTable(&catalog, "t", 200, 4, 5);
  const TableStats stale = t->stats();  // 4 distinct keys
  for (int i = 0; i < 500; ++i) {
    ASSERT_TRUE(t->AppendRow({Value::Int32(1000 + i), Value::Int32(i),
                              Value::Double(i), Value::Char("p0", 8)})
                    .ok());
  }
  // Compress on fresh statistics (it refuses stale ones), then restore the
  // stale ones so every plan below picks map aggregation and overflows.
  ASSERT_TRUE(t->ComputeStats().ok());
  uint64_t layout = t->layout_version();
  ASSERT_TRUE(t->Compress().ok());
  ASSERT_NE(t->layout_version(), layout);
  t->mutable_stats() = stale;

  HiqueEngine engine(&catalog);
  Session conn = engine.OpenSession();
  const std::string sql =
      "select t_k, count(*) from t where t_v < ? group by t_k";
  auto stmt = conn.Prepare(sql);
  ASSERT_TRUE(stmt.ok()) << stmt.status().ToString();

  auto cursor = conn.ExecuteStream(stmt.value(), {Value::Int64(100000)});
  ASSERT_TRUE(cursor.ok()) << cursor.status().ToString();
  // Give A's producer time to pin the old layout and overflow; its failure
  // is only collected when the cursor is drained below. If the producer
  // pins after the Decompress instead, A replans for the stale plan first —
  // the assertions hold on both interleavings.
  std::this_thread::sleep_for(std::chrono::milliseconds(200));
  layout = t->layout_version();
  ASSERT_TRUE(t->Decompress().ok());
  ASSERT_NE(t->layout_version(), layout);

  auto b = conn.Execute(stmt.value(), {Value::Int64(0)});
  ASSERT_TRUE(b.ok()) << b.status().ToString();
  EXPECT_EQ(b.value().NumRows(), 0);

  auto a = cursor.value().Materialize();
  ASSERT_TRUE(a.ok()) << a.status().ToString();
  auto expected = ref::ExecuteSql(
      "select t_k, count(*) from t where t_v < 100000 group by t_k", catalog);
  ASSERT_TRUE(expected.ok());
  Status cmp = ref::CompareRowSets(expected.value(), RowsOf(a.value()), false);
  EXPECT_TRUE(cmp.ok()) << cmp.ToString();

  // A's hybrid replan is now the statement's replacement: the next
  // overflowing binding runs it directly, without preparing again.
  CacheStats before = engine.CacheStats();
  auto again = conn.Execute(stmt.value(), {Value::Int64(100000)});
  ASSERT_TRUE(again.ok()) << again.status().ToString();
  EXPECT_EQ(again.value().NumRows(), a.value().NumRows());
  CacheStats after = engine.CacheStats();
  EXPECT_EQ(after.hits + after.misses, before.hits + before.misses);
}

TEST(ParamModeTest, PlaceholdersOnlyHoistsJustPlaceholders) {
  Catalog catalog;
  testing::MakeIntTable(&catalog, "t", 100, 8, 33);
  auto stmt = sql::Parse("select t_k from t where t_v < ? and t_k < 3");
  ASSERT_TRUE(stmt.ok());
  auto bound = sql::Bind(*stmt.value(), catalog);
  ASSERT_TRUE(bound.ok());
  auto plan = plan::Optimize(std::move(bound).value(), {});
  ASSERT_TRUE(plan.ok());
  plan::ParameterizePlan(plan.value().get(),
                         plan::ParamMode::kPlaceholdersOnly);
  const plan::ParamTable& params = plan.value()->params;
  ASSERT_EQ(params.entries.size(), 1u);  // only the `?`, not the 3
  EXPECT_EQ(params.entries[0].placeholder, 0);
  ASSERT_EQ(params.placeholder_entries.size(), 1u);
  EXPECT_EQ(params.placeholder_entries[0], 0);
}

}  // namespace
}  // namespace hique
