#ifndef HIQUE_TESTS_TEST_UTIL_H_
#define HIQUE_TESTS_TEST_UTIL_H_

#include <string>
#include <vector>

#include "exec/engine.h"
#include "ref/reference.h"
#include "storage/catalog.h"
#include "util/rng.h"

namespace hique::testing {

/// Builds a table `name(k INT, v INT, d DOUBLE, pad CHAR(n))` with `rows`
/// rows: k uniform in [0, key_domain), v uniform small, d derived. The pad
/// column widens tuples so staging/projection paths are exercised.
inline Table* MakeIntTable(Catalog* catalog, const std::string& name,
                           uint64_t rows, int64_t key_domain, uint64_t seed,
                           uint16_t pad = 8) {
  Schema schema;
  schema.AddColumn(name + "_k", Type::Int32());
  schema.AddColumn(name + "_v", Type::Int32());
  schema.AddColumn(name + "_d", Type::Double());
  schema.AddColumn(name + "_pad", Type::Char(pad));
  Table* t = catalog->CreateTable(name, schema).value();
  Rng rng(seed);
  for (uint64_t i = 0; i < rows; ++i) {
    int32_t k = static_cast<int32_t>(rng.NextBounded(key_domain));
    int32_t v = static_cast<int32_t>(rng.NextBounded(1000));
    (void)t->AppendRow({Value::Int32(k), Value::Int32(v),
                        Value::Double(v * 0.5 + k),
                        Value::Char("p" + std::to_string(i % 7), pad)});
  }
  HQ_CHECK(t->ComputeStats().ok());
  return t;
}

/// A session whose statements plan with `planner` — how the §VI-B sweeps
/// pin join and aggregation algorithms.
inline Session PlannerSession(HiqueEngine* engine,
                              const plan::PlannerOptions& planner) {
  SessionOptions options;
  options.override_planner = true;
  options.planner = planner;
  return engine->OpenSession(options);
}

/// Runs `sql` through the HIQUE engine and the reference executor and
/// asserts identical row sets. Returns a status for EXPECT_TRUE reporting.
inline Status CheckAgainstReference(HiqueEngine* engine,
                                    const std::string& sql,
                                    bool respect_order = false) {
  auto expected = ref::ExecuteSql(sql, *engine->catalog());
  if (!expected.ok()) return expected.status();
  auto actual = engine->OpenSession().Query(sql);
  if (!actual.ok()) return actual.status();
  std::vector<ref::Row> actual_rows;
  for (auto& row : actual.value().Rows()) actual_rows.push_back(row);
  return ref::CompareRowSets(expected.value(), actual_rows, respect_order);
}

}  // namespace hique::testing

#endif  // HIQUE_TESTS_TEST_UTIL_H_
