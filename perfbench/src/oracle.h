#ifndef PERFBENCH_ORACLE_H_
#define PERFBENCH_ORACLE_H_

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "ref/reference.h"
#include "storage/catalog.h"
#include "util/status.h"

namespace perfbench {

/// Rows of a materialized result table (engine or iterator engine).
std::vector<hique::ref::Row> TableRows(hique::Table* table);

/// Evaluates `sql` (literals only) on the Volcano iterator engine over the
/// same catalog — an independent, interpreted path that shares none of the
/// generated code — and compares its rows with `actual` through
/// ref::CompareRowSets: in order when the statement has ORDER BY, doubles
/// within a relative tolerance.
hique::Status CheckAgainstIterator(hique::Catalog* catalog,
                                   const std::string& sql,
                                   const std::vector<hique::ref::Row>& actual);

/// The single integer an iterator-engine `select count(*) ...` returns.
hique::Result<int64_t> IteratorCount(hique::Catalog* catalog,
                                     const std::string& sql);

/// Runs `check` in a forked child and returns its verdict, so the oracle's
/// memory never shows in this process's peak resident set. Only for
/// quiescent points: no other thread may hold a lock the check needs.
hique::Status RunIsolated(const std::function<hique::Status()>& check);

/// Order-sensitive fingerprint of a row set; equal results give equal
/// fingerprints, so a re-run can be matched against an oracle-checked one.
uint64_t Fingerprint(const std::vector<hique::ref::Row>& rows);

}  // namespace perfbench

#endif  // PERFBENCH_ORACLE_H_
