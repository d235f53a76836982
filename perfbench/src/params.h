#ifndef PERFBENCH_PARAMS_H_
#define PERFBENCH_PARAMS_H_

#include <cstdint>
#include <string>
#include <vector>

#include "storage/value.h"
#include "util/rng.h"

namespace perfbench {

/// Statement kinds. Latency is summarized per kind and never over a pooled
/// mix: the kinds differ up to 10x in cost.
enum class Kind { kQ1, kQ3, kQ6, kQ10, kRf1, kRf2 };
inline constexpr Kind kReadKinds[] = {Kind::kQ1, Kind::kQ3, Kind::kQ6,
                                      Kind::kQ10};
const char* KindName(Kind kind);

/// One read statement with its TPC-H substitution parameters applied:
/// `sql` carries them as literals (Session::Query and the oracle), `values`
/// binds them to the `?` form from PreparedSql (Session::Execute).
struct QueryInstance {
  Kind kind = Kind::kQ1;
  std::string sql;
  std::vector<hique::Value> values;
};

/// The substitution values themselves, in the units of TPC-H spec §2.4.
struct SubstitutionParams {
  int q1_delta_days = 90;          // Q1 DELTA:    [60, 120]
  std::string q3_segment;          // Q3 SEGMENT:  one of five segments
  int32_t q3_date = 0;             // Q3 DATE:     1995-03-01 .. 1995-03-31
  int32_t q6_year_start = 0;       // Q6 DATE:     Jan 1st of 1993 .. 1997
  double q6_discount = 0.06;       // Q6 DISCOUNT: 0.02 .. 0.09
  int q6_quantity = 24;            // Q6 QUANTITY: 24 .. 25
  int32_t q10_month_start = 0;     // Q10 DATE:    1st of Feb 1993 .. Jan 1995
};

/// Seeded TPC-H substitution-parameter generator: one seed gives one
/// sequence, and every value stays within the spec's range.
class ParamGen {
 public:
  explicit ParamGen(uint64_t seed) : rng_(seed ^ 0x7c3e9a5d1b2f4e68ull) {}
  SubstitutionParams Draw();
  QueryInstance Next(Kind kind);

 private:
  hique::Rng rng_;
};

/// The `?` form of a read kind, for Session::Prepare; its placeholders
/// bind QueryInstance::values in order.
std::string PreparedSql(Kind kind);

/// `date 'YYYY-MM-DD'` for a day number.
std::string DateLiteral(int32_t days);

}  // namespace perfbench

#endif  // PERFBENCH_PARAMS_H_
