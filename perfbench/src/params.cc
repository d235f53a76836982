#include "params.h"

#include <cstdio>

#include "storage/types.h"

namespace perfbench {

using hique::DateToDays;
using hique::Value;

namespace {

const char* const kSegments[] = {"AUTOMOBILE", "BUILDING", "FURNITURE",
                                 "MACHINERY", "HOUSEHOLD"};

std::string Num(double v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

// Each template keeps the statement text of tpch::QueryNSql and swaps its
// literals for the substitution parameters (or `?`).
std::string Q1(const std::string& date) {
  return "select l_returnflag, l_linestatus, "
         "sum(l_quantity) as sum_qty, "
         "sum(l_extendedprice) as sum_base_price, "
         "sum(l_extendedprice * (1 - l_discount)) as sum_disc_price, "
         "sum(l_extendedprice * (1 - l_discount) * (1 + l_tax)) as "
         "sum_charge, "
         "avg(l_quantity) as avg_qty, "
         "avg(l_extendedprice) as avg_price, "
         "avg(l_discount) as avg_disc, "
         "count(*) as count_order "
         "from lineitem "
         "where l_shipdate <= " + date + " "
         "group by l_returnflag, l_linestatus "
         "order by l_returnflag, l_linestatus";
}

std::string Q3(const std::string& segment, const std::string& date) {
  return "select l_orderkey, "
         "sum(l_extendedprice * (1 - l_discount)) as revenue, "
         "o_orderdate, o_shippriority "
         "from customer, orders, lineitem "
         "where c_mktsegment = " + segment + " "
         "and c_custkey = o_custkey "
         "and l_orderkey = o_orderkey "
         "and o_orderdate < " + date + " "
         "and l_shipdate > " + date + " "
         "group by l_orderkey, o_orderdate, o_shippriority "
         "order by revenue desc, o_orderdate "
         "limit 10";
}

std::string Q6(const std::string& lo, const std::string& hi,
               const std::string& dlo, const std::string& dhi,
               const std::string& qty) {
  return "select sum(l_extendedprice * l_discount) as revenue "
         "from lineitem "
         "where l_shipdate >= " + lo + " "
         "and l_shipdate < " + hi + " "
         "and l_discount >= " + dlo + " and l_discount <= " + dhi + " "
         "and l_quantity < " + qty;
}

std::string Q10(const std::string& lo, const std::string& hi) {
  return "select c_custkey, c_name, "
         "sum(l_extendedprice * (1 - l_discount)) as revenue, "
         "c_acctbal, n_name, c_address, c_phone, c_comment "
         "from customer, orders, lineitem, nation "
         "where c_custkey = o_custkey "
         "and l_orderkey = o_orderkey "
         "and o_orderdate >= " + lo + " "
         "and o_orderdate < " + hi + " "
         "and l_returnflag = 'R' "
         "and c_nationkey = n_nationkey "
         "group by c_custkey, c_name, c_acctbal, c_phone, n_name, "
         "c_address, c_comment "
         "order by revenue desc "
         "limit 20";
}

int32_t AddMonths(int32_t days, int months) {
  int y, m, d;
  hique::DaysToDate(days, &y, &m, &d);
  int total = y * 12 + (m - 1) + months;
  return DateToDays(total / 12, total % 12 + 1, d);
}

// Q6 discount bounds: DISCOUNT -/+ 0.01, rounded to cents the way the
// spec's decimal arithmetic would give them.
double Cents(int cents) { return static_cast<double>(cents) / 100.0; }

QueryInstance MakeQuery(Kind kind, const SubstitutionParams& p);

}  // namespace

const char* KindName(Kind kind) {
  switch (kind) {
    case Kind::kQ1: return "q1";
    case Kind::kQ3: return "q3";
    case Kind::kQ6: return "q6";
    case Kind::kQ10: return "q10";
    case Kind::kRf1: return "rf1";
    case Kind::kRf2: return "rf2";
  }
  return "?";
}

std::string DateLiteral(int32_t days) {
  int y, m, d;
  hique::DaysToDate(days, &y, &m, &d);
  char buf[32];
  std::snprintf(buf, sizeof(buf), "date '%04d-%02d-%02d'", y, m, d);
  return buf;
}

SubstitutionParams ParamGen::Draw() {
  SubstitutionParams p;
  p.q1_delta_days = static_cast<int>(rng_.NextRange(60, 120));
  p.q3_segment = kSegments[rng_.NextBounded(5)];
  p.q3_date = DateToDays(1995, 3, 1) + static_cast<int32_t>(rng_.NextRange(0, 30));
  p.q6_year_start = DateToDays(static_cast<int>(rng_.NextRange(1993, 1997)), 1, 1);
  p.q6_discount = Cents(static_cast<int>(rng_.NextRange(2, 9)));
  p.q6_quantity = static_cast<int>(rng_.NextRange(24, 25));
  p.q10_month_start =
      AddMonths(DateToDays(1993, 2, 1), static_cast<int>(rng_.NextRange(0, 23)));
  return p;
}

QueryInstance ParamGen::Next(Kind kind) { return MakeQuery(kind, Draw()); }

namespace {

/// Renders one read kind with the given parameters.
QueryInstance MakeQuery(Kind kind, const SubstitutionParams& p) {
  QueryInstance q;
  q.kind = kind;
  switch (kind) {
    case Kind::kQ1: {
      int32_t date = DateToDays(1998, 12, 1) - p.q1_delta_days;
      q.sql = Q1(DateLiteral(date));
      q.values = {Value::Date(date)};
      break;
    }
    case Kind::kQ3:
      q.sql = Q3("'" + p.q3_segment + "'", DateLiteral(p.q3_date));
      q.values = {Value::Char(p.q3_segment, 10), Value::Date(p.q3_date),
                  Value::Date(p.q3_date)};
      break;
    case Kind::kQ6: {
      const int cents = static_cast<int>(p.q6_discount * 100 + 0.5);
      const int32_t hi = AddMonths(p.q6_year_start, 12);
      q.sql = Q6(DateLiteral(p.q6_year_start), DateLiteral(hi),
                 Num(Cents(cents - 1)), Num(Cents(cents + 1)),
                 std::to_string(p.q6_quantity));
      q.values = {Value::Date(p.q6_year_start), Value::Date(hi),
                  Value::Double(Cents(cents - 1)),
                  Value::Double(Cents(cents + 1)),
                  Value::Double(p.q6_quantity)};
      break;
    }
    case Kind::kQ10: {
      const int32_t hi = AddMonths(p.q10_month_start, 3);
      q.sql = Q10(DateLiteral(p.q10_month_start), DateLiteral(hi));
      q.values = {Value::Date(p.q10_month_start), Value::Date(hi)};
      break;
    }
    case Kind::kRf1:
    case Kind::kRf2:
      break;  // refresh functions are DML batches, not parameterized reads
  }
  return q;
}

}  // namespace

std::string PreparedSql(Kind kind) {
  switch (kind) {
    case Kind::kQ1: return Q1("?");
    case Kind::kQ3: return Q3("?", "?");
    case Kind::kQ6: return Q6("?", "?", "?", "?", "?");
    case Kind::kQ10: return Q10("?", "?");
    case Kind::kRf1:
    case Kind::kRf2: break;
  }
  return "";
}

}  // namespace perfbench
