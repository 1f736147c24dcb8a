#ifndef FLEXVIS_DW_QUERY_H_
#define FLEXVIS_DW_QUERY_H_

#include <string>
#include <vector>

#include "dw/table.h"
#include "util/status.h"

namespace flexvis::dw {

/// A simple column-vs-constant predicate. Predicates in one filter are
/// ANDed; kIn provides the OR-over-members case the views need ("states in
/// {Accepted, Assigned}").
struct Predicate {
  enum class Op { kEq, kNe, kLt, kLe, kGt, kGe, kIn };

  std::string column;
  Op op = Op::kEq;
  Value value;                 // for all ops except kIn
  std::vector<Value> values;   // for kIn

  static Predicate Eq(std::string column, Value v);
  static Predicate Ne(std::string column, Value v);
  static Predicate Lt(std::string column, Value v);
  static Predicate Le(std::string column, Value v);
  static Predicate Gt(std::string column, Value v);
  static Predicate Ge(std::string column, Value v);
  static Predicate In(std::string column, std::vector<Value> vs);
};

/// Returns the indices of rows in `table` satisfying all predicates, in row
/// order; NotFound when a predicate names a column the table lacks.
Result<std::vector<size_t>> FilterRows(const Table& table, const std::vector<Predicate>& where);

}  // namespace flexvis::dw

#endif  // FLEXVIS_DW_QUERY_H_
