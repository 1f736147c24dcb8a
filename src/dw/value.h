#ifndef FLEXVIS_DW_VALUE_H_
#define FLEXVIS_DW_VALUE_H_

#include <cstdint>
#include <string>
#include <variant>

#include "util/status.h"

namespace flexvis::dw {

/// Storage types of data-warehouse columns. Time points are stored as kInt64
/// minutes-since-epoch (see timeutil::TimePoint) so range predicates work
/// unchanged.
enum class ColumnType {
  kInt64 = 0,
  kDouble,
  kString,
};

std::string_view ColumnTypeName(ColumnType type);

/// A dynamically typed cell value used at the query-layer boundary (the
/// columnar storage itself is fully typed). Null is represented by the
/// monostate alternative.
class Value {
 public:
  /// Null value.
  Value() : v_(std::monostate{}) {}
  explicit Value(int64_t i) : v_(i) {}
  explicit Value(double d) : v_(d) {}
  explicit Value(std::string s) : v_(std::move(s)) {}

  static Value Null() { return Value(); }

  bool is_null() const { return std::holds_alternative<std::monostate>(v_); }
  bool is_int() const { return std::holds_alternative<int64_t>(v_); }
  bool is_double() const { return std::holds_alternative<double>(v_); }
  bool is_string() const { return std::holds_alternative<std::string>(v_); }

  /// Typed accessors; preconditions per the is_* predicates.
  int64_t AsInt() const { return std::get<int64_t>(v_); }
  double AsDouble() const { return std::get<double>(v_); }
  const std::string& AsString() const { return std::get<std::string>(v_); }

  /// Numeric view: ints widen to double; 0 for null/strings.
  double ToNumber() const;

  /// Total ordering used by filter predicates: null < numbers < strings;
  /// ints and doubles compare numerically.
  friend bool operator<(const Value& a, const Value& b) { return Compare(a, b) < 0; }
  friend bool operator==(const Value& a, const Value& b) { return Compare(a, b) == 0; }
  friend bool operator!=(const Value& a, const Value& b) { return Compare(a, b) != 0; }
  friend bool operator<=(const Value& a, const Value& b) { return Compare(a, b) <= 0; }
  friend bool operator>(const Value& a, const Value& b) { return Compare(a, b) > 0; }
  friend bool operator>=(const Value& a, const Value& b) { return Compare(a, b) >= 0; }

  /// Three-way comparison implementing the total ordering above.
  static int Compare(const Value& a, const Value& b);

 private:
  std::variant<std::monostate, int64_t, double, std::string> v_;
};

}  // namespace flexvis::dw

#endif  // FLEXVIS_DW_VALUE_H_
