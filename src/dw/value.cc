#include "dw/value.h"

namespace flexvis::dw {

std::string_view ColumnTypeName(ColumnType type) {
  switch (type) {
    case ColumnType::kInt64: return "int64";
    case ColumnType::kDouble: return "double";
    case ColumnType::kString: return "string";
  }
  return "unknown";
}

double Value::ToNumber() const {
  if (is_int()) return static_cast<double>(AsInt());
  if (is_double()) return AsDouble();
  return 0.0;
}

int Value::Compare(const Value& a, const Value& b) {
  // Rank: null(0) < numeric(1) < string(2).
  auto rank = [](const Value& v) { return v.is_null() ? 0 : (v.is_string() ? 2 : 1); };
  int ra = rank(a), rb = rank(b);
  if (ra != rb) return ra < rb ? -1 : 1;
  if (ra == 0) return 0;
  if (ra == 2) {
    int c = a.AsString().compare(b.AsString());
    return c < 0 ? -1 : (c > 0 ? 1 : 0);
  }
  // Both numeric: compare exactly when both ints, else as doubles.
  if (a.is_int() && b.is_int()) {
    int64_t x = a.AsInt(), y = b.AsInt();
    return x < y ? -1 : (x > y ? 1 : 0);
  }
  double x = a.ToNumber(), y = b.ToNumber();
  return x < y ? -1 : (x > y ? 1 : 0);
}

}  // namespace flexvis::dw
