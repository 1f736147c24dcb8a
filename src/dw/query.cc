#include "dw/query.h"

#include <algorithm>

#include "util/strings.h"

namespace flexvis::dw {

Predicate Predicate::Eq(std::string column, Value v) {
  return Predicate{std::move(column), Op::kEq, std::move(v), {}};
}
Predicate Predicate::Ne(std::string column, Value v) {
  return Predicate{std::move(column), Op::kNe, std::move(v), {}};
}
Predicate Predicate::Lt(std::string column, Value v) {
  return Predicate{std::move(column), Op::kLt, std::move(v), {}};
}
Predicate Predicate::Le(std::string column, Value v) {
  return Predicate{std::move(column), Op::kLe, std::move(v), {}};
}
Predicate Predicate::Gt(std::string column, Value v) {
  return Predicate{std::move(column), Op::kGt, std::move(v), {}};
}
Predicate Predicate::Ge(std::string column, Value v) {
  return Predicate{std::move(column), Op::kGe, std::move(v), {}};
}
Predicate Predicate::In(std::string column, std::vector<Value> vs) {
  return Predicate{std::move(column), Op::kIn, Value::Null(), std::move(vs)};
}

namespace {

bool Matches(const Value& cell, const Predicate& p) {
  switch (p.op) {
    case Predicate::Op::kEq: return cell == p.value;
    case Predicate::Op::kNe: return cell != p.value;
    case Predicate::Op::kLt: return cell < p.value;
    case Predicate::Op::kLe: return cell <= p.value;
    case Predicate::Op::kGt: return cell > p.value;
    case Predicate::Op::kGe: return cell >= p.value;
    case Predicate::Op::kIn:
      return std::find(p.values.begin(), p.values.end(), cell) != p.values.end();
  }
  return false;
}

}  // namespace

Result<std::vector<size_t>> FilterRows(const Table& table,
                                       const std::vector<Predicate>& where) {
  // Resolve predicate columns once.
  std::vector<const Column*> cols(where.size());
  for (size_t i = 0; i < where.size(); ++i) {
    cols[i] = table.FindColumn(where[i].column);
    if (cols[i] == nullptr) {
      return NotFoundError(StrFormat("predicate column '%s' not in table '%s'",
                                     where[i].column.c_str(), table.name().c_str()));
    }
  }
  std::vector<size_t> rows;
  for (size_t r = 0; r < table.NumRows(); ++r) {
    bool keep = true;
    for (size_t i = 0; i < where.size(); ++i) {
      if (!Matches(cols[i]->Get(r), where[i])) {
        keep = false;
        break;
      }
    }
    if (keep) rows.push_back(r);
  }
  return rows;
}

}  // namespace flexvis::dw
