#include "dw/table.h"

#include <algorithm>

#include "util/strings.h"

namespace flexvis::dw {

size_t Column::size() const {
  switch (spec_.type) {
    case ColumnType::kInt64: return ints_.size();
    case ColumnType::kDouble: return doubles_.size();
    case ColumnType::kString: return strings_.size();
  }
  return 0;
}

void Column::MarkValidity(bool valid) {
  if (valid_.empty() && valid) return;  // fast path: no nulls so far
  if (valid_.empty()) {
    // First null: backfill all earlier rows as valid. size() already counts
    // the row being appended, so backfill size()-1 entries.
    valid_.assign(size() > 0 ? size() - 1 : 0, 1);
  }
  valid_.push_back(valid ? 1 : 0);
}

Status Column::Append(const Value& value) {
  if (value.is_null()) {
    switch (spec_.type) {
      case ColumnType::kInt64: ints_.push_back(0); break;
      case ColumnType::kDouble: doubles_.push_back(0.0); break;
      case ColumnType::kString: strings_.emplace_back(); break;
    }
    MarkValidity(false);
    return OkStatus();
  }
  switch (spec_.type) {
    case ColumnType::kInt64:
      if (!value.is_int()) break;
      ints_.push_back(value.AsInt());
      MarkValidity(true);
      return OkStatus();
    case ColumnType::kDouble:
      // Accept ints into double columns (widening).
      if (!value.is_double() && !value.is_int()) break;
      doubles_.push_back(value.ToNumber());
      MarkValidity(true);
      return OkStatus();
    case ColumnType::kString:
      if (!value.is_string()) break;
      strings_.push_back(value.AsString());
      MarkValidity(true);
      return OkStatus();
  }
  return InvalidArgumentError(StrFormat("type mismatch appending to column '%s' (%s)",
                                        spec_.name.c_str(),
                                        std::string(ColumnTypeName(spec_.type)).c_str()));
}

void Column::AppendInt64(int64_t v) {
  ints_.push_back(v);
  MarkValidity(true);
}

void Column::AppendDouble(double v) {
  doubles_.push_back(v);
  MarkValidity(true);
}

void Column::AppendString(std::string v) {
  strings_.push_back(std::move(v));
  MarkValidity(true);
}

void Column::AppendNull() {
  switch (spec_.type) {
    case ColumnType::kInt64: ints_.push_back(0); break;
    case ColumnType::kDouble: doubles_.push_back(0.0); break;
    case ColumnType::kString: strings_.emplace_back(); break;
  }
  MarkValidity(false);
}

void Column::Reserve(size_t rows) {
  auto grow = [rows](auto& cells) {
    if (cells.capacity() < rows) cells.reserve(std::max(rows, 2 * cells.capacity()));
  };
  switch (spec_.type) {
    case ColumnType::kInt64: grow(ints_); break;
    case ColumnType::kDouble: grow(doubles_); break;
    case ColumnType::kString: grow(strings_); break;
  }
  if (!valid_.empty()) grow(valid_);
}

void Column::Truncate(size_t rows) {
  switch (spec_.type) {
    case ColumnType::kInt64: ints_.resize(rows); break;
    case ColumnType::kDouble: doubles_.resize(rows); break;
    case ColumnType::kString: strings_.resize(rows); break;
  }
  if (valid_.size() > rows) valid_.resize(rows);
}

bool Column::IsNull(size_t row) const { return !valid_.empty() && valid_[row] == 0; }

Value Column::Get(size_t row) const {
  if (IsNull(row)) return Value::Null();
  switch (spec_.type) {
    case ColumnType::kInt64: return Value(ints_[row]);
    case ColumnType::kDouble: return Value(doubles_[row]);
    case ColumnType::kString: return Value(strings_[row]);
  }
  return Value::Null();
}

Status Column::Set(size_t row, const Value& value) {
  if (row >= size()) {
    return OutOfRangeError(StrFormat("row %zu out of range in column '%s'", row,
                                     spec_.name.c_str()));
  }
  if (value.is_null()) {
    if (valid_.empty()) valid_.assign(size(), 1);
    valid_[row] = 0;
    return OkStatus();
  }
  switch (spec_.type) {
    case ColumnType::kInt64:
      if (!value.is_int()) break;
      ints_[row] = value.AsInt();
      if (!valid_.empty()) valid_[row] = 1;
      return OkStatus();
    case ColumnType::kDouble:
      if (!value.is_double() && !value.is_int()) break;
      doubles_[row] = value.ToNumber();
      if (!valid_.empty()) valid_[row] = 1;
      return OkStatus();
    case ColumnType::kString:
      if (!value.is_string()) break;
      strings_[row] = value.AsString();
      if (!valid_.empty()) valid_[row] = 1;
      return OkStatus();
  }
  return InvalidArgumentError(StrFormat("type mismatch setting column '%s'",
                                        spec_.name.c_str()));
}

Table::Table(std::string name, std::vector<ColumnSpec> schema) : name_(std::move(name)) {
  columns_.reserve(schema.size());
  for (ColumnSpec& spec : schema) columns_.emplace_back(std::move(spec));
}

Result<size_t> Table::ColumnIndex(std::string_view name) const {
  for (size_t i = 0; i < columns_.size(); ++i) {
    if (columns_[i].name() == name) return i;
  }
  return NotFoundError(StrFormat("no column '%.*s' in table '%s'",
                                 static_cast<int>(name.size()), name.data(), name_.c_str()));
}

const Column* Table::FindColumn(std::string_view name) const {
  for (const Column& c : columns_) {
    if (c.name() == name) return &c;
  }
  return nullptr;
}

Status Table::AppendRow(const std::vector<Value>& cells) {
  if (cells.size() != columns_.size()) {
    return InvalidArgumentError(StrFormat("row has %zu cells; table '%s' has %zu columns",
                                          cells.size(), name_.c_str(), columns_.size()));
  }
  // Validate before mutating so a failed append leaves the table unchanged.
  for (size_t i = 0; i < cells.size(); ++i) {
    const Value& v = cells[i];
    if (v.is_null()) continue;
    bool ok = false;
    switch (columns_[i].type()) {
      case ColumnType::kInt64: ok = v.is_int(); break;
      case ColumnType::kDouble: ok = v.is_double() || v.is_int(); break;
      case ColumnType::kString: ok = v.is_string(); break;
    }
    if (!ok) {
      return InvalidArgumentError(StrFormat("type mismatch in column '%s' of table '%s'",
                                            columns_[i].name().c_str(), name_.c_str()));
    }
  }
  for (size_t i = 0; i < cells.size(); ++i) {
    Status s = columns_[i].Append(cells[i]);
    if (!s.ok()) return s;  // unreachable after pre-validation
  }
  ++num_rows_;
  return OkStatus();
}

Status Table::AppendRows(size_t rows, const std::function<void(Column* columns)>& fill) {
  for (Column& column : columns_) column.Reserve(num_rows_ + rows);
  fill(columns_.data());
  for (const Column& column : columns_) {
    if (column.size() != num_rows_ + rows) {
      const size_t got = column.size() - std::min(column.size(), num_rows_);
      for (Column& c : columns_) c.Truncate(num_rows_);
      return InternalError(StrFormat("bulk append of %zu rows to table '%s' gave column '%s' %zu",
                                     rows, name_.c_str(), column.name().c_str(), got));
    }
  }
  num_rows_ += rows;
  return OkStatus();
}

std::vector<ColumnSpec> Table::schema() const {
  std::vector<ColumnSpec> out;
  out.reserve(columns_.size());
  for (const Column& c : columns_) out.push_back(c.spec());
  return out;
}

}  // namespace flexvis::dw
