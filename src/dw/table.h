#ifndef FLEXVIS_DW_TABLE_H_
#define FLEXVIS_DW_TABLE_H_

#include <functional>
#include <string>
#include <vector>

#include "dw/value.h"
#include "util/status.h"

namespace flexvis::dw {

/// Declaration of one column.
struct ColumnSpec {
  std::string name;
  ColumnType type = ColumnType::kInt64;
};

/// One typed column stored as a dense vector (classic columnar layout; nulls
/// are tracked in a parallel validity vector only when at least one null has
/// been appended).
class Column {
 public:
  explicit Column(ColumnSpec spec) : spec_(std::move(spec)) {}

  const ColumnSpec& spec() const { return spec_; }
  const std::string& name() const { return spec_.name; }
  ColumnType type() const { return spec_.type; }
  size_t size() const;

  /// Appends a cell. A null is recorded as null; a type-mismatched value is
  /// an error.
  Status Append(const Value& value);

  /// Bulk appends for pooled fills (precondition: matching type): grow the
  /// column by `n` valid cells and return the first new one, which callers
  /// may write from any thread until the next append. `valid`, when given,
  /// receives the new cells' null flags (1 = valid) for the caller to clear.
  int64_t* GrowInt64(size_t n, uint8_t** valid = nullptr);
  double* GrowDouble(size_t n);

  /// Cell accessor (returns Null for null cells). Precondition: row < size().
  Value Get(size_t row) const;

  /// Overwrites an existing cell (type rules as Append). Precondition:
  /// row < size().
  Status Set(size_t row, const Value& value);

  bool IsNull(size_t row) const;

  /// Typed fast-path reads; preconditions: matching type and non-null cell.
  int64_t GetInt64(size_t row) const { return ints_[row]; }
  double GetDouble(size_t row) const { return doubles_[row]; }
  const std::string& GetString(size_t row) const { return strings_[row]; }

  /// Raw contiguous storage for columnar scans (precondition: matching
  /// type). The pointer is invalidated by any append.
  const int64_t* Int64Data() const { return ints_.data(); }
  const double* DoubleData() const { return doubles_.data(); }

 private:
  friend class Table;

  void MarkValidity(bool valid);
  /// Extends the null flags, if any, to size() valid cells; with
  /// `materialize`, creates them first.
  void GrowValidity(bool materialize);
  /// Makes room for `rows` cells in total, growing geometrically so that
  /// repeated bulk appends stay linear.
  void Reserve(size_t rows);
  /// Drops every cell from row `rows` on, and every null flag unless
  /// `keep_flags`.
  void Truncate(size_t rows, bool keep_flags);

  ColumnSpec spec_;
  std::vector<int64_t> ints_;
  std::vector<double> doubles_;
  std::vector<std::string> strings_;
  /// Empty until the first null is appended; then one flag per row.
  std::vector<uint8_t> valid_;
};

/// A columnar table: a schema plus equally sized columns. Rows are appended
/// as vectors of Values in schema order, or in bulk through the column
/// appends (AppendRows).
class Table {
 public:
  Table() = default;
  Table(std::string name, std::vector<ColumnSpec> schema);

  const std::string& name() const { return name_; }
  size_t NumRows() const { return num_rows_; }
  size_t NumColumns() const { return columns_.size(); }

  const Column& column(size_t index) const { return columns_[index]; }
  Column& column(size_t index) { return columns_[index]; }

  /// Index of the column called `name`, or NotFound.
  Result<size_t> ColumnIndex(std::string_view name) const;

  /// The column called `name`, or nullptr.
  const Column* FindColumn(std::string_view name) const;

  /// Appends one row; `cells.size()` must equal NumColumns() and each cell
  /// must match its column type (or be null).
  Status AppendRow(const std::vector<Value>& cells);

  /// Appends `rows` rows through the column appends, for loads that hold
  /// typed data: `fill(columns)` appends exactly `rows` cells to each of
  /// columns[0, NumColumns()). kInternal, with the table left as it was
  /// (null flags included), when a column did not grow by exactly `rows`.
  Status AppendRows(size_t rows, const std::function<void(Column* columns)>& fill);

  /// Schema of all columns, in order.
  std::vector<ColumnSpec> schema() const;

 private:
  std::string name_;
  std::vector<Column> columns_;
  size_t num_rows_ = 0;
};

}  // namespace flexvis::dw

#endif  // FLEXVIS_DW_TABLE_H_
