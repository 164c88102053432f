// DataFrame: the single-relation database instance D from Section 4 of the
// paper. Columnar layout; row selections are Bitmaps so the mining and
// selection algorithms compose with cheap set algebra.

#ifndef FAIRCAP_DATAFRAME_DATAFRAME_H_
#define FAIRCAP_DATAFRAME_DATAFRAME_H_

#include <memory>
#include <string>
#include <vector>

#include "dataframe/bitmap.h"
#include "dataframe/column.h"
#include "dataframe/schema.h"
#include "dataframe/value.h"
#include "util/random.h"
#include "util/result.h"

namespace faircap {

class PredicateIndex;  // dataframe/predicate_index.h

/// In-memory single-relation table.
class DataFrame {
 public:
  DataFrame();
  ~DataFrame();
  DataFrame(const DataFrame& other);             ///< starts with a cold index
  DataFrame& operator=(const DataFrame& other);  ///< starts with a cold index
  DataFrame(DataFrame&& other) noexcept;         ///< keeps the warm index
  DataFrame& operator=(DataFrame&& other) noexcept;

  /// Creates an empty table with the given schema.
  static DataFrame Create(Schema schema);

  /// Assembles a table wholesale from pre-built columns (the streaming
  /// ingest path: parse straight into columnar storage, then adopt it here
  /// with no per-row append). Column types and count must match the
  /// schema; all columns must have equal length. The table starts with a
  /// cold index; ingest warm-starts it afterwards.
  static Result<DataFrame> FromColumns(Schema schema,
                                       std::vector<Column> columns);

  const Schema& schema() const { return schema_; }
  size_t num_rows() const { return num_rows_; }
  size_t num_columns() const { return columns_.size(); }

  const Column& column(size_t i) const { return columns_[i]; }
  /// Mutable access invalidates the predicate index (values may change).
  Column& column_mutable(size_t i) {
    InvalidateIndex();
    return columns_[i];
  }

  /// The shared predicate-evaluation engine over this table. Pattern and
  /// predicate evaluation route through it; masks are memoized until the
  /// next row mutation. Thread-safe for concurrent evaluation.
  PredicateIndex& predicate_index() const;

  /// Column by attribute name.
  Result<const Column*> ColumnByName(const std::string& name) const;

  /// Appends one row; `values` must match the schema arity and types.
  Status AppendRow(const std::vector<Value>& values);

  /// Appends all rows of `delta` (same schema required: attribute names,
  /// types, and roles must match). Dictionary-encoded columns extend in
  /// place via first-appearance merge, so resident codes never change and
  /// new categories get the codes a cold ingest of the concatenated data
  /// would assign. Unlike the row-mutation paths this does NOT drop the
  /// predicate index: cached masks are notified of the append and extend
  /// themselves lazily by whole 64-row words on next touch.
  Status AppendFrame(const DataFrame& delta);

  /// Monotonic mutation counter: bumped on every row/value mutation,
  /// including appends. Derived caches (index masks, engines, partitions)
  /// record the generation they were built against so staleness is
  /// checkable.
  uint64_t generation() const { return generation_; }

  /// Cell accessor (row-oriented; for tests and display).
  Value GetValue(size_t row, size_t col) const {
    return columns_[col].GetValue(row);
  }

  /// Bitmap of all rows (all bits set).
  Bitmap AllRows() const { return Bitmap(num_rows_, /*value=*/true); }

  /// Materializes the subset of rows selected by `mask`, preserving order.
  DataFrame Take(const Bitmap& mask) const;

  /// Materializes the given rows, in order.
  DataFrame TakeRows(const std::vector<uint32_t>& rows) const;

  /// Uniform sample without replacement of ~`fraction` of the rows.
  DataFrame SampleFraction(double fraction, Rng* rng) const;

  /// Mean of numeric column `col` over rows in `mask`, skipping nulls.
  /// Returns NaN when the selection has no non-null values.
  double Mean(size_t col, const Bitmap& mask) const;

  /// Mean over all rows.
  double Mean(size_t col) const;

  /// Re-assigns the causal role of attribute `name` (used by the attribute-
  /// sweep experiments to toggle attributes in and out of mining).
  Status SetRole(const std::string& name, AttrRole role);

  void Reserve(size_t n);

 private:
  /// Drops all cached predicate masks (row data changed).
  void InvalidateIndex();

  /// Shared row-validation step for the append paths.
  Status ValidateRow(const std::vector<Value>& values) const;

  Schema schema_;
  std::vector<Column> columns_;
  size_t num_rows_ = 0;
  uint64_t generation_ = 0;
  /// Always non-null; mutable so const evaluation paths can memoize.
  mutable std::unique_ptr<PredicateIndex> index_;
};

}  // namespace faircap

#endif  // FAIRCAP_DATAFRAME_DATAFRAME_H_
