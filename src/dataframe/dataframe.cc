#include "dataframe/dataframe.h"

#include <algorithm>
#include <cassert>
#include <cmath>

#include "dataframe/predicate_index.h"

namespace faircap {

DataFrame::DataFrame() : index_(std::make_unique<PredicateIndex>()) {}

DataFrame::~DataFrame() = default;

DataFrame::DataFrame(const DataFrame& other)
    : schema_(other.schema_),
      columns_(other.columns_),
      num_rows_(other.num_rows_),
      index_(std::make_unique<PredicateIndex>()) {}

DataFrame& DataFrame::operator=(const DataFrame& other) {
  if (this != &other) {
    schema_ = other.schema_;
    columns_ = other.columns_;
    num_rows_ = other.num_rows_;
    InvalidateIndex();  // null-safe: the destination may be moved-from
  }
  return *this;
}

// Moves keep the warm index: the masks describe row contents, which move
// along unchanged.
DataFrame::DataFrame(DataFrame&& other) noexcept = default;

DataFrame& DataFrame::operator=(DataFrame&& other) noexcept = default;

void DataFrame::InvalidateIndex() {
  ++generation_;
  if (index_ != nullptr) index_->Clear();
}

PredicateIndex& DataFrame::predicate_index() const {
  // Only a moved-from table lacks an index; rebuilding here keeps such
  // objects safe to reuse (single-threaded by definition at that point).
  if (index_ == nullptr) index_ = std::make_unique<PredicateIndex>();
  return *index_;
}

DataFrame DataFrame::Create(Schema schema) {
  DataFrame df;
  df.columns_.reserve(schema.num_attributes());
  for (size_t i = 0; i < schema.num_attributes(); ++i) {
    df.columns_.emplace_back(schema.attribute(i).type);
  }
  df.schema_ = std::move(schema);
  return df;
}

Result<DataFrame> DataFrame::FromColumns(Schema schema,
                                         std::vector<Column> columns) {
  if (columns.size() != schema.num_attributes()) {
    return Status::InvalidArgument(
        "column count does not match schema arity");
  }
  for (size_t i = 0; i < columns.size(); ++i) {
    if (columns[i].type() != schema.attribute(i).type) {
      return Status::InvalidArgument("column type mismatch for attribute '" +
                                     schema.attribute(i).name + "'");
    }
    if (columns[i].size() != columns[0].size()) {
      return Status::InvalidArgument(
          "columns have unequal lengths (attribute '" +
          schema.attribute(i).name + "')");
    }
  }
  DataFrame df;
  df.num_rows_ = columns.empty() ? 0 : columns[0].size();
  df.columns_ = std::move(columns);
  df.schema_ = std::move(schema);
  return df;
}

Result<const Column*> DataFrame::ColumnByName(const std::string& name) const {
  FAIRCAP_ASSIGN_OR_RETURN(const size_t idx, schema_.IndexOf(name));
  return &columns_[idx];
}

Status DataFrame::ValidateRow(const std::vector<Value>& values) const {
  if (values.size() != columns_.size()) {
    return Status::InvalidArgument("row arity does not match schema");
  }
  for (size_t i = 0; i < values.size(); ++i) {
    const Value& v = values[i];
    if (v.is_null()) continue;
    const bool want_string = columns_[i].type() == AttrType::kCategorical;
    if (want_string != v.is_string()) {
      return Status::InvalidArgument(
          "type mismatch for attribute '" + schema_.attribute(i).name + "'");
    }
  }
  return Status::OK();
}

Status DataFrame::AppendRow(const std::vector<Value>& values) {
  // Validate all cells before mutating any column so a failed append leaves
  // the table unchanged.
  FAIRCAP_RETURN_NOT_OK(ValidateRow(values));
  for (size_t i = 0; i < values.size(); ++i) {
    const Status st = columns_[i].Append(values[i]);
    assert(st.ok());
    (void)st;
  }
  ++num_rows_;
  InvalidateIndex();
  return Status::OK();
}

Status DataFrame::AppendFrame(const DataFrame& delta) {
  if (delta.schema_.num_attributes() != schema_.num_attributes()) {
    return Status::InvalidArgument(
        "delta schema does not match resident schema");
  }
  for (size_t i = 0; i < schema_.num_attributes(); ++i) {
    const AttributeSpec& a = schema_.attribute(i);
    const AttributeSpec& b = delta.schema_.attribute(i);
    if (a.name != b.name || a.type != b.type || a.role != b.role) {
      return Status::InvalidArgument(
          "delta schema does not match resident schema at attribute '" +
          a.name + "'");
    }
  }
  for (size_t i = 0; i < columns_.size(); ++i) {
    FAIRCAP_RETURN_NOT_OK(columns_[i].ExtendFrom(delta.columns_[i]));
  }
  num_rows_ += delta.num_rows_;
  ++generation_;
  // Appends keep the warm index: resident bits of every cached mask are
  // still valid, so the index extends masks lazily instead of rebuilding.
  if (index_ != nullptr) index_->OnAppend(*this);
  return Status::OK();
}

DataFrame DataFrame::Take(const Bitmap& mask) const {
  return TakeRows(mask.ToIndices());
}

DataFrame DataFrame::TakeRows(const std::vector<uint32_t>& rows) const {
  DataFrame out;
  out.schema_ = schema_;
  out.columns_.reserve(columns_.size());
  for (const Column& col : columns_) {
    out.columns_.push_back(col.Take(rows));
  }
  out.num_rows_ = rows.size();
  return out;
}

DataFrame DataFrame::SampleFraction(double fraction, Rng* rng) const {
  assert(fraction >= 0.0 && fraction <= 1.0);
  const size_t target = static_cast<size_t>(
      std::llround(fraction * static_cast<double>(num_rows_)));
  std::vector<size_t> perm = rng->Permutation(num_rows_);
  std::vector<uint32_t> rows(perm.begin(), perm.begin() + target);
  std::sort(rows.begin(), rows.end());
  return TakeRows(rows);
}

double DataFrame::Mean(size_t col, const Bitmap& mask) const {
  const Column& c = columns_[col];
  assert(c.type() == AttrType::kNumeric);
  double sum = 0.0;
  size_t n = 0;
  mask.ForEach([&](size_t row) {
    const double v = c.numeric(row);
    if (!std::isnan(v)) {
      sum += v;
      ++n;
    }
  });
  if (n == 0) return std::nan("");
  return sum / static_cast<double>(n);
}

double DataFrame::Mean(size_t col) const { return Mean(col, AllRows()); }

Status DataFrame::SetRole(const std::string& name, AttrRole role) {
  FAIRCAP_ASSIGN_OR_RETURN(const size_t idx, schema_.IndexOf(name));
  // Rebuild the schema with the updated role; Schema validates invariants
  // (e.g. at most one outcome).
  std::vector<AttributeSpec> attrs = schema_.attributes();
  attrs[idx].role = role;
  FAIRCAP_ASSIGN_OR_RETURN(Schema updated, Schema::Create(std::move(attrs)));
  schema_ = std::move(updated);
  return Status::OK();
}

void DataFrame::Reserve(size_t n) {
  for (Column& c : columns_) c.Reserve(n);
}

}  // namespace faircap
