#include "data/dataset.h"

#include "common/check.h"
#include "common/strings.h"

namespace ppdm::data {

Dataset::Dataset(Schema schema, int num_classes)
    : schema_(std::move(schema)), num_classes_(num_classes) {
  PPDM_CHECK_GT(num_classes, 0);
  columns_.resize(schema_.NumFields());
}

void Dataset::Reserve(std::size_t rows) {
  for (std::vector<double>& column : columns_) column.reserve(rows);
  labels_.reserve(rows);
}

void Dataset::AddRow(const std::vector<double>& values, int label) {
  PPDM_CHECK_EQ(values.size(), columns_.size());
  PPDM_CHECK(label >= 0 && label < num_classes_);
  for (std::size_t c = 0; c < columns_.size(); ++c) {
    columns_[c].push_back(values[c]);
  }
  labels_.push_back(label);
}

void Dataset::AddRows(const RowBatch& rows) {
  PPDM_CHECK_EQ(rows.num_cols(), columns_.size());
  PPDM_CHECK(rows.has_labels() || rows.empty());
  for (std::size_t c = 0; c < columns_.size(); ++c) {
    std::vector<double>& column = columns_[c];
    for (std::size_t r = 0; r < rows.num_rows(); ++r) {
      column.push_back(rows.At(r, c));
    }
  }
  for (std::size_t r = 0; r < rows.num_rows(); ++r) {
    const int label = rows.Label(r);
    PPDM_CHECK(label >= 0 && label < num_classes_);
    labels_.push_back(label);
  }
}

double Dataset::At(std::size_t row, std::size_t col) const {
  PPDM_CHECK_LT(col, columns_.size());
  PPDM_CHECK_LT(row, labels_.size());
  return columns_[col][row];
}

void Dataset::Set(std::size_t row, std::size_t col, double value) {
  PPDM_CHECK_LT(col, columns_.size());
  PPDM_CHECK_LT(row, labels_.size());
  columns_[col][row] = value;
}

const std::vector<double>& Dataset::Column(std::size_t col) const {
  PPDM_CHECK_LT(col, columns_.size());
  return columns_[col];
}

std::vector<double>* Dataset::MutableColumn(std::size_t col) {
  PPDM_CHECK_LT(col, columns_.size());
  return &columns_[col];
}

int Dataset::Label(std::size_t row) const {
  PPDM_CHECK_LT(row, labels_.size());
  return labels_[row];
}

std::vector<double> Dataset::Row(std::size_t row) const {
  PPDM_CHECK_LT(row, labels_.size());
  std::vector<double> values(columns_.size());
  for (std::size_t c = 0; c < columns_.size(); ++c) {
    values[c] = columns_[c][row];
  }
  return values;
}

Dataset Dataset::Select(const std::vector<std::size_t>& rows) const {
  Dataset out(schema_, num_classes_);
  for (std::size_t c = 0; c < columns_.size(); ++c) {
    out.columns_[c].reserve(rows.size());
  }
  out.labels_.reserve(rows.size());
  for (std::size_t r : rows) {
    PPDM_CHECK_LT(r, labels_.size());
    for (std::size_t c = 0; c < columns_.size(); ++c) {
      out.columns_[c].push_back(columns_[c][r]);
    }
    out.labels_.push_back(labels_[r]);
  }
  return out;
}

std::vector<std::size_t> Dataset::ClassCounts() const {
  std::vector<std::size_t> counts(static_cast<std::size_t>(num_classes_), 0);
  for (int label : labels_) ++counts[static_cast<std::size_t>(label)];
  return counts;
}

Status Dataset::Validate() const {
  if (columns_.size() != schema_.NumFields()) {
    return Status::Internal("column count does not match schema");
  }
  for (std::size_t c = 0; c < columns_.size(); ++c) {
    if (columns_[c].size() != labels_.size()) {
      return Status::Internal(
          StrFormat("column %zu has %zu values for %zu rows", c,
                    columns_[c].size(), labels_.size()));
    }
  }
  for (int label : labels_) {
    if (label < 0 || label >= num_classes_) {
      return Status::Internal(StrFormat("label %d out of range", label));
    }
  }
  return Status::Ok();
}

}  // namespace ppdm::data
