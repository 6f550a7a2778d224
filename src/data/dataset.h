// Column-major labelled dataset: the training table of the paper's setting.
//
// Columns are stored contiguously because every algorithm in this library
// (perturbation, reconstruction, gini scans) iterates one attribute at a
// time over all records — the same reason analytic stores are columnar.

#ifndef PPDM_DATA_DATASET_H_
#define PPDM_DATA_DATASET_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/status.h"
#include "data/row_batch.h"
#include "data/schema.h"

namespace ppdm::data {

/// A table of numeric attribute columns plus an integer class label per row.
class Dataset {
 public:
  /// Creates an empty dataset with the given schema and number of classes.
  Dataset(Schema schema, int num_classes);

  const Schema& schema() const { return schema_; }
  int num_classes() const { return num_classes_; }
  std::size_t NumRows() const { return labels_.size(); }
  std::size_t NumCols() const { return columns_.size(); }

  /// Pre-sizes every column (and the label vector) for `rows` total rows,
  /// so a loader that knows its record count ahead of AddRow/AddRows never
  /// regrows a column vector mid-ingest.
  void Reserve(std::size_t rows);

  /// Appends one row. `values` must have exactly NumCols() entries and
  /// `label` must be in [0, num_classes).
  void AddRow(const std::vector<double>& values, int label);

  /// Appends a labelled record batch (column-major scatter of the
  /// row-major view). `rows` must have NumCols() columns and labels.
  void AddRows(const RowBatch& rows);

  /// Value of attribute `col` in row `row`.
  double At(std::size_t row, std::size_t col) const;

  /// Overwrites one cell (used by perturbation-in-place paths).
  void Set(std::size_t row, std::size_t col, double value);

  /// Whole attribute column.
  const std::vector<double>& Column(std::size_t col) const;

  /// Mutable attribute column.
  std::vector<double>* MutableColumn(std::size_t col);

  /// Class label of a row.
  int Label(std::size_t row) const;

  const std::vector<int>& labels() const { return labels_; }

  /// Materializes one full row (for prediction / display).
  std::vector<double> Row(std::size_t row) const;

  /// New dataset containing only the given rows, in order.
  Dataset Select(const std::vector<std::size_t>& rows) const;

  /// Number of rows per class label.
  std::vector<std::size_t> ClassCounts() const;

  /// Structural invariants: column sizes agree, labels in range.
  Status Validate() const;

 private:
  Schema schema_;
  int num_classes_;
  std::vector<std::vector<double>> columns_;
  std::vector<int> labels_;
};

}  // namespace ppdm::data

#endif  // PPDM_DATA_DATASET_H_
