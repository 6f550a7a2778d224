#include "data/csv.h"

#include <cmath>
#include <fstream>

#include "common/strings.h"

namespace ppdm::data {
namespace {

/// Validates the header line against the schema (attribute names in order,
/// then "class").
Status CheckHeader(const std::string& line, const Schema& schema) {
  const std::vector<std::string> header = Split(Trim(line), ',');
  if (header.size() != schema.NumFields() + 1) {
    return Status::InvalidArgument(
        StrFormat("header has %zu columns, schema expects %zu", header.size(),
                  schema.NumFields() + 1));
  }
  for (std::size_t c = 0; c < schema.NumFields(); ++c) {
    if (Trim(header[c]) != schema.Field(c).name) {
      return Status::InvalidArgument("header column '" + header[c] +
                                     "' does not match schema attribute '" +
                                     schema.Field(c).name + "'");
    }
  }
  if (Trim(header.back()) != "class") {
    return Status::InvalidArgument("last header column must be 'class'");
  }
  return Status::Ok();
}

/// Non-empty data lines after the header, so ReadCsv can Reserve exactly.
Result<std::size_t> CountDataLines(const std::string& path) {
  std::ifstream in(path);
  if (!in) return Status::IoError("cannot open '" + path + "' for reading");
  std::string line;
  if (!std::getline(in, line)) {
    return Status::IoError("'" + path + "' is empty");
  }
  std::size_t rows = 0;
  while (std::getline(in, line)) {
    if (!Trim(line).empty()) ++rows;
  }
  return rows;
}

}  // namespace

Status WriteCsv(const Dataset& dataset, const std::string& path) {
  std::ofstream out(path);
  if (!out) return Status::IoError("cannot open '" + path + "' for writing");

  const Schema& schema = dataset.schema();
  for (std::size_t c = 0; c < schema.NumFields(); ++c) {
    out << schema.Field(c).name << ',';
  }
  out << "class\n";

  for (std::size_t r = 0; r < dataset.NumRows(); ++r) {
    for (std::size_t c = 0; c < dataset.NumCols(); ++c) {
      out << StrFormat("%.17g", dataset.At(r, c)) << ',';
    }
    out << dataset.Label(r) << '\n';
  }
  out.flush();
  if (!out) return Status::IoError("write to '" + path + "' failed");
  return Status::Ok();
}

Result<std::size_t> ReadCsvBatches(
    const Schema& schema, int num_classes, const std::string& path,
    std::size_t batch_rows,
    const std::function<Status(const RowBatch&)>& sink) {
  if (batch_rows == 0) {
    return Status::InvalidArgument("batch_rows must be positive");
  }
  std::ifstream in(path);
  if (!in) return Status::IoError("cannot open '" + path + "' for reading");

  std::string line;
  if (!std::getline(in, line)) {
    return Status::IoError("'" + path + "' is empty");
  }
  PPDM_RETURN_IF_ERROR(CheckHeader(line, schema));

  const std::size_t cols = schema.NumFields();
  std::vector<double> values(batch_rows * cols);
  std::vector<int> labels(batch_rows);
  std::size_t filled = 0;
  std::size_t total = 0;
  std::size_t line_no = 1;

  const auto flush = [&]() -> Status {
    if (filled == 0) return Status::Ok();
    const Status s = sink(RowBatch(values.data(), filled, cols,
                                   labels.data()));
    filled = 0;
    return s;
  };

  while (std::getline(in, line)) {
    ++line_no;
    const std::string_view trimmed = Trim(line);
    if (trimmed.empty()) continue;
    const std::vector<std::string> fields = Split(trimmed, ',');
    if (fields.size() != cols + 1) {
      return Status::InvalidArgument(
          StrFormat("line %zu has %zu fields, expected %zu", line_no,
                    fields.size(), cols + 1));
    }
    double* row = values.data() + filled * cols;
    for (std::size_t c = 0; c < cols; ++c) {
      PPDM_ASSIGN_OR_RETURN(row[c], ParseDouble(fields[c]));
      if (!std::isfinite(row[c])) {
        return Status::InvalidArgument(
            StrFormat("line %zu: column '%s' is not a finite number: '%s'",
                      line_no, schema.Field(c).name.c_str(),
                      fields[c].c_str()));
      }
    }
    PPDM_ASSIGN_OR_RETURN(const long long label, ParseInt(fields.back()));
    if (label < 0 || label >= num_classes) {
      return Status::InvalidArgument(
          StrFormat("line %zu: label %lld out of range [0, %d)", line_no,
                    label, num_classes));
    }
    labels[filled] = static_cast<int>(label);
    ++filled;
    ++total;
    if (filled == batch_rows) PPDM_RETURN_IF_ERROR(flush());
  }
  PPDM_RETURN_IF_ERROR(flush());
  return total;
}

Result<Dataset> ReadCsv(const Schema& schema, int num_classes,
                        const std::string& path) {
  PPDM_ASSIGN_OR_RETURN(const std::size_t rows, CountDataLines(path));
  Dataset dataset(schema, num_classes);
  dataset.Reserve(rows);
  PPDM_RETURN_IF_ERROR(ReadCsvBatches(schema, num_classes, path,
                                      /*batch_rows=*/4096,
                                      [&dataset](const RowBatch& batch) {
                                        dataset.AddRows(batch);
                                        return Status::Ok();
                                      })
                           .status());
  return dataset;
}

}  // namespace ppdm::data
