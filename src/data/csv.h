// CSV persistence for datasets. The format is a header row with the
// attribute names plus a final "class" column, then one row per record.
//
// Two read paths: ReadCsv materializes a column-major Dataset (pre-sized
// via Dataset::Reserve, so ingestion never regrows a column), and
// ReadCsvBatches streams the file as row-major RowBatch views for
// record-oriented consumers (dataset-level sessions) that never need the
// whole table in memory.

#ifndef PPDM_DATA_CSV_H_
#define PPDM_DATA_CSV_H_

#include <cstddef>
#include <functional>
#include <string>

#include "common/status.h"
#include "data/dataset.h"
#include "data/row_batch.h"

namespace ppdm::data {

/// Writes `dataset` to `path`. Overwrites any existing file.
Status WriteCsv(const Dataset& dataset, const std::string& path);

/// Reads a dataset written by WriteCsv. The header must match the schema's
/// attribute names (in order) followed by "class". Both readers reject a
/// value that is not a finite number (`nan`, `inf`) with kInvalidArgument
/// naming its line and column.
Result<Dataset> ReadCsv(const Schema& schema, int num_classes,
                        const std::string& path);

/// Streams a WriteCsv file as labelled record batches of at most
/// `batch_rows` rows each, invoking `sink` once per batch (the view is
/// valid only for the duration of the call). Stops at the first sink
/// error, which is returned as-is. Returns the total record count.
Result<std::size_t> ReadCsvBatches(
    const Schema& schema, int num_classes, const std::string& path,
    std::size_t batch_rows, const std::function<Status(const RowBatch&)>& sink);

}  // namespace ppdm::data

#endif  // PPDM_DATA_CSV_H_
