// CSV export with RFC-4180-style quoting. Reading CSV is the streaming
// columnar reader's job (ingest/chunked_csv_reader.h).

#ifndef FAIRCAP_DATAFRAME_CSV_H_
#define FAIRCAP_DATAFRAME_CSV_H_

#include <string>

#include "dataframe/dataframe.h"
#include "util/result.h"

namespace faircap {

/// Options controlling CSV writing.
struct CsvOptions {
  char delimiter = ',';
  /// Written for null cells; readers treat it (after trimming) as null,
  /// in addition to empty cells.
  std::string null_token = "NA";
};

/// Writes `df` as CSV (header + rows).
Status WriteCsv(const DataFrame& df, const std::string& path,
                const CsvOptions& options = {});

}  // namespace faircap

#endif  // FAIRCAP_DATAFRAME_CSV_H_
