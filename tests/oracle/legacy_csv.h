// The legacy line-based CSV reader, kept as a test-only reference. It
// reads records with std::getline (joining physical lines while a quote is
// open), splits them into owned strings and appends one row of Values at a
// time. The production reader is the streaming columnar one
// (ingest/chunked_csv_reader.h); ingest_test pins it against this oracle
// bit for bit: schema, types, cell values, dictionary code order and
// status codes.

#ifndef FAIRCAP_TESTS_ORACLE_LEGACY_CSV_H_
#define FAIRCAP_TESTS_ORACLE_LEGACY_CSV_H_

#include <string>

#include "dataframe/csv.h"
#include "dataframe/dataframe.h"
#include "util/result.h"

namespace faircap {
namespace oracle {

/// Reads a CSV file whose header must match `schema` attribute names
/// exactly (same order).
Result<DataFrame> ReadCsv(const std::string& path, const Schema& schema,
                          const CsvOptions& options = {});

/// Reads a CSV file, inferring the schema from the header and cell values.
Result<DataFrame> ReadCsvInferSchema(const std::string& path,
                                     const CsvOptions& options = {});

/// Inference pass only: numeric if every non-empty cell parses as a
/// double, categorical otherwise (and for columns with no value at all);
/// roles all kImmutable.
Result<Schema> InferCsvSchema(const std::string& path,
                              const CsvOptions& options = {});

/// Parses CSV content from a string (same semantics as ReadCsv).
Result<DataFrame> ParseCsv(const std::string& content, const Schema& schema,
                           const CsvOptions& options = {});

/// Parses CSV content from a string with schema inference.
Result<DataFrame> ParseCsvInferSchema(const std::string& content,
                                      const CsvOptions& options = {});

}  // namespace oracle
}  // namespace faircap

#endif  // FAIRCAP_TESTS_ORACLE_LEGACY_CSV_H_
