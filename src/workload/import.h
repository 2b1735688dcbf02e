#ifndef SHADOOP_WORKLOAD_IMPORT_H_
#define SHADOOP_WORKLOAD_IMPORT_H_

#include <string>
#include <vector>

#include "common/result.h"

namespace shadoop::workload {

/// Converter from delimited point rows into the system's record format
/// ("<geometry>[\t<attributes>]"). Real datasets (TIGER extracts, OSM
/// dumps) rarely put coordinates in the first columns; the import does
/// the column mapping once at load time so every operation downstream
/// sees the canonical layout.
struct CsvImportOptions {
  char delimiter = ',';
  /// 0-based columns holding the x and y coordinates.
  int x_column = 0;
  int y_column = 1;
  /// Skip the first line (column headers).
  bool has_header = false;
  /// What to do with rows whose coordinates do not parse: skip (count
  /// them in *skipped) or fail the import.
  bool skip_bad_rows = true;
};

/// Converts delimited point rows to point records; all non-coordinate
/// columns are preserved as the attribute payload (joined with commas).
Result<std::vector<std::string>> ImportPointCsv(
    const std::vector<std::string>& lines, const CsvImportOptions& options,
    size_t* skipped = nullptr);

}  // namespace shadoop::workload

#endif  // SHADOOP_WORKLOAD_IMPORT_H_
