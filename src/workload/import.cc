#include "workload/import.h"

#include "common/string_util.h"
#include "geometry/wkt.h"

namespace shadoop::workload {
namespace {

std::string JoinAttributes(const std::vector<std::string_view>& fields,
                           const std::vector<int>& exclude) {
  std::string attrs;
  for (size_t i = 0; i < fields.size(); ++i) {
    bool excluded = false;
    for (int e : exclude) {
      if (static_cast<size_t>(e) == i) excluded = true;
    }
    if (excluded) continue;
    if (!attrs.empty()) attrs.push_back(',');
    attrs.append(fields[i]);
  }
  return attrs;
}

}  // namespace

Result<std::vector<std::string>> ImportPointCsv(
    const std::vector<std::string>& lines, const CsvImportOptions& options,
    size_t* skipped) {
  if (options.x_column < 0 || options.y_column < 0 ||
      options.x_column == options.y_column) {
    return Status::InvalidArgument("bad x/y column configuration");
  }
  std::vector<std::string> records;
  records.reserve(lines.size());
  size_t bad = 0;
  const size_t first = options.has_header ? 1 : 0;
  for (size_t i = first; i < lines.size(); ++i) {
    const auto fields = SplitString(lines[i], options.delimiter);
    const size_t max_col = static_cast<size_t>(
        std::max(options.x_column, options.y_column));
    Status row_status;
    if (fields.size() <= max_col) {
      row_status = Status::ParseError("row " + std::to_string(i) +
                                      " has too few columns");
    } else {
      auto x = ParseDouble(fields[options.x_column]);
      auto y = ParseDouble(fields[options.y_column]);
      if (!x.ok() || !y.ok()) {
        row_status = Status::ParseError("row " + std::to_string(i) +
                                        " has non-numeric coordinates");
      } else {
        const std::string attrs =
            JoinAttributes(fields, {options.x_column, options.y_column});
        records.push_back(PointToCsv(Point(x.value(), y.value())) +
                          (attrs.empty() ? "" : "\t" + attrs));
        continue;
      }
    }
    if (!options.skip_bad_rows) return row_status;
    ++bad;
  }
  if (skipped != nullptr) *skipped = bad;
  return records;
}

}  // namespace shadoop::workload
