#include "data/dataset.h"

#include <unordered_map>

#include "common/csv.h"
#include "common/logging.h"
#include "common/string_util.h"

namespace crowder {
namespace data {

std::string Table::ConcatenatedRecord(uint32_t record) const {
  CROWDER_CHECK_LT(static_cast<size_t>(record), records.size());
  std::string out;
  for (const auto& value : records[record]) {
    if (!out.empty()) out.push_back(' ');
    out += value;
  }
  return out;
}

Status Table::Validate() const {
  for (size_t i = 0; i < records.size(); ++i) {
    if (records[i].size() != attribute_names.size()) {
      return Status::InvalidArgument("record " + std::to_string(i) + " has " +
                                     std::to_string(records[i].size()) + " values, expected " +
                                     std::to_string(attribute_names.size()));
    }
  }
  if (!sources.empty() && sources.size() != records.size()) {
    return Status::InvalidArgument("sources size must match record count");
  }
  return Status::OK();
}

bool Dataset::Admissible(uint32_t a, uint32_t b) const {
  if (a == b) return false;
  if (table.sources.empty()) return true;
  return table.sources[a] != table.sources[b];
}

uint64_t Dataset::CountMatchingPairs() const {
  // Group records by entity, then count admissible pairs inside each group.
  std::unordered_map<uint32_t, std::vector<uint32_t>> groups;
  for (uint32_t r = 0; r < truth.entity_of.size(); ++r) {
    groups[truth.entity_of[r]].push_back(r);
  }
  uint64_t count = 0;
  for (const auto& [entity, members] : groups) {
    for (size_t i = 0; i < members.size(); ++i) {
      for (size_t j = i + 1; j < members.size(); ++j) {
        if (Admissible(members[i], members[j])) ++count;
      }
    }
  }
  return count;
}

uint64_t Dataset::CountAdmissiblePairs() const {
  const uint64_t n = table.num_records();
  if (table.sources.empty()) return n * (n - 1) / 2;
  std::unordered_map<int, uint64_t> per_source;
  for (int s : table.sources) ++per_source[s];
  uint64_t total = n * (n - 1) / 2;
  for (const auto& [source, count] : per_source) {
    total -= count * (count - 1) / 2;  // same-source pairs are inadmissible
  }
  return total;
}

Status Dataset::Validate() const {
  CROWDER_RETURN_NOT_OK(table.Validate());
  if (truth.entity_of.size() != table.num_records()) {
    return Status::InvalidArgument("entity_of size (" + std::to_string(truth.entity_of.size()) +
                                   ") must match record count (" +
                                   std::to_string(table.num_records()) + ")");
  }
  return Status::OK();
}

Status WriteDatasetCsv(const Dataset& dataset, const std::string& path) {
  CROWDER_RETURN_NOT_OK(dataset.Validate());
  std::vector<std::string> header = dataset.table.attribute_names;
  header.push_back("__source");
  header.push_back("__entity");
  std::vector<std::vector<std::string>> rows;
  rows.reserve(dataset.table.num_records());
  for (uint32_t r = 0; r < dataset.table.num_records(); ++r) {
    std::vector<std::string> row = dataset.table.records[r];
    row.push_back(dataset.table.sources.empty() ? "0"
                                                : std::to_string(dataset.table.sources[r]));
    row.push_back(std::to_string(dataset.truth.entity_of[r]));
    rows.push_back(std::move(row));
  }
  return WriteCsvFile(path, header, rows);
}

Result<Dataset> ReadDatasetCsv(const std::string& path, const std::string& name) {
  CROWDER_ASSIGN_OR_RETURN(CsvTable csv, ReadCsvFile(path));
  const int source_col = csv.ColumnIndex("__source");
  const int entity_col = csv.ColumnIndex("__entity");
  if (source_col < 0 || entity_col < 0) {
    return Status::InvalidArgument("dataset CSV must have __source and __entity columns");
  }

  Dataset dataset;
  dataset.name = name;
  for (size_t c = 0; c < csv.header.size(); ++c) {
    if (static_cast<int>(c) != source_col && static_cast<int>(c) != entity_col) {
      dataset.table.attribute_names.push_back(csv.header[c]);
    }
  }
  bool multi_source = false;
  for (size_t i = 0; i < csv.rows.size(); ++i) {
    const std::vector<std::string>& row = csv.rows[i];
    const Result<int> src = ParseNumber<int>(row[static_cast<size_t>(source_col)], "__source");
    const Result<uint32_t> entity =
        ParseNumber<uint32_t>(row[static_cast<size_t>(entity_col)], "__entity");
    if (!src.ok() || !entity.ok()) {
      // Numbered as ParseCsv numbers rows: the header is row 0.
      return Status::InvalidArgument("row " + std::to_string(i + 1) + ", column " +
                                     (src.ok() ? entity.status() : src.status()).message());
    }
    std::vector<std::string> rec;
    for (size_t c = 0; c < row.size(); ++c) {
      if (static_cast<int>(c) != source_col && static_cast<int>(c) != entity_col) {
        rec.push_back(row[c]);
      }
    }
    dataset.table.records.push_back(std::move(rec));
    dataset.table.sources.push_back(*src);
    if (*src != 0) multi_source = true;
    dataset.truth.entity_of.push_back(*entity);
  }
  if (!multi_source) dataset.table.sources.clear();
  CROWDER_RETURN_NOT_OK(dataset.Validate());
  return dataset;
}

}  // namespace data
}  // namespace crowder
