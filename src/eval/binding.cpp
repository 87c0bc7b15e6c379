#include "eval/binding.h"

#include <algorithm>
#include <map>

namespace sparqlog::eval {

uint32_t VarTable::SlotOf(const std::string& name) {
  auto it = index_.find(name);
  if (it != index_.end()) return it->second;
  uint32_t slot = static_cast<uint32_t>(names_.size());
  names_.push_back(name);
  index_.emplace(name, slot);
  return slot;
}

uint32_t VarTable::Find(const std::string& name) const {
  auto it = index_.find(name);
  return it == index_.end() ? UINT32_MAX : it->second;
}

bool Compatible(const Solution& a, const Solution& b) {
  size_t n = std::min(a.size(), b.size());
  for (size_t i = 0; i < n; ++i) {
    if (a[i] != rdf::TermDictionary::kUndef &&
        b[i] != rdf::TermDictionary::kUndef && a[i] != b[i]) {
      return false;
    }
  }
  return true;
}

bool DisjointDomains(const Solution& a, const Solution& b) {
  size_t n = std::min(a.size(), b.size());
  for (size_t i = 0; i < n; ++i) {
    if (a[i] != rdf::TermDictionary::kUndef &&
        b[i] != rdf::TermDictionary::kUndef) {
      return false;
    }
  }
  return true;
}

std::vector<std::vector<rdf::TermId>> QueryResult::SortedRows() const {
  auto out = rows;
  std::sort(out.begin(), out.end());
  return out;
}

bool QueryResult::SameSolutions(const QueryResult& other) const {
  if (is_ask || other.is_ask) {
    return is_ask == other.is_ask && ask_value == other.ask_value;
  }
  return SortedRows() == other.SortedRows();
}

bool QueryResult::SubsetOf(const QueryResult& other) const {
  if (is_ask || other.is_ask) {
    return is_ask == other.is_ask && ask_value == other.ask_value;
  }
  std::map<std::vector<rdf::TermId>, int> counts;
  for (const auto& r : other.rows) ++counts[r];
  for (const auto& r : rows) {
    auto it = counts.find(r);
    if (it == counts.end() || it->second == 0) return false;
    --it->second;
  }
  return true;
}

std::string QueryResult::ToString(const rdf::TermDictionary& dict,
                                  size_t max_rows) const {
  if (is_ask) return ask_value ? "ASK -> true\n" : "ASK -> false\n";
  std::string out;
  for (size_t i = 0; i < columns.size(); ++i) {
    if (i > 0) out += " | ";
    out += "?" + columns[i];
  }
  out += "\n";
  size_t shown = 0;
  for (const auto& row : rows) {
    if (shown++ >= max_rows) {
      out += "... (" + std::to_string(rows.size()) + " rows total)\n";
      break;
    }
    for (size_t i = 0; i < row.size(); ++i) {
      if (i > 0) out += " | ";
      out += row[i] == rdf::TermDictionary::kUndef ? "UNDEF"
                                                   : dict.Render(row[i]);
    }
    out += "\n";
  }
  return out;
}

}  // namespace sparqlog::eval
