#include "pnm/data/csv.hpp"

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <fstream>
#include <istream>
#include <limits>
#include <ostream>
#include <sstream>
#include <stdexcept>

namespace pnm {
namespace {

std::vector<std::string> split_line(const std::string& line, char delimiter) {
  std::vector<std::string> fields;
  std::string cur;
  for (char ch : line) {
    if (ch == delimiter) {
      fields.push_back(cur);
      cur.clear();
    } else {
      cur.push_back(ch);
    }
  }
  fields.push_back(cur);
  return fields;
}

bool parse_double(const std::string& s, double& out) {
  if (s.empty()) return false;
  char* end = nullptr;
  out = std::strtod(s.c_str(), &end);
  while (end && *end == ' ') ++end;
  return end && *end == '\0';
}

std::string trim(const std::string& s) {
  auto b = s.find_first_not_of(" \t\r\n");
  auto e = s.find_last_not_of(" \t\r\n");
  if (b == std::string::npos) return "";
  return s.substr(b, e - b + 1);
}

}  // namespace

CsvLoadResult load_csv(std::istream& in, char delimiter, const std::string& name) {
  CsvLoadResult result;
  result.data.name = name;

  std::vector<std::vector<double>> rows;
  std::vector<long> raw_labels;
  std::string line;
  std::size_t line_no = 0;
  bool first_data_line = true;
  std::size_t n_cols = 0;

  while (std::getline(in, line)) {
    ++line_no;
    const std::string t = trim(line);
    if (t.empty() || t.front() == '#') continue;
    auto fields = split_line(t, delimiter);
    if (fields.size() < 2) {
      throw std::runtime_error("load_csv: line " + std::to_string(line_no) +
                               ": need at least one feature and a label");
    }
    double probe = 0.0;
    if (first_data_line && !parse_double(trim(fields[0]), probe)) {
      first_data_line = false;  // header line, skip it
      continue;
    }
    first_data_line = false;
    if (n_cols == 0) {
      n_cols = fields.size();
    } else if (fields.size() != n_cols) {
      throw std::runtime_error("load_csv: line " + std::to_string(line_no) +
                               ": inconsistent column count");
    }
    std::vector<double> row(n_cols - 1);
    for (std::size_t c = 0; c + 1 < n_cols; ++c) {
      if (!parse_double(trim(fields[c]), row[c])) {
        throw std::runtime_error("load_csv: line " + std::to_string(line_no) +
                                 ": bad numeric field '" + fields[c] + "'");
      }
    }
    double label_d = 0.0;
    if (!parse_double(trim(fields.back()), label_d)) {
      throw std::runtime_error("load_csv: line " + std::to_string(line_no) +
                               ": bad label '" + fields.back() + "'");
    }
    // The cast below is UB for NaN/inf/out-of-range doubles (a label of
    // "1e300" must be a parse error, not undefined behavior), so bound it
    // first.  2^53 is where doubles stop being exact integers anyway.
    if (!std::isfinite(label_d) || std::fabs(label_d) > 9007199254740992.0) {
      throw std::runtime_error("load_csv: line " + std::to_string(line_no) +
                               ": label out of range '" + fields.back() + "'");
    }
    rows.push_back(std::move(row));
    raw_labels.push_back(static_cast<long>(label_d));
  }

  // Dense re-indexing of labels, ascending by original value.
  std::vector<long> distinct = raw_labels;
  std::sort(distinct.begin(), distinct.end());
  distinct.erase(std::unique(distinct.begin(), distinct.end()), distinct.end());
  std::map<long, std::size_t> to_dense;
  for (std::size_t i = 0; i < distinct.size(); ++i) to_dense[distinct[i]] = i;

  result.data.x = std::move(rows);
  result.data.y.reserve(raw_labels.size());
  for (long l : raw_labels) result.data.y.push_back(to_dense[l]);
  result.data.n_classes = distinct.size();
  result.label_values = std::move(distinct);
  result.data.validate();
  return result;
}

CsvLoadResult load_csv_file(const std::string& path, char delimiter) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("load_csv_file: cannot open '" + path + "'");
  return load_csv(in, delimiter, path);
}

void save_csv(const Dataset& data, std::ostream& out, char delimiter) {
  data.validate();
  // Enough digits that load_csv reads back the same doubles.
  out.precision(std::numeric_limits<double>::max_digits10);
  for (std::size_t i = 0; i < data.size(); ++i) {
    for (double v : data.x[i]) out << v << delimiter;
    out << data.y[i] << '\n';
  }
}

}  // namespace pnm
