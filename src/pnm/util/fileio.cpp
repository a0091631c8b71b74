#include "pnm/util/fileio.hpp"

#include <fcntl.h>
#include <sys/file.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <limits>
#include <sstream>
#include <utility>

namespace pnm {

std::optional<std::string> read_text_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return std::nullopt;
  std::ostringstream buffer;
  buffer << in.rdbuf();
  if (in.bad()) return std::nullopt;
  return buffer.str();
}

bool write_text_file_atomic(const std::string& path, std::string_view content) {
  const std::string tmp = path + ".tmp";
  {
    std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
    if (!out) return false;
    out.write(content.data(), static_cast<std::streamsize>(content.size()));
    out.flush();
    if (!out) {
      std::remove(tmp.c_str());
      return false;
    }
  }
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    std::remove(tmp.c_str());
    return false;
  }
  return true;
}

std::string format_double_roundtrip(double v) {
  std::ostringstream out;
  out.imbue(std::locale::classic());
  out.precision(std::numeric_limits<double>::max_digits10);
  out << v;
  return out.str();
}

std::optional<double> parse_double_strict(std::string_view token) {
  if (token.empty()) return std::nullopt;
  // Non-finite spellings first: ostream prints them, but istream >> double
  // refuses to parse them back.
  if (token == "inf") return std::numeric_limits<double>::infinity();
  if (token == "-inf") return -std::numeric_limits<double>::infinity();
  if (token == "nan" || token == "-nan") {
    return std::numeric_limits<double>::quiet_NaN();
  }
  // istream extraction skips leading whitespace; a stored field never
  // legitimately has any, so treat it as corruption instead.
  if (token.find_first_of(" \t\n\r") != std::string_view::npos) return std::nullopt;
  // Requiring EOF after the extraction rejects trailing garbage.
  std::istringstream in{std::string(token)};
  in.imbue(std::locale::classic());
  double value = 0.0;
  in >> value;
  if (in.fail()) return std::nullopt;
  in.peek();
  if (!in.eof()) return std::nullopt;
  return value;
}

std::vector<std::string_view> split_fields(std::string_view text, char sep) {
  std::vector<std::string_view> fields;
  std::size_t start = 0;
  while (true) {
    const std::size_t pos = text.find(sep, start);
    if (pos == std::string_view::npos) {
      fields.push_back(text.substr(start));
      return fields;
    }
    fields.push_back(text.substr(start, pos - start));
    start = pos + 1;
  }
}

std::vector<std::string_view> split_lines(std::string_view text) {
  std::vector<std::string_view> lines = split_fields(text, '\n');
  if (!lines.empty() && lines.back().empty()) lines.pop_back();
  return lines;
}

std::optional<std::uint64_t> parse_u64_strict(std::string_view token) {
  if (token.empty()) return std::nullopt;
  std::uint64_t value = 0;
  for (char ch : token) {
    if (ch < '0' || ch > '9') return std::nullopt;
    const std::uint64_t digit = static_cast<std::uint64_t>(ch - '0');
    if (value > (std::numeric_limits<std::uint64_t>::max() - digit) / 10) {
      return std::nullopt;  // would overflow
    }
    value = value * 10 + digit;
  }
  return value;
}

std::optional<std::size_t> parse_size_strict(std::string_view token) {
  const std::optional<std::uint64_t> v = parse_u64_strict(token);
  if (!v || *v > std::numeric_limits<std::size_t>::max()) return std::nullopt;
  return static_cast<std::size_t>(*v);
}

std::uint64_t fnv1a64(std::string_view s) {
  std::uint64_t h = 1469598103934665603ULL;
  for (char ch : s) {
    h ^= static_cast<std::uint64_t>(static_cast<unsigned char>(ch));
    h *= 1099511628211ULL;
  }
  return h;
}

std::string fnv1a64_hex(std::string_view s) {
  static constexpr char kDigits[] = "0123456789abcdef";
  std::uint64_t h = fnv1a64(s);
  std::string hex(16, '0');
  for (int i = 15; i >= 0; --i) {
    hex[static_cast<std::size_t>(i)] = kDigits[h & 0xF];
    h >>= 4;
  }
  return hex;
}

void append_kv(std::string& out, const char* key, const std::string& value) {
  out += key;
  out += '=';
  out += value;
  out += ';';
}

std::string json_escape(std::string_view s) {
  std::string out;
  out.reserve(s.size());
  for (char ch : s) {
    switch (ch) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(ch) < 0x20) {
          static constexpr char kDigits[] = "0123456789abcdef";
          out += "\\u00";
          out += kDigits[(static_cast<unsigned char>(ch) >> 4) & 0xF];
          out += kDigits[static_cast<unsigned char>(ch) & 0xF];
        } else {
          out += ch;
        }
    }
  }
  return out;
}

std::string json_number(double v) {
  return std::isfinite(v) ? format_double_roundtrip(v) : "null";
}

bool create_directories(const std::string& path) {
  std::error_code ec;
  std::filesystem::create_directories(path, ec);
  // create_directories returns false (no error) when the directory is
  // already there; what callers care about is "does it exist now".
  return !ec && std::filesystem::is_directory(path, ec) && !ec;
}

bool path_is_regular_file(const std::string& path) {
  std::error_code ec;
  return std::filesystem::is_regular_file(path, ec) && !ec;
}

std::vector<std::string> list_files(const std::string& dir,
                                    std::string_view prefix,
                                    std::string_view suffix) {
  std::vector<std::string> names;
  std::error_code ec;
  std::filesystem::directory_iterator it(dir, ec);
  if (ec) return names;
  for (const std::filesystem::directory_entry& entry : it) {
    if (!entry.is_regular_file(ec) || ec) continue;
    const std::string name = entry.path().filename().string();
    if (name.size() < prefix.size() + suffix.size()) continue;
    if (name.compare(0, prefix.size(), prefix) != 0) continue;
    if (name.compare(name.size() - suffix.size(), suffix.size(), suffix) != 0) {
      continue;
    }
    names.push_back(name);
  }
  std::sort(names.begin(), names.end());
  return names;
}

// ---- FileLock -----------------------------------------------------------

FileLock::FileLock(FileLock&& other) noexcept
    : fd_(std::exchange(other.fd_, -1)), path_(std::move(other.path_)) {
  other.path_.clear();
}

FileLock& FileLock::operator=(FileLock&& other) noexcept {
  if (this != &other) {
    unlock();
    fd_ = std::exchange(other.fd_, -1);
    path_ = std::move(other.path_);
    other.path_.clear();
  }
  return *this;
}

FileLock::~FileLock() { unlock(); }

std::optional<FileLock> FileLock::try_exclusive(const std::string& path) {
  const int fd = ::open(path.c_str(), O_CREAT | O_RDWR | O_CLOEXEC, 0644);
  if (fd < 0) return std::nullopt;
  if (::flock(fd, LOCK_EX | LOCK_NB) != 0) {
    ::close(fd);
    return std::nullopt;
  }
  return FileLock(fd, path);
}

void FileLock::unlock() {
  if (fd_ >= 0) {
    // Closing the descriptor releases the flock; no explicit LOCK_UN
    // needed.  The lock file itself is left in place on purpose: it is
    // the stable inode every future writer locks against.
    ::close(fd_);
    fd_ = -1;
  }
}

}  // namespace pnm
