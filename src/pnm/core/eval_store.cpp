#include "pnm/core/eval_store.hpp"

#include <algorithm>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <stdexcept>
#include <unordered_set>

#include "pnm/util/fileio.hpp"

namespace pnm {
namespace {

constexpr char kMagic[] = "pnm-eval-store";
constexpr std::size_t kRecordFields = 7;
constexpr char kSegmentPrefix[] = "seg-";
constexpr char kSegmentSuffix[] = ".log";
/// Upper bound on segment-id probing; far above any real writer count,
/// it only exists to turn "the directory cannot be opened at all" into
/// an error instead of an infinite probe loop.
constexpr std::size_t kMaxSegmentProbes = 65536;

bool contains_separator(std::string_view s) {
  return s.find('\t') != std::string_view::npos ||
         s.find('\n') != std::string_view::npos ||
         s.find('\r') != std::string_view::npos;
}

/// Parsed "pnm-eval-store v<N> <fingerprint>" header, or nullopt when the
/// line is not an eval-store header at all.
struct Header {
  int version = -1;
  std::string fingerprint;
};

std::optional<Header> parse_header(std::string_view line) {
  const std::vector<std::string_view> tokens = split_fields(line, ' ');
  if (tokens.size() != 3 || tokens[0] != kMagic || tokens[1].size() < 2 ||
      tokens[1][0] != 'v') {
    return std::nullopt;
  }
  // Strict digits only: "v2junk" is a mangled header, not version 2.
  const std::optional<std::uint64_t> version = parse_u64_strict(tokens[1].substr(1));
  if (!version || *version > 1000) return std::nullopt;
  Header header;
  header.version = static_cast<int>(*version);
  header.fingerprint.assign(tokens[2]);
  return header;
}

/// Numeric id of "seg-<N>.log"; nullopt for anything else.
std::optional<std::size_t> segment_id_of(std::string_view name) {
  const std::size_t prefix = sizeof(kSegmentPrefix) - 1;
  const std::size_t suffix = sizeof(kSegmentSuffix) - 1;
  if (name.size() <= prefix + suffix) return std::nullopt;
  const std::optional<std::uint64_t> id =
      parse_u64_strict(name.substr(prefix, name.size() - prefix - suffix));
  if (!id) return std::nullopt;
  return static_cast<std::size_t>(*id);
}

}  // namespace

std::string format_eval_record(const std::string& key, const DesignPoint& point) {
  std::string line = key;
  line += '\t';
  line += point.technique;
  line += '\t';
  line += point.config;
  line += '\t';
  line += format_double_roundtrip(point.accuracy);
  line += '\t';
  line += format_double_roundtrip(point.area_mm2);
  line += '\t';
  line += format_double_roundtrip(point.power_uw);
  line += '\t';
  line += format_double_roundtrip(point.delay_ms);
  line += '\n';
  return line;
}

bool parse_eval_record(std::string_view line, std::string& key, DesignPoint& point) {
  const std::vector<std::string_view> fields = split_fields(line, '\t');
  if (fields.size() != kRecordFields) return false;
  if (fields[0].empty()) return false;
  const auto acc = parse_double_strict(fields[3]);
  const auto area = parse_double_strict(fields[4]);
  const auto power = parse_double_strict(fields[5]);
  const auto delay = parse_double_strict(fields[6]);
  if (!acc || !area || !power || !delay) return false;
  key.assign(fields[0]);
  point.technique.assign(fields[1]);
  point.config.assign(fields[2]);
  point.accuracy = *acc;
  point.area_mm2 = *area;
  point.power_uw = *power;
  point.delay_ms = *delay;
  return true;
}

EvalStore::EvalStore(std::string dir, std::string fingerprint, std::size_t writer_id)
    : dir_(std::move(dir)), fingerprint_(std::move(fingerprint)) {
  if (fingerprint_.empty() || fingerprint_.find_first_of(" \t\n\r") != std::string::npos) {
    throw std::invalid_argument(
        "EvalStore: fingerprint must be one non-empty whitespace-free token");
  }
  // A file in the way (e.g. an old single-file store) fails here and is
  // left untouched.
  if (!create_directories(dir_)) {
    throw std::runtime_error("EvalStore: cannot create store directory " + dir_);
  }
  acquire_segment(writer_id);
  const OwnSegment own = load_segments();
  if (own.needs_compaction || !path_is_regular_file(segment_path_)) {
    compact_own_segment(own);
  }
  append_.open(segment_path_, std::ios::binary | std::ios::app);
  if (!append_) {
    throw std::runtime_error("EvalStore: cannot open " + segment_path_ +
                             " for append");
  }
}

std::string EvalStore::header_line() const {
  return std::string(kMagic) + " v" + std::to_string(kFormatVersion) + " " +
         fingerprint_ + "\n";
}

std::string EvalStore::segment_file(std::size_t id) const {
  return dir_ + "/" + kSegmentPrefix + std::to_string(id) + kSegmentSuffix;
}

std::string EvalStore::segment_lock(std::size_t id) const {
  return dir_ + "/" + kSegmentPrefix + std::to_string(id) + ".lock";
}

void EvalStore::acquire_segment(std::size_t preferred_id) {
  for (std::size_t probe = 0; probe < kMaxSegmentProbes; ++probe) {
    const std::size_t id = preferred_id + probe;
    std::optional<FileLock> lock = FileLock::try_exclusive(segment_lock(id));
    if (lock) {
      lock_ = std::move(*lock);
      writer_id_ = id;
      segment_path_ = segment_file(id);
      return;
    }
  }
  throw std::runtime_error("EvalStore: cannot claim a writer segment in " + dir_);
}

EvalStore::OwnSegment EvalStore::load_segments() {
  OwnSegment own;
  std::vector<std::string> names = list_files(dir_, kSegmentPrefix, kSegmentSuffix);
  // Numeric segment order (seg-2 before seg-10): the deterministic merge
  // order behind last-write-wins.
  std::sort(names.begin(), names.end(), [](const std::string& a, const std::string& b) {
    const auto ia = segment_id_of(a);
    const auto ib = segment_id_of(b);
    if (ia && ib && *ia != *ib) return *ia < *ib;
    if (ia != ib) return ia.has_value();  // well-formed names first
    return a < b;
  });

  for (const std::string& name : names) {
    const std::string path = dir_ + "/" + name;
    const bool is_own = (path == segment_path_);
    const std::optional<std::string> content = read_text_file(path);
    if (!content) continue;  // raced removal by another process
    if (content->empty()) {
      if (is_own) own.needs_compaction = true;
      continue;
    }
    const std::size_t header_end = content->find('\n');
    const std::string_view header_text =
        std::string_view(*content).substr(0, header_end == std::string::npos
                                                 ? content->size()
                                                 : header_end);
    const std::optional<Header> header = parse_header(header_text);
    if (!header) {
      throw std::runtime_error("EvalStore: " + path + " is not an eval-store segment");
    }
    if (header->version != kFormatVersion) {
      throw std::runtime_error("EvalStore: " + path + " is format v" +
                               std::to_string(header->version) +
                               ", this build reads v" +
                               std::to_string(kFormatVersion) +
                               " — refusing to reuse or overwrite it");
    }
    if (header->fingerprint != fingerprint_) {
      // Foreign-config segment: nothing in it may be loaded.  Reclaim the
      // space when no live writer owns it; otherwise just skip — its
      // owner will rewrite it under its own fingerprint.
      if (header_end != std::string::npos) {
        std::string_view body = std::string_view(*content).substr(header_end + 1);
        while (!body.empty()) {
          const std::size_t eol = body.find('\n');
          const std::string_view line = body.substr(0, eol == std::string_view::npos
                                                           ? body.size()
                                                           : eol);
          if (!line.empty()) ++invalidated_;
          if (eol == std::string_view::npos) break;
          body.remove_prefix(eol + 1);
        }
      }
      if (is_own) {
        own.needs_compaction = true;  // rewrite fresh under our fingerprint
      } else {
        const auto id = segment_id_of(name);
        std::optional<FileLock> reaper =
            id ? FileLock::try_exclusive(segment_lock(*id)) : std::nullopt;
        if (reaper) {
          // Between our read and this lock, a short-lived writer may
          // have claimed the segment and rewritten it under the current
          // fingerprint; re-read before deleting anything.
          const std::optional<std::string> now = read_text_file(path);
          const std::optional<Header> now_header =
              now ? parse_header(std::string_view(*now).substr(
                        0, std::min(now->find('\n'), now->size())))
                  : std::nullopt;
          if (now_header && now_header->fingerprint != fingerprint_) {
            std::error_code ec;
            std::filesystem::remove(path, ec);
          }
        }
      }
      continue;
    }

    ++segments_loaded_;
    if (header_end == std::string::npos) {
      // Header without newline: the very first write was torn.
      ++corrupt_dropped_;
      if (is_own) own.needs_compaction = true;
      continue;
    }
    std::string_view body = std::string_view(*content).substr(header_end + 1);
    while (!body.empty()) {
      const std::size_t eol = body.find('\n');
      if (eol == std::string_view::npos) {
        // Trailing record without newline: the write it belonged to was
        // interrupted.  Drop it; compact if it is ours to heal.
        ++corrupt_dropped_;
        if (is_own) own.needs_compaction = true;
        break;
      }
      const std::string_view line = body.substr(0, eol);
      body.remove_prefix(eol + 1);
      if (line.empty()) continue;
      std::string key;
      DesignPoint point;
      if (!parse_eval_record(line, key, point)) {
        ++corrupt_dropped_;
        if (is_own) own.needs_compaction = true;
        continue;
      }
      if (is_own) {
        const auto [it, inserted] = own.records.emplace(key, point);
        if (inserted) {
          own.order.push_back(key);
        } else {
          it->second = point;
          own.needs_compaction = true;
        }
      }
      const auto [it, inserted] = records_.emplace(key, point);
      if (inserted) {
        ++loaded_;
      } else {
        it->second = point;  // last-write-wins across segments
        ++duplicates_;
      }
    }
  }
  return own;
}

void EvalStore::compact_own_segment(const OwnSegment& own) {
  std::string content = header_line();
  for (const std::string& key : own.order) {
    content += format_eval_record(key, own.records.at(key));
  }
  if (!write_text_file_atomic(segment_path_, content)) {
    throw std::runtime_error("EvalStore: cannot rewrite " + segment_path_);
  }
}

std::optional<DesignPoint> EvalStore::lookup(const std::string& key) const {
  std::lock_guard<std::mutex> lock(mutex_);
  const auto it = records_.find(key);
  if (it == records_.end()) return std::nullopt;
  return it->second;
}

void EvalStore::put(const std::string& key, const DesignPoint& point) {
  if (key.empty() || contains_separator(key)) {
    throw std::invalid_argument("EvalStore::put: key must be non-empty, tab/newline-free");
  }
  if (contains_separator(point.technique) || contains_separator(point.config)) {
    throw std::invalid_argument(
        "EvalStore::put: technique/config must be tab/newline-free");
  }
  std::lock_guard<std::mutex> lock(mutex_);
  if (records_.contains(key)) return;  // deterministic duplicate
  // Append + flush one record to the owned segment: a crash can lose at
  // most this line, and a partially written line is dropped (and
  // compacted away) on next load.  A failed write throws — and skips the
  // in-memory insert, so memory never claims a record the disk does not
  // have.
  append_ << format_eval_record(key, point);
  append_.flush();
  if (!append_) {
    throw std::runtime_error("EvalStore: failed to append a record to " +
                             segment_path_);
  }
  records_.emplace(key, point);
}

std::vector<std::pair<std::string, DesignPoint>> EvalStore::entries() const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::vector<std::pair<std::string, DesignPoint>> all(records_.begin(),
                                                       records_.end());
  std::sort(all.begin(), all.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  return all;
}

std::size_t EvalStore::size() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return records_.size();
}

std::size_t EvalStore::loaded() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return loaded_;
}

std::size_t EvalStore::corrupt_dropped() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return corrupt_dropped_;
}

std::size_t EvalStore::invalidated() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return invalidated_;
}

std::size_t EvalStore::duplicates() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return duplicates_;
}

std::size_t EvalStore::segments_loaded() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return segments_loaded_;
}

std::size_t EvalStore::count_duplicate_records(const std::string& dir) {
  std::size_t duplicates = 0;
  std::unordered_set<std::string> seen;  // "<fingerprint>\n<key>"
  for (const std::string& name : list_files(dir, kSegmentPrefix, kSegmentSuffix)) {
    const std::optional<std::string> content = read_text_file(dir + "/" + name);
    if (!content || content->empty()) continue;
    const std::size_t header_end = content->find('\n');
    if (header_end == std::string::npos) continue;
    const std::optional<Header> header =
        parse_header(std::string_view(*content).substr(0, header_end));
    if (!header) continue;
    std::string_view body = std::string_view(*content).substr(header_end + 1);
    while (!body.empty()) {
      const std::size_t eol = body.find('\n');
      if (eol == std::string_view::npos) break;
      const std::string_view line = body.substr(0, eol);
      body.remove_prefix(eol + 1);
      if (line.empty()) continue;
      std::string key;
      DesignPoint point;
      if (!parse_eval_record(line, key, point)) continue;
      if (!seen.insert(header->fingerprint + "\n" + key).second) ++duplicates;
    }
  }
  return duplicates;
}

}  // namespace pnm
