#ifndef PNM_UTIL_FILEIO_HPP
#define PNM_UTIL_FILEIO_HPP

/// \file fileio.hpp
/// \brief Small file + serialization helpers shared by the persistent
///        evaluation store and the campaign report writers.
///
/// Everything the on-disk layer needs reduces to a handful of
/// primitives: read a whole text file, replace a file atomically
/// (write-temp + rename, so a crash never leaves a half-written file
/// under the final name), format a double so it round-trips bit-exactly
/// through text (the byte-identical warm-vs-cold guarantee of the
/// evaluation store depends on this), parse such a double back strictly,
/// and — since the store became multi-process — take an advisory
/// exclusive lock on a file (FileLock) and enumerate/create directories.
/// A stable 64-bit string hash is included for config fingerprints and
/// deterministic file naming.

#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace pnm {

/// Reads an entire file into a string.
///
/// \param path  file to read.
/// \return the full contents; std::nullopt when the file cannot be
///         opened (missing, unreadable).  An empty file yields an empty
///         string.
std::optional<std::string> read_text_file(const std::string& path);

/// Atomically replaces `path` with `content`: writes `path + ".tmp"`,
/// flushes it, then renames over the target.  POSIX rename is atomic, so
/// readers see either the old or the new complete file — never a torn
/// one.
///
/// \param path     final file location.
/// \param content  bytes to store.
/// \return false (leaving any existing file untouched) if the temporary
///         cannot be written or the rename fails.
bool write_text_file_atomic(const std::string& path, std::string_view content);

/// Formats `v` with max_digits10 significant digits (classic-locale "C"
/// formatting, no locale-dependent separators): the shortest standard
/// representation guaranteed to parse back to the identical IEEE-754
/// double.  Inf/NaN render as "inf"/"-inf"/"nan".
///
/// \param v  value to format.
/// \return the round-trip-exact text form.
std::string format_double_roundtrip(double v);

/// Parses a double previously written by format_double_roundtrip()
/// (including the "inf"/"-inf"/"nan" spellings).
///
/// \param token  the exact text of one stored field.
/// \return the value; std::nullopt unless the *entire* token is consumed
///         — trailing garbage, any whitespace, empty input, or
///         out-of-range values all fail, so corrupted store records are
///         detected instead of silently truncated.
std::optional<double> parse_double_strict(std::string_view token);

/// Splits `text` on every occurrence of `sep` (N separators yield N+1
/// fields; adjacent separators yield empty fields).  Views into `text` —
/// the caller keeps the backing string alive.
///
/// \param text  the text to split.
/// \param sep   the separator character.
/// \return the fields, in order; never empty (no separator -> 1 field).
std::vector<std::string_view> split_fields(std::string_view text, char sep);

/// The lines of `text`: split_fields on '\n', except that the trailing
/// newline of a well-formed file does not produce an empty final line.
///
/// \param text  the text to split (views into it are returned).
/// \return the lines, without their newlines.
std::vector<std::string_view> split_lines(std::string_view text);

/// Strict all-digits unsigned parse for stored counters and ids:
/// rejects empty input, any non-digit (sign, whitespace, hex), and
/// values that overflow 64 bits — corrupted fields are detected instead
/// of truncated, mirroring parse_double_strict.
///
/// \param token  the exact text of one stored field.
/// \return the value; std::nullopt on any deviation.
std::optional<std::uint64_t> parse_u64_strict(std::string_view token);

/// parse_u64_strict narrowed to std::size_t (counts, sizes, CLI numbers).
///
/// \param token  the exact text of one field.
/// \return the value; std::nullopt on any deviation or when it does not
///         fit a size_t.
std::optional<std::size_t> parse_size_strict(std::string_view token);

/// FNV-1a 64-bit hash of a byte string.  Stable across platforms and
/// runs (unlike std::hash) — usable as an on-disk fingerprint.
///
/// \param s  bytes to hash.
/// \return the 64-bit FNV-1a hash.
std::uint64_t fnv1a64(std::string_view s);

/// fnv1a64 rendered as 16 lowercase hex digits (fingerprints, filenames).
///
/// \param s  bytes to hash.
/// \return the hash as a fixed-width hex token.
std::string fnv1a64_hex(std::string_view s);

/// Appends one `key=value;` field to the canonical text a fingerprint
/// hashes (fnv1a64_hex over the whole text).
///
/// \param out    canonical text being built.
/// \param key    field name.
/// \param value  field value, already rendered.
void append_kv(std::string& out, const char* key, const std::string& value);

/// Escapes a string for inclusion inside a JSON string literal (quotes,
/// backslashes, control characters).  ASCII-transparent otherwise.
///
/// \param s  raw text.
/// \return the escaped form (without surrounding quotes).
std::string json_escape(std::string_view s);

/// A double as a JSON value: format_double_roundtrip for finite values,
/// `null` for inf/-inf/nan, which JSON cannot represent.
///
/// \param v  value to render.
/// \return the JSON token.
std::string json_number(double v);

/// Creates `path` and any missing parents.
///
/// \param path  directory to create.
/// \return true when the directory exists afterwards (including when it
///         already did); false on failure (e.g. a file in the way).
bool create_directories(const std::string& path);

/// True when `path` names an existing regular file (not a directory).
///
/// \param path  path to test.
/// \return whether a regular file exists there.
bool path_is_regular_file(const std::string& path);

/// Names of the regular files directly inside `dir` whose name starts
/// with `prefix` and ends with `suffix`, sorted lexicographically (a
/// deterministic enumeration order is what makes multi-segment store
/// preloads reproducible).
///
/// \param dir     directory to enumerate (non-recursive).
/// \param prefix  required name prefix ("" matches all).
/// \param suffix  required name suffix ("" matches all).
/// \return sorted file names (not full paths); empty when the directory
///         is missing or unreadable.
std::vector<std::string> list_files(const std::string& dir,
                                    std::string_view prefix,
                                    std::string_view suffix);

/// RAII advisory exclusive file lock (POSIX flock).
///
/// The lock is attached to the open file description, so it is released
/// automatically when the FileLock is destroyed **or when the owning
/// process dies** — that kernel guarantee is what makes crashed store
/// writers and campaign workers recoverable without lease timeouts: a
/// lock that can be acquired is, by definition, not held by any live
/// process.  Advisory means every cooperating writer must go through
/// FileLock; the evaluation store and the campaign claim protocol do.
class FileLock {
 public:
  /// An empty (unlocked) handle.
  FileLock() = default;
  FileLock(FileLock&& other) noexcept;
  FileLock& operator=(FileLock&& other) noexcept;
  FileLock(const FileLock&) = delete;
  FileLock& operator=(const FileLock&) = delete;
  /// Releases the lock (if held).
  ~FileLock();

  /// Tries to take an exclusive, non-blocking advisory lock on `path`,
  /// creating the file if it does not exist.  The lock file's *content*
  /// is never read or written — only its lock state matters — so the
  /// data it guards can be compacted by atomic rename without the lock
  /// ever lapsing.
  ///
  /// \param path  lock-file location (its parent directory must exist).
  /// \return an engaged, locked handle on success; std::nullopt when the
  ///         lock is held by another process (or the file cannot be
  ///         opened) — the caller treats both as "someone else owns it".
  static std::optional<FileLock> try_exclusive(const std::string& path);

  /// Whether this handle currently holds a lock.
  /// \return true for an engaged handle obtained from try_exclusive().
  [[nodiscard]] bool locked() const { return fd_ >= 0; }

  /// The locked file's path ("" for an empty handle).
  /// \return the path passed to try_exclusive().
  [[nodiscard]] const std::string& path() const { return path_; }

  /// Releases the lock early (idempotent; the destructor also does this).
  void unlock();

 private:
  FileLock(int fd, std::string path) : fd_(fd), path_(std::move(path)) {}

  int fd_ = -1;
  std::string path_;
};

}  // namespace pnm

#endif  // PNM_UTIL_FILEIO_HPP
