#ifndef PNM_CORE_EVAL_STORE_HPP
#define PNM_CORE_EVAL_STORE_HPP

/// \file eval_store.hpp
/// \brief Persistent, crash-safe, multi-process-safe backing store for
///        evaluation results: a sharded append-only on-disk record of
///        genome key -> DesignPoint.
///
/// Every pipeline evaluation is deterministic in (prepared state, config,
/// genome) and keyed by the stable Genome::key() string, so its result
/// can outlive the process: a store preloads a CachedEvaluator at
/// construction and receives every fresh miss as an appended record,
/// turning repeated GA runs, parameter sweeps, and resumed or *sharded*
/// campaigns from recompute-everything into mostly cache hits — with
/// results guaranteed byte-identical to a cold run (doubles round-trip
/// through text exactly; see pnm/util/fileio.hpp).
///
/// On-disk layout (v2, a *segment directory*):
///
///     <store>/
///       seg-0.log     pnm-eval-store v2 <fingerprint>
///                     <key> \t <technique> \t <config> \t <acc> \t <area> \t <power> \t <delay>
///                     ...
///       seg-0.lock    advisory flock guarding seg-0.log
///       seg-1.log     another writer's segment (same format)
///       seg-1.lock
///
/// Each concurrent writer *process* owns exactly one segment: at
/// construction the store probes segment ids starting from the caller's
/// preferred `writer_id` and claims the first whose `.lock` it can flock
/// exclusively (a held lock means a live writer owns that segment, so
/// the prober simply moves on — contention never blocks progress).  All
/// appends go to the owned segment only; every other segment is read,
/// never written, so N processes share one store with no write races at
/// all.  Locks die with their process (kernel guarantee), so a crashed
/// writer's segment is reclaimable immediately.
///
/// Safety properties:
///   * append-only + per-record flush: a crash loses at most the record
///     being written, never previously stored ones;
///   * a truncated or otherwise corrupt line is dropped (and counted) at
///     load; the *owned* segment is then compacted atomically (foreign
///     segments are left for their owner to heal — rewriting a file
///     another process is appending to would lose records);
///   * preload merges every segment in sorted segment order with
///     last-write-wins on identical keys (duplicates across segments can
///     only arise from two processes racing the same genome; evaluations
///     are deterministic, so the colliding values are identical — the
///     rule just makes the merge order formally deterministic);
///   * the header is versioned: a segment with a different format
///     version is rejected (std::runtime_error) rather than guessed at, and
///     a regular file where the directory belongs is refused untouched;
///   * the header carries the caller's config fingerprint: results from
///     a different dataset/config/backend are never loaded — a
///     fingerprint-mismatched segment is invalidated (and deleted when
///     its lock is free; a config change invalidates the cache, by
///     design);
///   * all member functions are thread-safe (one internal mutex), so the
///     store can back a CachedEvaluator shared by a thread pool.

#include <cstddef>
#include <fstream>
#include <mutex>
#include <optional>
#include <string>
#include <string_view>
#include <unordered_map>
#include <utility>
#include <vector>

#include "pnm/core/pareto.hpp"
#include "pnm/util/fileio.hpp"

namespace pnm {

/// Serializes one store record (also reused by the cell runner's
/// published cell files, which store DesignPoints in the same shape).
///
/// \param key    record key (tab/newline-free, non-empty).
/// \param point  the evaluated design to serialize.
/// \return one record line, terminated by '\n'.
std::string format_eval_record(const std::string& key, const DesignPoint& point);

/// Parses one record line previously written by format_eval_record().
///
/// \param line   the line without its trailing newline.
/// \param key    receives the record key on success.
/// \param point  receives the design point on success.
/// \return false when the line is malformed (wrong field count, empty
///         key, unparseable double) — the caller drops and counts it.
bool parse_eval_record(std::string_view line, std::string& key, DesignPoint& point);

/// Sharded append-only persistent map from evaluation key to DesignPoint.
class EvalStore {
 public:
  /// On-disk format version; bumped on any incompatible layout change.
  /// v2 is the segment-directory layout.
  static constexpr int kFormatVersion = 2;

  /// Opens (creating if absent) the segment directory at `dir` for the
  /// given config fingerprint, claims a segment for this process, and
  /// loads every valid record from every segment.
  ///
  /// \param dir          store directory; created (with parents) if
  ///                     missing.
  /// \param fingerprint  opaque identity of the evaluation context
  ///                     (dataset/config/backend; see eval_fingerprint()
  ///                     in pnm/core/campaign.hpp).  Must be one
  ///                     whitespace-free token.
  /// \param writer_id    preferred segment id for this writer.  If that
  ///                     segment's lock is held by a live process, the
  ///                     next free id is claimed instead (see
  ///                     writer_id() for the one actually owned).
  /// \throws std::runtime_error  if an existing segment is not an eval
  ///                     store or carries an unsupported format version,
  ///                     or the directory/segment cannot be created (a
  ///                     regular file at `dir` is left untouched).
  /// \throws std::invalid_argument  if `fingerprint` is empty or
  ///                     contains whitespace.
  EvalStore(std::string dir, std::string fingerprint, std::size_t writer_id = 0);

  /// Looks up a previously stored result.
  /// \param key  the evaluation key (Genome::key()).
  /// \return the stored design point; std::nullopt on miss.
  [[nodiscard]] std::optional<DesignPoint> lookup(const std::string& key) const;

  /// Stores one result and appends + flushes it to this writer's segment.
  /// A key already present (loaded from any segment, or put earlier) is
  /// ignored: evaluations are deterministic, so the stored record is
  /// already the correct one.
  ///
  /// \param key    the evaluation key; must be non-empty and free of
  ///               tabs and newlines (Genome::key() always is).
  /// \param point  the result; technique/config must be tab/newline-free.
  /// \throws std::invalid_argument  on a malformed key or point.
  /// \throws std::runtime_error  if the record cannot be written to disk
  ///         (full disk, deleted directory, lost permissions) — a silent
  ///         failure here would defeat the store's purpose, so a result
  ///         that cannot be persisted is not held in memory either.
  void put(const std::string& key, const DesignPoint& point);

  /// All records in the merged view, sorted by key (deterministic
  /// iteration for preloads and reports).
  /// \return key -> DesignPoint pairs in ascending key order.
  [[nodiscard]] std::vector<std::pair<std::string, DesignPoint>> entries() const;

  /// Number of distinct records currently held (loaded + freshly put).
  /// \return the merged record count.
  [[nodiscard]] std::size_t size() const;

  /// Distinct records loaded from disk (all segments) at construction.
  /// \return the preload count.
  [[nodiscard]] std::size_t loaded() const;

  /// Malformed or truncated lines dropped at construction.  The owned
  /// segment is compacted after such a load, so reopening the same
  /// writer id reports 0 for it.
  /// \return dropped-line count across all segments.
  [[nodiscard]] std::size_t corrupt_dropped() const;

  /// Records discarded at construction because an on-disk fingerprint
  /// did not match the caller's (config-change invalidation).
  /// \return invalidated-record count across segments.
  [[nodiscard]] std::size_t invalidated() const;

  /// Records skipped at preload because their key was already present
  /// (last-write-wins merge).  Nonzero only when two writers raced the
  /// same genome — the cell scheduler's claim protocol keeps this at 0,
  /// and tests/core_campaign_test.cpp's two-process test fails if a
  /// shared store ever holds one (count_duplicate_records()).
  /// \return duplicate-record count observed during preload.
  [[nodiscard]] std::size_t duplicates() const;

  /// Segments (with matching fingerprint) read at construction,
  /// including this writer's own (when it existed).
  /// \return loaded segment count.
  [[nodiscard]] std::size_t segments_loaded() const;

  /// The segment id this writer actually owns (>= the constructor's
  /// preferred id; larger when that segment was held by a live writer).
  /// \return the owned segment id.
  [[nodiscard]] std::size_t writer_id() const { return writer_id_; }

  /// \return the store directory path.
  [[nodiscard]] const std::string& path() const { return dir_; }
  /// \return this writer's segment file path (inside path()).
  [[nodiscard]] const std::string& segment_path() const { return segment_path_; }
  /// \return the caller's config fingerprint.
  [[nodiscard]] const std::string& fingerprint() const { return fingerprint_; }

  /// Scans every segment of the store at `dir` and counts records whose
  /// key was already seen in the scan — the "duplicate evaluations
  /// recorded" number the sharding benchmark gates on.  Works without
  /// knowing the fingerprint and takes no locks (read-only).
  ///
  /// \param dir  store directory to scan.
  /// \return duplicate record count (0 for a missing/empty directory).
  static std::size_t count_duplicate_records(const std::string& dir);

 private:
  /// The owned segment as loaded: its records in append order (a
  /// rewritten key keeps its first position and its last value), which is
  /// what compaction writes, and whether the file needs that rewrite.
  struct OwnSegment {
    std::unordered_map<std::string, DesignPoint> records;
    std::vector<std::string> order;
    bool needs_compaction = false;
  };

  void acquire_segment(std::size_t preferred_id);
  [[nodiscard]] OwnSegment load_segments();
  void compact_own_segment(const OwnSegment& own);
  [[nodiscard]] std::string header_line() const;
  [[nodiscard]] std::string segment_file(std::size_t id) const;
  [[nodiscard]] std::string segment_lock(std::size_t id) const;

  std::string dir_;
  std::string fingerprint_;
  std::size_t writer_id_ = 0;
  std::string segment_path_;
  /// Exclusive advisory lock on the owned segment, held for the store's
  /// lifetime; released automatically if this process dies.
  FileLock lock_;
  /// Held open for the store's lifetime (reopening per record would put
  /// an open/close syscall pair on every fresh evaluation); writes are
  /// serialized by mutex_.
  std::ofstream append_;
  mutable std::mutex mutex_;
  /// Merged view across all segments (last-write-wins at load).
  std::unordered_map<std::string, DesignPoint> records_;
  std::size_t loaded_ = 0;
  std::size_t corrupt_dropped_ = 0;
  std::size_t invalidated_ = 0;
  std::size_t duplicates_ = 0;
  std::size_t segments_loaded_ = 0;
};

}  // namespace pnm

#endif  // PNM_CORE_EVAL_STORE_HPP
