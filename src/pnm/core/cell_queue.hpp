#ifndef PNM_CORE_CELL_QUEUE_HPP
#define PNM_CORE_CELL_QUEUE_HPP

/// \file cell_queue.hpp
/// \brief The cross-process cell scheduler behind the GA cell runner
///        (pnm/core/scenario.hpp, which runs campaigns and scenario
///        grids): claim -> re-check -> run -> atomic publish, the collect
///        loop, and the fork/wait helper for local worker processes.
///
/// A *cell* is one deterministic unit of work (a grid point; a
/// campaign's (dataset, seed) pair is one) identified by a file-name-safe
/// id and a fingerprint of everything that shapes its result.  A cell
/// family keeps its files under a store directory in its layout:
///
///     <store>/<claims>/<id>.claim         flock = cell ownership
///     <store>/<cells>/<id><extension>     published result (atomic)
///
/// A worker pass walks the cells in order, skips those outside its static
/// shard, those already published under the current fingerprint, and
/// those whose claim a *live* process holds; it claims the rest, re-checks
/// for a result published in the meantime, runs the cell, and publishes
/// its text with write_text_file_atomic.  A crashed worker's claim is
/// released by the kernel with its process, so the next pass recomputes
/// the unpublished cell — no leases, no timeouts.  Because cells are
/// deterministic, any number of workers, on one machine or on hosts
/// sharing a filesystem with working flock() semantics (local disks,
/// NFSv4-class mounts), publish the bytes a serial run would compute.
///
/// The scheduler knows nothing about cell contents: each family supplies
/// the ids, the fingerprints, a run-and-format step that returns the file
/// text, and a parse step that accepts only complete, current text.

#include <cstddef>
#include <functional>
#include <stdexcept>
#include <string>
#include <string_view>
#include <unordered_set>
#include <vector>

namespace pnm {

/// Validates one axis of a cell grid spec: the list must be non-empty and
/// duplicate-free, or two cells would share one id.
///
/// \param values  the axis values.
/// \param spec    spec type named in the message, e.g. "ScenarioSpec".
/// \param what    axis named in the message, e.g. "seed".
/// \throws std::invalid_argument  on an empty or duplicated list.
template <typename T>
void require_unique_nonempty(const std::vector<T>& values, const char* spec,
                             const char* what) {
  if (values.empty()) {
    throw std::invalid_argument(std::string(spec) + ": " + what +
                                " list must be non-empty");
  }
  std::unordered_set<T> seen;
  for (const T& v : values) {
    if (!seen.insert(v).second) {
      throw std::invalid_argument(std::string(spec) + ": duplicate " + what);
    }
  }
}

/// Where one cell family's files live under a store directory.
struct CellLayout {
  const char* claims;     ///< claim-file subdirectory, e.g. "sclaims"
  const char* cells;      ///< published-result subdirectory, e.g. "scells"
  const char* extension;  ///< published-file suffix, e.g. ".scell"
};

/// One schedulable cell.
struct CellRef {
  std::string id;           ///< file-name stem, unique within the family
  std::string fingerprint;  ///< identity a published file must carry
};

/// Runs cell `index` and returns the text to publish for it, stamped with
/// `fingerprint`.
using CellRun =
    std::function<std::string(std::size_t index, const std::string& fingerprint)>;

/// Parses the text of a published cell file.  Must return false for
/// malformed or truncated text and for text stamped with a different
/// fingerprint — the scheduler treats all three as "not done yet".
using CellParse =
    std::function<bool(std::string_view text, const std::string& fingerprint)>;

/// Outcome of one worker pass over a family's cells.
struct CampaignWorkerResult {
  std::size_t cells_run = 0;            ///< claimed, computed, published
  std::size_t cells_skipped_done = 0;   ///< already published (valid file)
  std::size_t cells_skipped_claimed = 0;  ///< held by another live worker
  std::size_t cells_skipped_other_shard = 0;  ///< outside this static shard
  double seconds = 0.0;                 ///< wall time of the pass
};

/// One work-queue pass over `cells` (see the file comment).  With
/// `num_shards > 1` the pass only considers cells whose index modulo
/// `num_shards` equals `shard_id` (static sharding: shards never contend).
///
/// \param store_dir   root of the family's files; must be non-empty.
/// \param layout      the family's claim/result subdirectories.
/// \param cells       every cell of the family, in canonical order.
/// \param shard_id    this worker's static shard (< num_shards).
/// \param num_shards  static shard count; 1 = pure dynamic claiming.
/// \param run         computes one claimed cell's file text.
/// \param parse       accepts a complete, current published file.
/// \return per-pass counters (cells run / skipped and why).
/// \throws std::invalid_argument  when store_dir is empty, num_shards is
///         0, or shard_id >= num_shards.
/// \throws std::runtime_error  when the subdirectories cannot be created
///         or a computed cell cannot be published.
CampaignWorkerResult run_cell_worker(const std::string& store_dir,
                                     const CellLayout& layout,
                                     const std::vector<CellRef>& cells,
                                     std::size_t shard_id, std::size_t num_shards,
                                     const CellRun& run, const CellParse& parse);

/// Reads every cell's published file, in order, through `parse` (which
/// keeps what it accepts).  Stops at the first cell that is missing or
/// rejected.
///
/// \param store_dir  root of the family's files; must be non-empty.
/// \param layout     the family's claim/result subdirectories.
/// \param cells      every cell of the family, in canonical order.
/// \param parse      accepts (and records) a complete, current file.
/// \return true when every cell was accepted.
/// \throws std::invalid_argument  when store_dir is empty.
bool collect_cells(const std::string& store_dir, const CellLayout& layout,
                   const std::vector<CellRef>& cells, const CellParse& parse);

/// Forks `n` worker processes; child j runs `pass(j)` and _exits with its
/// return value (an exception escaping `pass` is reported on stderr and
/// becomes status 1).  Waits for every child it started, including when a
/// later fork fails.  Call it before this process starts any thread (no
/// thread pool may cross a fork).
///
/// \param n     number of worker processes.
/// \param pass  the work of one child, given its index.
/// \return true when all `n` children were started and exited with
///         status 0.
bool run_worker_processes(std::size_t n, const std::function<int(std::size_t)>& pass);

}  // namespace pnm

#endif  // PNM_CORE_CELL_QUEUE_HPP
