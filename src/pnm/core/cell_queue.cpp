#include "pnm/core/cell_queue.hpp"

#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <optional>

#include "pnm/util/fileio.hpp"

namespace pnm {
namespace {

void require_store_dir(const std::string& store_dir, const char* who) {
  if (store_dir.empty()) {
    throw std::invalid_argument(std::string(who) +
                                ": a store_dir is required — the claim files, cell "
                                "results, and eval stores all live there");
  }
}

std::string cell_path(const std::string& store_dir, const CellLayout& layout,
                      const CellRef& cell) {
  return store_dir + "/" + layout.cells + "/" + cell.id + layout.extension;
}

bool published(const std::string& path, const CellRef& cell, const CellParse& parse) {
  const std::optional<std::string> text = read_text_file(path);
  return text && parse(*text, cell.fingerprint);
}

}  // namespace

CampaignWorkerResult run_cell_worker(const std::string& store_dir,
                                     const CellLayout& layout,
                                     const std::vector<CellRef>& cells,
                                     std::size_t shard_id, std::size_t num_shards,
                                     const CellRun& run, const CellParse& parse) {
  require_store_dir(store_dir, "run_cell_worker");
  if (num_shards == 0 || shard_id >= num_shards) {
    throw std::invalid_argument(
        "run_cell_worker: need num_shards >= 1 and shard_id < num_shards");
  }
  const auto start = std::chrono::steady_clock::now();
  const std::string claims_dir = store_dir + "/" + layout.claims;
  if (!create_directories(claims_dir) ||
      !create_directories(store_dir + "/" + layout.cells)) {
    throw std::runtime_error("run_cell_worker: cannot create " + store_dir + "/{" +
                             layout.claims + "," + layout.cells + "}");
  }

  CampaignWorkerResult out;
  for (std::size_t index = 0; index < cells.size(); ++index) {
    const CellRef& cell = cells[index];
    if (index % num_shards != shard_id) {
      ++out.cells_skipped_other_shard;
      continue;
    }
    const std::string path = cell_path(store_dir, layout, cell);
    if (published(path, cell, parse)) {
      ++out.cells_skipped_done;
      continue;
    }
    const std::optional<FileLock> claim =
        FileLock::try_exclusive(claims_dir + "/" + cell.id + ".claim");
    if (!claim) {
      // A *live* process holds the claim (a dead one's flock would have
      // been released by the kernel); it will publish the cell itself.
      ++out.cells_skipped_claimed;
      continue;
    }
    if (published(path, cell, parse)) {
      // Raced: the previous owner published between our check and our
      // claim.  Nothing to recompute.
      ++out.cells_skipped_done;
      continue;
    }
    if (!write_text_file_atomic(path, run(index, cell.fingerprint))) {
      throw std::runtime_error("run_cell_worker: cannot publish cell result " + path);
    }
    ++out.cells_run;
  }
  out.seconds = std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                              start)
                    .count();
  return out;
}

bool collect_cells(const std::string& store_dir, const CellLayout& layout,
                   const std::vector<CellRef>& cells, const CellParse& parse) {
  require_store_dir(store_dir, "collect_cells");
  for (const CellRef& cell : cells) {
    if (!published(cell_path(store_dir, layout, cell), cell, parse)) return false;
  }
  return true;
}

bool run_worker_processes(std::size_t n, const std::function<int(std::size_t)>& pass) {
  // Unflushed output would otherwise be written once by this process and
  // once more by every child.
  std::fflush(nullptr);
  bool ok = true;
  std::vector<pid_t> children;
  for (std::size_t j = 0; j < n; ++j) {
    const pid_t pid = fork();
    if (pid < 0) {
      std::perror("fork");
      ok = false;
      break;  // still wait for the children already started
    }
    if (pid == 0) {
      // A child must report and _exit, never unwind into its caller.
      int status = EXIT_FAILURE;
      try {
        status = pass(j);
      } catch (const std::exception& e) {
        std::fprintf(stderr, "worker %zu: error: %s\n", j, e.what());
      } catch (...) {
        std::fprintf(stderr, "worker %zu: unknown error\n", j);
      }
      std::fflush(nullptr);
      _exit(status);
    }
    children.push_back(pid);
  }
  for (const pid_t pid : children) {
    int status = 0;
    pid_t waited = 0;
    do {
      waited = waitpid(pid, &status, 0);
    } while (waited < 0 && errno == EINTR);
    if (waited < 0 || !WIFEXITED(status) || WEXITSTATUS(status) != EXIT_SUCCESS) {
      ok = false;
    }
  }
  return ok;
}

}  // namespace pnm
