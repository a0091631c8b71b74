/// Tests for the cell scheduler shared by campaigns and scenario grids,
/// driven through a tiny in-test cell codec (no GA runs): publish and
/// skip-published, live-claim skip and dead-claim reclaim, recompute of
/// stale-fingerprint and truncated files, static-shard partitioning,
/// collect completeness, and the worker-process helper's exit reporting.

#include "pnm/core/cell_queue.hpp"

#include <gtest/gtest.h>

#include <chrono>
#include <filesystem>
#include <optional>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "pnm/util/fileio.hpp"

namespace pnm {
namespace {

constexpr CellLayout kLayout{"tclaims", "tcells", ".tcell"};

std::string fresh_store_dir(const std::string& name) {
  const std::string dir = ::testing::TempDir() + "pnm_cell_queue_" + name;
  std::filesystem::remove_all(dir);
  return dir;
}

std::vector<CellRef> make_cells(std::size_t n, const std::string& fp_tag) {
  std::vector<CellRef> cells;
  for (std::size_t i = 0; i < n; ++i) {
    cells.push_back({"c" + std::to_string(i), fp_tag + std::to_string(i)});
  }
  return cells;
}

std::string cell_file(const std::string& dir, const CellRef& cell) {
  return dir + "/tcells/" + cell.id + ".tcell";
}

/// The in-test codec: a header carrying the fingerprint, one payload line,
/// and an end sentinel.
bool parse_cell(std::string_view text, const std::string& fp) {
  const std::vector<std::string_view> lines = split_lines(text);
  return lines.size() == 3 && lines[0] == "cell " + fp &&
         lines[1].starts_with("payload ") && lines[2] == "end";
}

/// One worker pass; `ran` collects the indices of the cells it computed.
CampaignWorkerResult pass(const std::string& dir, const std::vector<CellRef>& cells,
                          std::vector<std::size_t>& ran, std::size_t shard_id = 0,
                          std::size_t num_shards = 1) {
  return run_cell_worker(
      dir, kLayout, cells, shard_id, num_shards,
      [&](std::size_t index, const std::string& fp) {
        ran.push_back(index);
        return "cell " + fp + "\npayload " + std::to_string(index) + "\nend\n";
      },
      parse_cell);
}

/// Collects the payload lines in cell order; nullopt when incomplete.
std::optional<std::vector<std::string>> collect(const std::string& dir,
                                                const std::vector<CellRef>& cells) {
  std::vector<std::string> payloads;
  const bool complete =
      collect_cells(dir, kLayout, cells, [&](std::string_view text, const std::string& fp) {
        if (!parse_cell(text, fp)) return false;
        payloads.emplace_back(split_lines(text)[1]);
        return true;
      });
  if (!complete) return std::nullopt;
  return payloads;
}

TEST(CellQueue, PassPublishesEveryCellThenSkipsPublishedOnes) {
  const std::string dir = fresh_store_dir("publish");
  const std::vector<CellRef> cells = make_cells(3, "fp");
  EXPECT_FALSE(collect(dir, cells).has_value());

  std::vector<std::size_t> ran;
  const CampaignWorkerResult first = pass(dir, cells, ran);
  EXPECT_EQ(first.cells_run, 3u);
  EXPECT_EQ(ran, (std::vector<std::size_t>{0, 1, 2}));
  EXPECT_EQ(read_text_file(cell_file(dir, cells[1])), "cell fp1\npayload 1\nend\n");
  EXPECT_EQ(collect(dir, cells),
            (std::vector<std::string>{"payload 0", "payload 1", "payload 2"}));

  ran.clear();
  const CampaignWorkerResult second = pass(dir, cells, ran);
  EXPECT_EQ(second.cells_run, 0u);
  EXPECT_EQ(second.cells_skipped_done, 3u);
  EXPECT_TRUE(ran.empty());
}

TEST(CellQueue, LiveClaimIsSkippedAndDeadClaimIsReclaimed) {
  const std::string dir = fresh_store_dir("claims");
  const std::vector<CellRef> cells = make_cells(2, "fp");
  ASSERT_TRUE(create_directories(dir + "/tclaims"));
  const std::string claim_path = dir + "/tclaims/c0.claim";

  // A live owner: flock locks belong to the open file description, so a
  // claim held here conflicts with the scheduler's own open of the file.
  std::optional<FileLock> live = FileLock::try_exclusive(claim_path);
  ASSERT_TRUE(live.has_value());
  std::vector<std::size_t> ran;
  const CampaignWorkerResult contended = pass(dir, cells, ran);
  EXPECT_EQ(contended.cells_skipped_claimed, 1u);
  EXPECT_EQ(contended.cells_run, 1u);
  EXPECT_EQ(ran, (std::vector<std::size_t>{1}));
  EXPECT_FALSE(collect(dir, cells).has_value());
  live.reset();

  // A worker that dies holding the claim: the kernel releases its flock
  // with the process, so the next pass recomputes the orphaned cell.
  ASSERT_TRUE(run_worker_processes(1, [&](std::size_t) {
    static std::optional<FileLock> held;  // never destroyed: the process exits
    held = FileLock::try_exclusive(claim_path);
    return held ? 0 : 1;
  }));
  ran.clear();
  const CampaignWorkerResult recovered = pass(dir, cells, ran);
  EXPECT_EQ(recovered.cells_run, 1u);
  EXPECT_EQ(recovered.cells_skipped_claimed, 0u);
  EXPECT_EQ(ran, (std::vector<std::size_t>{0}));
  EXPECT_TRUE(collect(dir, cells).has_value());
}

TEST(CellQueue, StaleFingerprintAndTruncatedFilesAreRecomputed) {
  const std::string dir = fresh_store_dir("stale");
  std::vector<std::size_t> ran;
  ASSERT_EQ(pass(dir, make_cells(3, "old"), ran).cells_run, 3u);

  // The spec changed: every published file carries a stale fingerprint.
  const std::vector<CellRef> cells = make_cells(3, "new");
  EXPECT_FALSE(collect(dir, cells).has_value());
  ran.clear();
  EXPECT_EQ(pass(dir, cells, ran).cells_run, 3u);
  ASSERT_TRUE(collect(dir, cells).has_value());

  // A truncated file reads as not done, and only that cell is recomputed.
  const std::string path = cell_file(dir, cells[2]);
  const std::string text = *read_text_file(path);
  ASSERT_TRUE(write_text_file_atomic(path, text.substr(0, text.size() / 2)));
  EXPECT_FALSE(collect(dir, cells).has_value());
  ran.clear();
  const CampaignWorkerResult redo = pass(dir, cells, ran);
  EXPECT_EQ(redo.cells_run, 1u);
  EXPECT_EQ(redo.cells_skipped_done, 2u);
  EXPECT_EQ(ran, (std::vector<std::size_t>{2}));
  EXPECT_EQ(read_text_file(path), text);
}

TEST(CellQueue, StaticShardsPartitionCellsWithoutOverlap) {
  const std::string dir = fresh_store_dir("shards");
  const std::vector<CellRef> cells = make_cells(5, "fp");
  std::vector<std::size_t> ran0;
  std::vector<std::size_t> ran1;
  const CampaignWorkerResult shard0 = pass(dir, cells, ran0, 0, 2);
  const CampaignWorkerResult shard1 = pass(dir, cells, ran1, 1, 2);
  EXPECT_EQ(ran0, (std::vector<std::size_t>{0, 2, 4}));
  EXPECT_EQ(ran1, (std::vector<std::size_t>{1, 3}));
  EXPECT_EQ(shard0.cells_skipped_other_shard, 2u);
  EXPECT_EQ(shard1.cells_skipped_other_shard, 3u);
  EXPECT_EQ(shard1.cells_skipped_done, 0u);
  EXPECT_TRUE(collect(dir, cells).has_value());

  std::vector<std::size_t> ran;
  EXPECT_THROW(pass(dir, cells, ran, 0, 0), std::invalid_argument);
  EXPECT_THROW(pass(dir, cells, ran, 2, 2), std::invalid_argument);
  EXPECT_THROW(pass("", cells, ran), std::invalid_argument);
  EXPECT_TRUE(ran.empty());
}

TEST(CellQueue, CollectFailsWhenAnyCellIsMissing) {
  const std::string dir = fresh_store_dir("missing");
  const std::vector<CellRef> cells = make_cells(3, "fp");
  std::vector<std::size_t> ran;
  pass(dir, cells, ran);
  ASSERT_TRUE(collect(dir, cells).has_value());
  std::filesystem::remove(cell_file(dir, cells[1]));
  EXPECT_FALSE(collect(dir, cells).has_value());
  EXPECT_THROW(collect("", cells), std::invalid_argument);
}

TEST(CellQueue, WorkerProcessesReportNonzeroExit) {
  const std::string dir = fresh_store_dir("processes");
  ASSERT_TRUE(create_directories(dir));
  // Every child has finished by the time the helper returns.
  EXPECT_TRUE(run_worker_processes(3, [&](std::size_t j) {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    return write_text_file_atomic(dir + "/done" + std::to_string(j), "x") ? 0 : 1;
  }));
  for (std::size_t j = 0; j < 3; ++j) {
    EXPECT_TRUE(std::filesystem::exists(dir + "/done" + std::to_string(j)));
  }
  EXPECT_FALSE(run_worker_processes(3, [](std::size_t j) { return j == 1 ? 3 : 0; }));
  EXPECT_FALSE(run_worker_processes(2, [](std::size_t j) -> int {
    if (j == 0) throw std::runtime_error("worker failure under test");
    return 0;
  }));
}

}  // namespace
}  // namespace pnm
