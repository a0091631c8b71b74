/// Tests for the persistent evaluation store: exact round-trips,
/// corruption/truncation recovery, version and fingerprint handling,
/// concurrent threads AND real concurrent writer processes on the
/// sharded segment layout, and the CachedEvaluator backing integration.

#include "pnm/core/eval_store.hpp"

#include <gtest/gtest.h>

#include <sys/wait.h>
#include <unistd.h>

#include <atomic>
#include <cmath>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <limits>
#include <thread>
#include <vector>

#include "function_evaluator.hpp"
#include "pnm/core/eval.hpp"
#include "pnm/util/fileio.hpp"

namespace pnm {
namespace {

/// Fresh per-test store directory under the test temp dir.
std::string store_dir(const std::string& name) {
  const std::string path = ::testing::TempDir() + "pnm_" + name + ".evalstore";
  std::filesystem::remove_all(path);
  return path;
}

DesignPoint make_point(double accuracy, double area) {
  DesignPoint p;
  p.technique = "ga";
  p.config = "b4,3|s20,40|c0,4";
  p.accuracy = accuracy;
  p.area_mm2 = area;
  p.power_uw = accuracy * 3.0;
  p.delay_ms = area / 7.0;
  return p;
}

/// This writer's segment data file for direct corruption/inspection.
std::string seg_file(const std::string& dir, std::size_t id) {
  return dir + "/seg-" + std::to_string(id) + ".log";
}

TEST(EvalStore, RoundTripIsBitExact) {
  const std::string dir = store_dir("roundtrip");
  // Doubles that don't have short decimal forms must still round-trip
  // exactly — the byte-identical-front guarantee rests on this.
  const std::vector<double> values = {1.0 / 3.0,
                                      0.1,
                                      6.02214076e23,
                                      5e-324,
                                      -0.0,
                                      2.0,
                                      0.8571428571428571,
                                      std::numeric_limits<double>::infinity(),
                                      -std::numeric_limits<double>::infinity()};
  {
    EvalStore store(dir, "fpA");
    for (std::size_t i = 0; i < values.size(); ++i) {
      store.put("k" + std::to_string(i), make_point(values[i], values[i] * 2.0));
    }
    EXPECT_EQ(store.size(), values.size());
    EXPECT_EQ(store.loaded(), 0u);
  }
  EvalStore reopened(dir, "fpA");
  EXPECT_EQ(reopened.loaded(), values.size());
  EXPECT_EQ(reopened.corrupt_dropped(), 0u);
  EXPECT_EQ(reopened.duplicates(), 0u);
  EXPECT_EQ(reopened.segments_loaded(), 1u);
  for (std::size_t i = 0; i < values.size(); ++i) {
    const auto point = reopened.lookup("k" + std::to_string(i));
    ASSERT_TRUE(point.has_value());
    EXPECT_EQ(*point, make_point(values[i], values[i] * 2.0));
  }
  EXPECT_FALSE(reopened.lookup("missing").has_value());
}

TEST(EvalStore, ParseDoubleStrictCoversNonFiniteAndRejectsGarbage) {
  // ostream renders non-finite doubles as inf/-inf/nan; the strict
  // parser must take them back (istream >> double refuses them).
  const double inf = std::numeric_limits<double>::infinity();
  EXPECT_EQ(parse_double_strict(format_double_roundtrip(inf)), inf);
  EXPECT_EQ(parse_double_strict(format_double_roundtrip(-inf)), -inf);
  const auto nan = parse_double_strict(
      format_double_roundtrip(std::numeric_limits<double>::quiet_NaN()));
  ASSERT_TRUE(nan.has_value());
  EXPECT_TRUE(std::isnan(*nan));
  EXPECT_FALSE(parse_double_strict("").has_value());
  EXPECT_FALSE(parse_double_strict("infx").has_value());
  EXPECT_FALSE(parse_double_strict("1.5garbage").has_value());
  EXPECT_FALSE(parse_double_strict("  2.0").has_value());
}

TEST(EvalStore, TruncatedFinalLineIsDroppedAndCompacted) {
  const std::string dir = store_dir("truncated");
  {
    EvalStore store(dir, "fp");
    ASSERT_EQ(store.writer_id(), 0u);
    store.put("a", make_point(0.9, 10.0));
    store.put("b", make_point(0.8, 8.0));
  }
  // Simulate a crash mid-append: a final record missing its newline.
  {
    std::ofstream out(seg_file(dir, 0), std::ios::binary | std::ios::app);
    out << "c\tga\tcfg\t0.5\t5";
  }
  EvalStore recovered(dir, "fp");
  EXPECT_EQ(recovered.loaded(), 2u);
  EXPECT_EQ(recovered.corrupt_dropped(), 1u);
  EXPECT_TRUE(recovered.lookup("a").has_value());
  EXPECT_TRUE(recovered.lookup("b").has_value());
  EXPECT_FALSE(recovered.lookup("c").has_value());
  // Recovery compacted the owned segment: a third open sees a clean store.
  EvalStore clean(dir, "fp");
  EXPECT_EQ(clean.loaded(), 2u);
  EXPECT_EQ(clean.corrupt_dropped(), 0u);
}

TEST(EvalStore, CorruptMiddleLinesAreSkippedNotFatal) {
  const std::string dir = store_dir("corrupt");
  {
    EvalStore store(dir, "fp");
    store.put("good1", make_point(0.9, 10.0));
  }
  {
    std::ofstream out(seg_file(dir, 0), std::ios::binary | std::ios::app);
    out << "bad line without enough fields\n";
    out << "badnum\tga\tcfg\tNOTANUMBER\t1\t2\t3\n";
    out << "good2\tga\tcfg\t0.5\t5\t0\t0\n";
  }
  EvalStore store(dir, "fp");
  EXPECT_EQ(store.corrupt_dropped(), 2u);
  EXPECT_EQ(store.loaded(), 2u);
  EXPECT_TRUE(store.lookup("good1").has_value());
  ASSERT_TRUE(store.lookup("good2").has_value());
  EXPECT_EQ(store.lookup("good2")->accuracy, 0.5);
  // And the rewrite healed the segment.
  EvalStore healed(dir, "fp");
  EXPECT_EQ(healed.corrupt_dropped(), 0u);
  EXPECT_EQ(healed.loaded(), 2u);
}

TEST(EvalStore, CorruptForeignSegmentIsDroppedButNotRewritten) {
  const std::string dir = store_dir("foreign_corrupt");
  { EvalStore store(dir, "fp"); }  // creates the directory + seg-0
  // A foreign writer's segment with one good and one torn record.  No
  // live process owns it, but healing it is its owner's job: loading
  // must drop the bad line without rewriting someone else's file.
  const std::string foreign = "pnm-eval-store v2 fp\nf1\tga\tcfg\t0.5\t5\t0\t0\ntorn\tga";
  ASSERT_TRUE(write_text_file_atomic(seg_file(dir, 7), foreign));
  EvalStore store(dir, "fp", /*writer_id=*/0);
  EXPECT_EQ(store.loaded(), 1u);
  EXPECT_EQ(store.corrupt_dropped(), 1u);
  EXPECT_TRUE(store.lookup("f1").has_value());
  EXPECT_EQ(*read_text_file(seg_file(dir, 7)), foreign);  // untouched
}

TEST(EvalStore, VersionMismatchIsRejected) {
  // A legacy *file* with an unknown version.
  const std::string file = store_dir("version");
  ASSERT_TRUE(write_text_file_atomic(
      file, "pnm-eval-store v999 fp\nk\tga\tcfg\t1\t2\t3\t4\n"));
  EXPECT_THROW(EvalStore(file, "fp"), std::runtime_error);
  // The refused file is left untouched for the newer tool that wrote it.
  EXPECT_EQ(read_text_file(file)->substr(0, 20), "pnm-eval-store v999 ");

  // A segment with an unknown version inside a v2 directory.
  const std::string dir = store_dir("segversion");
  { EvalStore store(dir, "fp"); }
  ASSERT_TRUE(write_text_file_atomic(
      seg_file(dir, 3), "pnm-eval-store v999 fp\nk\tga\tcfg\t1\t2\t3\t4\n"));
  EXPECT_THROW(EvalStore(dir, "fp"), std::runtime_error);
}

TEST(EvalStore, NonStoreFileIsRejected) {
  // Any regular file where the segment directory belongs — including a
  // single-file store of the old v1 layout — is refused and left as is.
  for (const std::string content :
       {"just some text\nmore text\n", "pnm-eval-store v1 fp\na\tga\tcfg\t0.25\t10\t1\t2\n"}) {
    const std::string file = store_dir("notastore");
    ASSERT_TRUE(write_text_file_atomic(file, content));
    EXPECT_THROW(EvalStore(file, "fp"), std::runtime_error);
    EXPECT_EQ(read_text_file(file), content);
  }
}

TEST(EvalStore, FingerprintMismatchInvalidatesButIsolates) {
  const std::string dir = store_dir("fingerprint");
  {
    EvalStore store(dir, "configA");
    store.put("a1", make_point(0.9, 10.0));
    store.put("a2", make_point(0.8, 8.0));
  }
  // Same directory, different config: nothing may be reused.
  EvalStore other(dir, "configB");
  EXPECT_EQ(other.loaded(), 0u);
  EXPECT_EQ(other.invalidated(), 2u);
  EXPECT_FALSE(other.lookup("a1").has_value());
  other.put("b1", make_point(0.7, 7.0));
  // The segment now belongs to configB: reopening under it sees only b1.
  EvalStore reopened(dir, "configB");
  EXPECT_EQ(reopened.loaded(), 1u);
  EXPECT_TRUE(reopened.lookup("b1").has_value());
  EXPECT_FALSE(reopened.lookup("a1").has_value());
}

TEST(EvalStore, RejectsMalformedKeysAndFingerprints) {
  const std::string dir = store_dir("malformed");
  EXPECT_THROW(EvalStore(dir, ""), std::invalid_argument);
  EXPECT_THROW(EvalStore(dir, "two tokens"), std::invalid_argument);
  EvalStore store(store_dir("malformed2"), "fp");
  EXPECT_THROW(store.put("", make_point(1, 1)), std::invalid_argument);
  EXPECT_THROW(store.put("tab\tkey", make_point(1, 1)), std::invalid_argument);
  DesignPoint bad = make_point(1, 1);
  bad.technique = "has\nnewline";
  EXPECT_THROW(store.put("ok", bad), std::invalid_argument);
}

TEST(EvalStore, DuplicatePutKeepsFirstRecord) {
  const std::string dir = store_dir("duplicate");
  EvalStore store(dir, "fp");
  store.put("k", make_point(0.9, 10.0));
  store.put("k", make_point(0.1, 1.0));  // deterministic pipeline: same key
                                         // can only mean the same result
  EXPECT_EQ(store.size(), 1u);
  EXPECT_EQ(store.lookup("k")->accuracy, 0.9);
  EvalStore reopened(dir, "fp");
  EXPECT_EQ(reopened.loaded(), 1u);
  EXPECT_EQ(reopened.lookup("k")->accuracy, 0.9);
}

TEST(EvalStore, ConcurrentThreadWritersAllFlushed) {
  const std::string dir = store_dir("concurrent");
  constexpr std::size_t kThreads = 8;
  constexpr std::size_t kPerThread = 25;
  {
    EvalStore store(dir, "fp");
    std::vector<std::thread> writers;
    for (std::size_t t = 0; t < kThreads; ++t) {
      writers.emplace_back([&store, t] {
        for (std::size_t i = 0; i < kPerThread; ++i) {
          const std::string key =
              "t" + std::to_string(t) + "_" + std::to_string(i);
          store.put(key, make_point(0.5 + static_cast<double>(i) * 1e-3,
                                    static_cast<double>(t)));
        }
      });
    }
    for (std::thread& w : writers) w.join();
    EXPECT_EQ(store.size(), kThreads * kPerThread);
  }
  EvalStore reopened(dir, "fp");
  EXPECT_EQ(reopened.corrupt_dropped(), 0u);
  EXPECT_EQ(reopened.loaded(), kThreads * kPerThread);
  for (std::size_t t = 0; t < kThreads; ++t) {
    for (std::size_t i = 0; i < kPerThread; ++i) {
      EXPECT_TRUE(reopened
                      .lookup("t" + std::to_string(t) + "_" + std::to_string(i))
                      .has_value());
    }
  }
}

// ---- Sharded multi-process behaviour ------------------------------------

TEST(EvalStore, WriterIdContentionProbesToNextFreeSegment) {
  const std::string dir = store_dir("contention");
  std::optional<EvalStore> first(std::in_place, dir, "fp", /*writer_id=*/0);
  // A second live writer asking for the same segment must make progress
  // on another one, not block or fail.
  std::optional<EvalStore> second(std::in_place, dir, "fp", /*writer_id=*/0);
  EXPECT_EQ(first->writer_id(), 0u);
  EXPECT_GT(second->writer_id(), 0u);
  EXPECT_NE(first->segment_path(), second->segment_path());
  first->put("from_first", make_point(0.9, 1.0));
  second->put("from_second", make_point(0.8, 2.0));
  // Each writer only sees what it loaded plus what it wrote...
  EXPECT_FALSE(first->lookup("from_second").has_value());
  // ...but a later opener merges every segment.
  first.reset();   // release seg-0
  second.reset();  // release seg-1
  EvalStore merged(dir, "fp");
  EXPECT_EQ(merged.loaded(), 2u);
  EXPECT_EQ(merged.segments_loaded(), 2u);
  EXPECT_TRUE(merged.lookup("from_first").has_value());
  EXPECT_TRUE(merged.lookup("from_second").has_value());
  EXPECT_EQ(merged.duplicates(), 0u);
}

TEST(EvalStore, CrossSegmentDuplicatesMergeLastWriteWins) {
  const std::string dir = store_dir("lastwins");
  { EvalStore store(dir, "fp"); }
  // Two segments recording the same key (two processes raced the same
  // genome): the merge must be deterministic — higher segment id wins —
  // and the duplicate must be counted and visible to the static scan.
  ASSERT_TRUE(write_text_file_atomic(
      seg_file(dir, 1), "pnm-eval-store v2 fp\nk\tga\tcfg\t0.5\t5\t0\t0\n"));
  ASSERT_TRUE(write_text_file_atomic(
      seg_file(dir, 2), "pnm-eval-store v2 fp\nk\tga\tcfg\t0.75\t5\t0\t0\n"));
  EvalStore store(dir, "fp", /*writer_id=*/0);
  EXPECT_EQ(store.loaded(), 1u);
  EXPECT_EQ(store.duplicates(), 1u);
  EXPECT_EQ(store.lookup("k")->accuracy, 0.75);
  EXPECT_EQ(EvalStore::count_duplicate_records(dir), 1u);
}

TEST(EvalStore, RealChildProcessWritersMergeCompletely) {
  const std::string dir = store_dir("multiprocess");
  { EvalStore store(dir, "fp"); }  // parent stamps the directory
  constexpr std::size_t kWriters = 3;
  constexpr std::size_t kPerWriter = 20;

  std::vector<pid_t> children;
  for (std::size_t w = 0; w < kWriters; ++w) {
    const pid_t pid = fork();
    ASSERT_GE(pid, 0);
    if (pid == 0) {
      // Child: its own EvalStore instance on the shared directory, its
      // own segment, real concurrent appends.
      int status = 0;
      try {
        EvalStore store(dir, "fp", /*writer_id=*/w);
        for (std::size_t i = 0; i < kPerWriter; ++i) {
          store.put("w" + std::to_string(w) + "_" + std::to_string(i),
                    make_point(0.5 + static_cast<double>(i) * 1e-3,
                               static_cast<double>(w)));
        }
      } catch (const std::exception&) {
        status = 1;
      }
      _exit(status);
    }
    children.push_back(pid);
  }
  for (pid_t pid : children) {
    int status = 0;
    ASSERT_EQ(waitpid(pid, &status, 0), pid);
    ASSERT_TRUE(WIFEXITED(status));
    ASSERT_EQ(WEXITSTATUS(status), 0);
  }

  // Merged preload completeness: every child's every record, no drops,
  // no duplicates.
  EvalStore merged(dir, "fp");
  EXPECT_EQ(merged.loaded(), kWriters * kPerWriter);
  EXPECT_EQ(merged.corrupt_dropped(), 0u);
  EXPECT_EQ(merged.duplicates(), 0u);
  EXPECT_GE(merged.segments_loaded(), kWriters);
  for (std::size_t w = 0; w < kWriters; ++w) {
    for (std::size_t i = 0; i < kPerWriter; ++i) {
      EXPECT_TRUE(
          merged.lookup("w" + std::to_string(w) + "_" + std::to_string(i))
              .has_value());
    }
  }
  EXPECT_EQ(EvalStore::count_duplicate_records(dir), 0u);
}

TEST(EvalStore, SegmentLockHeldByChildBlocksThatSegmentOnly) {
  const std::string dir = store_dir("childlock");
  { EvalStore store(dir, "fp"); }

  // Child claims segment 0 and holds it until told to exit; the parent
  // observes real cross-process lock contention (in-process flock checks
  // would also pass trivially on some platforms).
  int to_child[2];
  int to_parent[2];
  ASSERT_EQ(pipe(to_child), 0);
  ASSERT_EQ(pipe(to_parent), 0);
  const pid_t pid = fork();
  ASSERT_GE(pid, 0);
  if (pid == 0) {
    close(to_child[1]);
    close(to_parent[0]);
    int status = 0;
    try {
      EvalStore store(dir, "fp", /*writer_id=*/0);
      status = store.writer_id() == 0 ? 0 : 2;
      char byte = 'r';
      if (write(to_parent[1], &byte, 1) != 1) status = 3;
      // Hold the segment until the parent closes its end.
      if (read(to_child[0], &byte, 1) < 0) status = 4;
    } catch (const std::exception&) {
      status = 1;
    }
    _exit(status);
  }
  close(to_child[0]);
  close(to_parent[1]);
  char byte = 0;
  ASSERT_EQ(read(to_parent[0], &byte, 1), 1);  // child owns seg-0 now

  // Progress under contention: the parent still opens the store, on the
  // next segment.
  {
    EvalStore store(dir, "fp", /*writer_id=*/0);
    EXPECT_EQ(store.writer_id(), 1u);
    store.put("parent_record", make_point(0.9, 1.0));
  }

  // Stale-claim recovery: kill the child without any cleanup — the
  // kernel releases its flock, so segment 0 is immediately claimable.
  close(to_child[1]);
  int status = 0;
  ASSERT_EQ(waitpid(pid, &status, 0), pid);
  ASSERT_TRUE(WIFEXITED(status));
  ASSERT_EQ(WEXITSTATUS(status), 0);
  close(to_parent[0]);
  EvalStore reclaimed(dir, "fp", /*writer_id=*/0);
  EXPECT_EQ(reclaimed.writer_id(), 0u);
  EXPECT_TRUE(reclaimed.lookup("parent_record").has_value());
}

// ---- CachedEvaluator integration ----------------------------------------

Genome tiny_genome(int bits) {
  Genome g;
  g.weight_bits = {bits};
  g.sparsity_pct = {10};
  g.clusters = {0};
  return g;
}

TEST(EvalStore, CachedEvaluatorPreloadsAndWritesThrough) {
  const std::string dir = store_dir("cached");
  std::atomic<int> calls{0};
  FunctionEvaluator inner([&calls](const Genome& g) {
    ++calls;
    GenomeFitness f;
    f.accuracy = 0.5 + 0.01 * static_cast<double>(g.weight_bits[0]);
    f.area_mm2 = 10.0 * static_cast<double>(g.weight_bits[0]);
    return f;
  });

  std::vector<DesignPoint> cold_points;
  {
    EvalStore store(dir, "fp");
    CachedEvaluator cached(inner, store);
    EXPECT_EQ(cached.loaded(), 0u);
    for (int bits : {2, 3, 4}) cold_points.push_back(cached.evaluate(tiny_genome(bits)));
    cached.evaluate(tiny_genome(2));  // in-memory hit, no extra inner call
    EXPECT_EQ(calls.load(), 3);
    EXPECT_EQ(cached.hits(), 1u);
    EXPECT_EQ(cached.misses(), 3u);
    EXPECT_EQ(store.size(), 3u);
  }
  // A new process: the store preloads the cache, the inner evaluator is
  // never called again, and results are bit-identical.
  EvalStore store(dir, "fp");
  CachedEvaluator warm(inner, store);
  EXPECT_EQ(warm.loaded(), 3u);
  const std::vector<Genome> batch = {tiny_genome(2), tiny_genome(3), tiny_genome(4)};
  const std::vector<DesignPoint> warm_points = warm.evaluate_batch(batch);
  EXPECT_EQ(calls.load(), 3);  // unchanged: zero re-evaluations
  EXPECT_EQ(warm.hits(), 3u);
  EXPECT_EQ(warm.misses(), 0u);
  ASSERT_EQ(warm_points.size(), cold_points.size());
  for (std::size_t i = 0; i < warm_points.size(); ++i) {
    EXPECT_EQ(warm_points[i], cold_points[i]);
  }
}

}  // namespace
}  // namespace pnm
