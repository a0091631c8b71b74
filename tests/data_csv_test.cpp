/// Tests for CSV import/export (the drop-in path for real UCI files).

#include "pnm/data/csv.hpp"

#include <gtest/gtest.h>

#include <sstream>

#include "pnm/data/synth.hpp"

namespace pnm {
namespace {

TEST(Csv, ParsesCommaSeparatedRows) {
  std::istringstream in("1.0,2.0,0\n3.0,4.0,1\n");
  const auto result = load_csv(in);
  EXPECT_EQ(result.data.size(), 2U);
  EXPECT_EQ(result.data.n_features(), 2U);
  EXPECT_EQ(result.data.n_classes, 2U);
  EXPECT_EQ(result.data.x[1][0], 3.0);
  EXPECT_EQ(result.data.y[1], 1U);
}

TEST(Csv, ParsesSemicolonUciWineFormat) {
  std::istringstream in(
      "fixed acidity;volatile acidity;quality\n"
      "7.4;0.70;5\n"
      "7.8;0.88;6\n"
      "6.0;0.20;5\n");
  const auto result = load_csv(in, ';');
  EXPECT_EQ(result.data.size(), 3U);
  EXPECT_EQ(result.data.n_features(), 2U);
  // Labels 5 and 6 are densely re-indexed to 0 and 1, mapping recorded.
  EXPECT_EQ(result.data.n_classes, 2U);
  ASSERT_EQ(result.label_values.size(), 2U);
  EXPECT_EQ(result.label_values[0], 5);
  EXPECT_EQ(result.label_values[1], 6);
  EXPECT_EQ(result.data.y[0], 0U);
  EXPECT_EQ(result.data.y[1], 1U);
}

TEST(Csv, SkipsCommentsAndBlankLines) {
  std::istringstream in("# a comment\n\n1.0,0\n\n2.0,1\n");
  const auto result = load_csv(in);
  EXPECT_EQ(result.data.size(), 2U);
}

TEST(Csv, LabelsReindexedAscending) {
  std::istringstream in("0,9\n1,3\n2,9\n3,7\n");
  const auto result = load_csv(in);
  EXPECT_EQ(result.data.n_classes, 3U);
  EXPECT_EQ(result.label_values, (std::vector<long>{3, 7, 9}));
  EXPECT_EQ(result.data.y[0], 2U);  // 9
  EXPECT_EQ(result.data.y[1], 0U);  // 3
  EXPECT_EQ(result.data.y[3], 1U);  // 7
}

TEST(Csv, RejectsInconsistentColumns) {
  std::istringstream in("1,2,0\n1,1\n");
  EXPECT_THROW(load_csv(in), std::runtime_error);
}

TEST(Csv, RejectsNonFiniteOrHugeLabels) {
  // Regression: a label like "1e300" parses as a valid double but the
  // subsequent double->long cast was undefined behavior.  Each of these
  // must be a typed parse error, not UB.
  for (const char* label : {"1e300", "-1e300", "nan", "inf", "-inf", "1e17"}) {
    std::istringstream in(std::string("1.0,") + label + "\n");
    EXPECT_THROW(load_csv(in), std::runtime_error) << label;
  }
  // The boundary itself (2^53) is still exact and accepted.
  std::istringstream ok("1.0,9007199254740992\n2.0,0\n");
  EXPECT_NO_THROW(load_csv(ok));
}

TEST(Csv, RejectsNonNumericFeature) {
  std::istringstream in("1,2,0\nx,2,1\n");
  EXPECT_THROW(load_csv(in), std::runtime_error);
}

TEST(Csv, RejectsSingleColumnRows) {
  std::istringstream in("42\n");
  EXPECT_THROW(load_csv(in), std::runtime_error);
}

TEST(Csv, MissingFileThrows) {
  EXPECT_THROW(load_csv_file("/nonexistent/path.csv"), std::runtime_error);
}

TEST(Csv, SaveLoadRoundTrip) {
  Dataset small;
  small.name = "round";
  small.n_classes = 3;
  small.x = {{0.5, -1.25}, {2.0, 3.5}, {7.0, 0.0}};
  small.y = {2, 0, 1};
  // Generated features use every digit of a double.
  for (const Dataset& d : {small, make_named_dataset("seeds", 77)}) {
    std::stringstream buffer;
    save_csv(d, buffer);
    const auto result = load_csv(buffer);
    ASSERT_EQ(result.data.size(), d.size()) << d.name;
    EXPECT_EQ(result.data.n_classes, d.n_classes) << d.name;
    for (std::size_t i = 0; i < d.size(); ++i) {
      EXPECT_EQ(result.data.x[i], d.x[i]) << d.name << " row " << i;
      EXPECT_EQ(result.data.y[i], d.y[i]) << d.name << " row " << i;
    }
  }
}

}  // namespace
}  // namespace pnm
