// Tests for the dataset model and the synthetic generators (structure,
// macro-statistics, determinism, CSV round-trip, malformed and mutated CSVs).
#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <fstream>
#include <iterator>
#include <map>
#include <set>

#include "common/csv.h"
#include "common/rng.h"
#include "core/stages.h"
#include "data/dataset.h"
#include "data/generators.h"
#include "data/statistics.h"

namespace crowder {
namespace data {
namespace {

TEST(TableTest, ConcatenatedRecord) {
  Table t;
  t.attribute_names = {"name", "city"};
  t.records = {{"oceana", "new york"}};
  EXPECT_EQ(t.ConcatenatedRecord(0), "oceana new york");
}

TEST(TableTest, ValidateCatchesRaggedRecords) {
  Table t;
  t.attribute_names = {"a", "b"};
  t.records = {{"1"}};
  EXPECT_FALSE(t.Validate().ok());
}

TEST(TableTest, ValidateCatchesSourcesMismatch) {
  Table t;
  t.attribute_names = {"a"};
  t.records = {{"1"}, {"2"}};
  t.sources = {0};
  EXPECT_FALSE(t.Validate().ok());
}

TEST(DatasetTest, MatchingPairCountSingleSource) {
  Dataset ds;
  ds.table.attribute_names = {"a"};
  ds.table.records = {{"x"}, {"y"}, {"z"}, {"w"}};
  ds.truth.entity_of = {0, 0, 0, 1};  // entity 0 has 3 records -> 3 pairs
  EXPECT_EQ(ds.CountMatchingPairs(), 3u);
  EXPECT_EQ(ds.CountAdmissiblePairs(), 6u);
}

TEST(DatasetTest, MatchingPairCountCrossSource) {
  Dataset ds;
  ds.table.attribute_names = {"a"};
  ds.table.records = {{"x"}, {"y"}, {"z"}};
  ds.table.sources = {0, 0, 1};
  ds.truth.entity_of = {5, 5, 5};
  // Same-source (0,1) is inadmissible; (0,2) and (1,2) count.
  EXPECT_EQ(ds.CountMatchingPairs(), 2u);
  EXPECT_EQ(ds.CountAdmissiblePairs(), 2u);
}

TEST(DatasetTest, ValidateCatchesTruthMismatch) {
  Dataset ds;
  ds.table.attribute_names = {"a"};
  ds.table.records = {{"x"}};
  ds.truth.entity_of = {0, 1};
  EXPECT_FALSE(ds.Validate().ok());
}

TEST(RestaurantGeneratorTest, MatchesConfiguredStatistics) {
  RestaurantConfig config;
  auto ds = GenerateRestaurant(config);
  ASSERT_TRUE(ds.ok());
  EXPECT_EQ(ds->table.num_records(), config.num_records);
  EXPECT_EQ(ds->table.num_attributes(), 4u);
  EXPECT_EQ(ds->CountMatchingPairs(), config.num_duplicate_pairs);
  EXPECT_TRUE(ds->table.sources.empty());  // single source
  // The paper's total: 858*857/2 = 367,653.
  EXPECT_EQ(ds->CountAdmissiblePairs(), 367653u);
}

TEST(RestaurantGeneratorTest, DeterministicGivenSeed) {
  auto a = GenerateRestaurant({}).ValueOrDie();
  auto b = GenerateRestaurant({}).ValueOrDie();
  EXPECT_EQ(a.table.records, b.table.records);
  EXPECT_EQ(a.truth.entity_of, b.truth.entity_of);
}

TEST(RestaurantGeneratorTest, DifferentSeedsDiffer) {
  RestaurantConfig c1;
  RestaurantConfig c2;
  c2.seed = 999;
  auto a = GenerateRestaurant(c1).ValueOrDie();
  auto b = GenerateRestaurant(c2).ValueOrDie();
  EXPECT_NE(a.table.records, b.table.records);
}

TEST(RestaurantGeneratorTest, SmallConfig) {
  RestaurantConfig config;
  config.num_records = 40;
  config.num_duplicate_pairs = 8;
  config.num_chains = 2;
  auto ds = GenerateRestaurant(config);
  ASSERT_TRUE(ds.ok());
  EXPECT_EQ(ds->table.num_records(), 40u);
  EXPECT_EQ(ds->CountMatchingPairs(), 8u);
}

TEST(RestaurantGeneratorTest, RejectsImpossibleConfig) {
  RestaurantConfig config;
  config.num_records = 10;
  config.num_duplicate_pairs = 6;  // needs 12 records
  EXPECT_FALSE(GenerateRestaurant(config).ok());
}

TEST(RestaurantGeneratorTest, ScaleFactorGrowsCountsProportionally) {
  RestaurantConfig config;
  config.scale_factor = 3.0;
  auto ds = GenerateRestaurant(config);
  ASSERT_TRUE(ds.ok());
  // Macro statistics preserved: every count scales by the same factor, so
  // the duplicate fraction (and the join/recall regime) is unchanged.
  EXPECT_EQ(ds->table.num_records(), 3 * config.num_records);
  EXPECT_EQ(ds->CountMatchingPairs(), 3 * config.num_duplicate_pairs);
  // Deterministic given (seed, scale_factor).
  auto again = GenerateRestaurant(config).ValueOrDie();
  EXPECT_EQ(ds->table.records, again.table.records);
}

TEST(GeneratorScaleFactorTest, RejectsNonPositive) {
  RestaurantConfig restaurant;
  restaurant.scale_factor = 0.0;
  EXPECT_FALSE(GenerateRestaurant(restaurant).ok());
  ProductConfig product;
  product.scale_factor = -1.0;
  EXPECT_FALSE(GenerateProduct(product).ok());
  ProductDupConfig dup;
  dup.scale_factor = 0.0;
  EXPECT_FALSE(GenerateProductDup(dup).ok());
}

TEST(ProductGeneratorTest, MatchesPaperStatistics) {
  ProductConfig config;
  auto ds = GenerateProduct(config);
  ASSERT_TRUE(ds.ok());
  EXPECT_EQ(ds->table.num_records(), 1081u + 1092u);
  EXPECT_EQ(ds->CountMatchingPairs(), 1097u);
  // The paper's total: 1081*1092 = 1,180,452 cross-source pairs.
  EXPECT_EQ(ds->CountAdmissiblePairs(), 1180452u);
  size_t abt = 0;
  for (int s : ds->table.sources) abt += (s == 0);
  EXPECT_EQ(abt, 1081u);
}

TEST(ProductGeneratorTest, TwoAttributes) {
  auto ds = GenerateProduct({}).ValueOrDie();
  EXPECT_EQ(ds.table.attribute_names, (std::vector<std::string>{"name", "price"}));
  // Prices look like "$123.45".
  EXPECT_EQ(ds.table.records[0][1][0], '$');
}

TEST(ProductGeneratorTest, Deterministic) {
  auto a = GenerateProduct({}).ValueOrDie();
  auto b = GenerateProduct({}).ValueOrDie();
  EXPECT_EQ(a.table.records, b.table.records);
}

TEST(ProductGeneratorTest, SmallBalancedConfig) {
  ProductConfig config;
  config.num_abt = 50;
  config.num_buy = 60;
  config.num_matching_pairs = 40;
  auto ds = GenerateProduct(config);
  ASSERT_TRUE(ds.ok());
  EXPECT_EQ(ds->CountMatchingPairs(), 40u);
}

TEST(ProductGeneratorTest, RejectsImpossibleMatchCount) {
  ProductConfig config;
  config.num_abt = 10;
  config.num_buy = 10;
  config.num_matching_pairs = 100;
  EXPECT_FALSE(GenerateProduct(config).ok());
}

TEST(ProductGeneratorTest, ScaleFactorGrowsCountsProportionally) {
  ProductConfig config;
  config.scale_factor = 2.5;
  auto ds = GenerateProduct(config);
  ASSERT_TRUE(ds.ok());
  EXPECT_EQ(ds->table.num_records(),
            static_cast<size_t>(std::llround(2.5 * config.num_abt)) +
                static_cast<size_t>(std::llround(2.5 * config.num_buy)));
  EXPECT_EQ(ds->CountMatchingPairs(),
            static_cast<uint64_t>(std::llround(2.5 * config.num_matching_pairs)));
  size_t abt = 0;
  for (int s : ds->table.sources) abt += (s == 0);
  EXPECT_EQ(abt, static_cast<size_t>(std::llround(2.5 * config.num_abt)));
}

TEST(ProductDupGeneratorTest, ConstructionPerPaper) {
  ProductDupConfig config;
  auto ds = GenerateProductDup(config);
  ASSERT_TRUE(ds.ok());
  // 100 base entities; with x ~ U[0,9] copies each, expect 100..1000
  // records and a single source.
  EXPECT_GE(ds->table.num_records(), 100u);
  EXPECT_LE(ds->table.num_records(), 1000u);
  EXPECT_TRUE(ds->table.sources.empty());
  std::set<uint32_t> entities(ds->truth.entity_of.begin(), ds->truth.entity_of.end());
  EXPECT_EQ(entities.size(), 100u);
}

TEST(ProductDupGeneratorTest, DuplicatesArePermutationsOfBase) {
  auto ds = GenerateProductDup({}).ValueOrDie();
  // Records of the same entity must have identical token multisets in the
  // name attribute (the paper's construction only swaps token positions).
  std::map<uint32_t, std::multiset<std::string>> canon;
  for (uint32_t r = 0; r < ds.table.num_records(); ++r) {
    std::multiset<std::string> tokens;
    std::string cur;
    for (char c : ds.table.records[r][0] + " ") {
      if (c == ' ') {
        if (!cur.empty()) tokens.insert(cur);
        cur.clear();
      } else {
        cur.push_back(c);
      }
    }
    auto [it, inserted] = canon.emplace(ds.truth.entity_of[r], tokens);
    if (!inserted) {
      EXPECT_EQ(it->second, tokens) << "record " << r;
    }
  }
}

TEST(ProductDupGeneratorTest, RejectsBadBaseCount) {
  ProductDupConfig config;
  config.num_base_records = 0;
  EXPECT_FALSE(GenerateProductDup(config).ok());
}

TEST(DatasetCsvTest, RoundTrip) {
  RestaurantConfig config;
  config.num_records = 30;
  config.num_duplicate_pairs = 5;
  config.num_chains = 1;
  auto ds = GenerateRestaurant(config).ValueOrDie();

  const std::string path = "/tmp/crowder_dataset_test.csv";
  ASSERT_TRUE(WriteDatasetCsv(ds, path).ok());
  auto back = ReadDatasetCsv(path, ds.name);
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back->table.records, ds.table.records);
  EXPECT_EQ(back->truth.entity_of, ds.truth.entity_of);
  EXPECT_EQ(back->table.attribute_names, ds.table.attribute_names);
  std::remove(path.c_str());
}

TEST(DatasetCsvTest, RoundTripPreservesSources) {
  ProductConfig config;
  config.num_abt = 20;
  config.num_buy = 25;
  config.num_matching_pairs = 15;
  auto ds = GenerateProduct(config).ValueOrDie();
  const std::string path = "/tmp/crowder_dataset_sources_test.csv";
  ASSERT_TRUE(WriteDatasetCsv(ds, path).ok());
  auto back = ReadDatasetCsv(path, ds.name);
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back->table.sources, ds.table.sources);
  std::remove(path.c_str());
}

TEST(DatasetCsvTest, MissingColumnsRejected) {
  const std::string path = "/tmp/crowder_dataset_bad_test.csv";
  ASSERT_TRUE(WriteCsvFile(path, {"name"}, {{"x"}}).ok());
  EXPECT_FALSE(ReadDatasetCsv(path, "bad").ok());
  std::remove(path.c_str());
}

// Reads `text` as a dataset CSV file.
Result<Dataset> ReadDatasetText(const std::string& text) {
  const std::string path = ::testing::TempDir() + "/crowder_dataset_text_test.csv";
  {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out << text;
  }
  Result<Dataset> dataset = ReadDatasetCsv(path, "text");
  std::remove(path.c_str());
  return dataset;
}

// Each malformed number is an InvalidArgument naming its row and column:
// never an uncaught parse exception, and never a silent wrap of __entity -1
// to 4294967295 or of 4294967296 to 0.
TEST(DatasetCsvTest, MalformedNumbersNameTheirRowAndColumn) {
  const std::string header = "name,__source,__entity\n";
  const struct {
    const char* rows;
    const char* message;
  } kCases[] = {
      {"a,0,1\nb,0,abc\n", "row 2, column __entity expects a non-negative integer, got 'abc'"},
      {"a,0,99999999999999999999\n", "row 1, column __entity is out of range"},
      {"a,x,1\n", "row 1, column __source expects an integer, got 'x'"},
      {"a,0,-1\n", "row 1, column __entity expects a non-negative integer, got '-1'"},
      {"a,0,4294967296\nb,0,0\n", "row 1, column __entity is out of range: '4294967296'"},
      {"a,99999999999,1\n", "row 1, column __source is out of range"},
      {"a,0,\n", "row 1, column __entity expects a non-negative integer, got ''"},
      {"a,0,1e9999\n", "row 1, column __entity expects a non-negative integer"},
      {"a,0, 7\n", "row 1, column __entity expects a non-negative integer, got ' 7'"},
  };
  for (const auto& c : kCases) {
    const Result<Dataset> dataset = ReadDatasetText(header + c.rows);
    ASSERT_FALSE(dataset.ok()) << c.rows;
    EXPECT_TRUE(dataset.status().IsInvalidArgument()) << c.rows;
    EXPECT_NE(dataset.status().message().find(c.message), std::string::npos)
        << dataset.status().ToString();
  }
  const Result<Dataset> good = ReadDatasetText(header + "a,-2,4294967295\nb,3,0\n");
  ASSERT_TRUE(good.ok()) << good.status().ToString();
  EXPECT_EQ(good->table.sources, (std::vector<int>{-2, 3}));
  EXPECT_EQ(good->truth.entity_of, (std::vector<uint32_t>{4294967295u, 0u}));
}

// One deterministic mutation of a dataset CSV: truncate it, flip a bit,
// splice the head of one line onto the tail of another, inject a quote, CR,
// NUL or high byte, or replace one number field with a hostile literal.
std::string MutateCsv(const std::string& csv, uint64_t seed) {
  static const char* const kHostile[] = {"-1", "4294967296", "99999999999999999999", "1e9999",
                                         ""};
  static const char kInjected[] = {'"', '\r', '\0', '\x80', '\xC3', '\xFF'};
  Rng rng(seed);
  std::string out = csv;
  switch (seed % 5) {
    case 0:
      out.resize(rng.Uniform(csv.size()));
      break;
    case 1:
      out[rng.Uniform(out.size())] ^= static_cast<char>(1u << rng.Uniform(8));
      break;
    case 2: {
      std::vector<size_t> starts{0};
      for (size_t i = 0; i + 1 < csv.size(); ++i) {
        if (csv[i] == '\n') starts.push_back(i + 1);
      }
      const size_t x = starts[rng.Uniform(starts.size())];
      const size_t y = starts[rng.Uniform(starts.size())];
      const size_t x_end = csv.find('\n', x);
      const size_t y_end = csv.find('\n', y);
      const size_t cut = x + rng.Uniform(x_end - x + 1);
      const size_t resume = y + rng.Uniform(y_end - y + 1);
      out = csv.substr(0, cut) + csv.substr(resume, y_end - resume) + csv.substr(x_end);
      break;
    }
    case 3:
      out.insert(out.begin() + static_cast<std::ptrdiff_t>(rng.Uniform(out.size() + 1)),
                 kInjected[rng.Uniform(std::size(kInjected))]);
      break;
    default: {
      // The last two fields of a data line are __source and __entity.
      std::vector<size_t> line_ends;
      for (size_t i = csv.find('\n') + 1; i < csv.size(); ++i) {
        if (csv[i] == '\n') line_ends.push_back(i);
      }
      const size_t end = line_ends[rng.Uniform(line_ends.size())];
      const size_t last_comma = csv.rfind(',', end);
      const bool entity = rng.Bernoulli(0.5);
      const size_t begin = entity ? last_comma + 1 : csv.rfind(',', last_comma - 1) + 1;
      const size_t stop = entity ? end : last_comma;
      out.replace(begin, stop - begin, kHostile[rng.Uniform(std::size(kHostile))]);
    }
  }
  return out;
}

TEST(DatasetCsvMutationSweep, EveryMutantLoadsOrFailsCleanly) {
  RestaurantConfig config;
  config.num_records = 40;
  config.num_duplicate_pairs = 8;
  config.num_chains = 2;
  const Dataset base = GenerateRestaurant(config).ValueOrDie();
  const std::string path = ::testing::TempDir() + "/crowder_dataset_sweep_base.csv";
  ASSERT_TRUE(WriteDatasetCsv(base, path).ok());
  std::string csv;
  {
    std::ifstream in(path, std::ios::binary);
    csv.assign(std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>());
  }
  std::remove(path.c_str());
  ASSERT_TRUE(ReadDatasetText(csv).ok());

  constexpr uint64_t kMutations = 1500;
  uint64_t loaded = 0;
  for (uint64_t seed = 0; seed < kMutations; ++seed) {
    const std::string mutated = MutateCsv(csv, seed);
    const Result<Dataset> dataset = ReadDatasetText(mutated);
    if (!dataset.ok()) {
      EXPECT_TRUE(dataset.status().IsInvalidArgument() || dataset.status().IsIOError())
          << "seed " << seed << ": " << dataset.status().ToString();
      continue;
    }
    ++loaded;
    const similarity::JoinInput input = core::internal::BuildJoinInput(*dataset);
    EXPECT_EQ(input.sets.size(), dataset->table.num_records()) << "seed " << seed;
    const Result<DatasetStatistics> stats = ComputeStatistics(*dataset);
    EXPECT_TRUE(stats.ok() || stats.status().IsInvalidArgument())
        << "seed " << seed << ": " << stats.status().ToString();
  }
  // Both outcomes occur: the sweep is neither vacuous nor all-rejecting.
  EXPECT_GT(loaded, 0u);
  EXPECT_LT(loaded, kMutations);
}

}  // namespace
}  // namespace data
}  // namespace crowder
