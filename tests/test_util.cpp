// Unit tests for the util module.
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <set>
#include <string>
#include <vector>

#include "util/check.hpp"
#include "util/cli.hpp"
#include "util/csv.hpp"
#include "util/rng.hpp"
#include "util/strings.hpp"
#include "util/table.hpp"

namespace fuse::util {
namespace {

// --- check ------------------------------------------------------------------

TEST(Check, PassingConditionDoesNotThrow) {
  EXPECT_NO_THROW(FUSE_CHECK(1 + 1 == 2) << "unused");
}

TEST(Check, FailingConditionThrowsError) {
  EXPECT_THROW(FUSE_CHECK(false) << "context", Error);
}

TEST(Check, MessageCarriesExpressionAndContext) {
  try {
    const int value = 42;
    FUSE_CHECK(value < 0) << "value=" << value;
    FAIL() << "expected throw";
  } catch (const Error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("value < 0"), std::string::npos) << what;
    EXPECT_NE(what.find("value=42"), std::string::npos) << what;
  }
}

// --- rng --------------------------------------------------------------------

TEST(Rng, DeterministicForSameSeed) {
  Rng a(123);
  Rng b(123);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.next_u64(), b.next_u64());
  }
}

TEST(Rng, DifferentSeedsDiffer) {
  Rng a(1);
  Rng b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) {
    if (a.next_u64() == b.next_u64()) {
      ++same;
    }
  }
  EXPECT_EQ(same, 0);
}

TEST(Rng, UniformStaysInRange) {
  Rng rng(7);
  for (int i = 0; i < 10000; ++i) {
    const double u = rng.uniform();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(Rng, UniformWithBoundsStaysInRange) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    const double u = rng.uniform(-3.0, 5.0);
    EXPECT_GE(u, -3.0);
    EXPECT_LT(u, 5.0);
  }
}

TEST(Rng, UniformIndexCoversAllValues) {
  Rng rng(11);
  std::set<std::uint64_t> seen;
  for (int i = 0; i < 1000; ++i) {
    const std::uint64_t v = rng.uniform_index(8);
    EXPECT_LT(v, 8u);
    seen.insert(v);
  }
  EXPECT_EQ(seen.size(), 8u);
}

TEST(Rng, NormalHasRoughlyZeroMeanUnitVariance) {
  Rng rng(13);
  double sum = 0.0;
  double sum_sq = 0.0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) {
    const double x = rng.normal();
    sum += x;
    sum_sq += x * x;
  }
  const double mean = sum / n;
  const double var = sum_sq / n - mean * mean;
  EXPECT_NEAR(mean, 0.0, 0.03);
  EXPECT_NEAR(var, 1.0, 0.05);
}

TEST(Rng, NormalScalesMeanAndStddev) {
  Rng rng(17);
  double sum = 0.0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) {
    sum += rng.normal(5.0, 2.0);
  }
  EXPECT_NEAR(sum / n, 5.0, 0.1);
}

// --- strings ----------------------------------------------------------------

TEST(Strings, FormatProducesPrintfOutput) {
  EXPECT_EQ(format("%d-%s-%.2f", 7, "x", 1.5), "7-x-1.50");
}

TEST(Strings, FormatHandlesLongOutput) {
  const std::string long_str(500, 'a');
  EXPECT_EQ(format("%s", long_str.c_str()).size(), 500u);
}

TEST(Strings, WithCommasGroupsDigits) {
  EXPECT_EQ(with_commas(0), "0");
  EXPECT_EQ(with_commas(999), "999");
  EXPECT_EQ(with_commas(1000), "1,000");
  EXPECT_EQ(with_commas(1234567), "1,234,567");
  EXPECT_EQ(with_commas(1000000000ULL), "1,000,000,000");
}

TEST(Strings, FixedFormatsPrecision) {
  EXPECT_EQ(fixed(3.14159, 2), "3.14");
  EXPECT_EQ(fixed(2.0, 0), "2");
}

TEST(Strings, SplitOnDelimiter) {
  const auto fields = split("a,b,,c", ',');
  ASSERT_EQ(fields.size(), 4u);
  EXPECT_EQ(fields[0], "a");
  EXPECT_EQ(fields[2], "");
  EXPECT_EQ(fields[3], "c");
}

TEST(Strings, SplitKeepsTrailingEmptyField) {
  const auto fields = split("a,", ',');
  ASSERT_EQ(fields.size(), 2u);
  EXPECT_EQ(fields[1], "");
}

TEST(Strings, ToLowerOnlyTouchesAscii) {
  EXPECT_EQ(to_lower("AbC-12"), "abc-12");
}

TEST(Strings, StartsWith) {
  EXPECT_TRUE(starts_with("fuseconv", "fuse"));
  EXPECT_FALSE(starts_with("fu", "fuse"));
}

// --- csv --------------------------------------------------------------------

TEST(Csv, EscapesOnlyWhenNeeded) {
  EXPECT_EQ(csv_escape("plain"), "plain");
  EXPECT_EQ(csv_escape("a,b"), "\"a,b\"");
  EXPECT_EQ(csv_escape("say \"hi\""), "\"say \"\"hi\"\"\"");
  EXPECT_EQ(csv_escape("line\nbreak"), "\"line\nbreak\"");
}

TEST(Csv, WritesRowsToFile) {
  const std::string path = testing::TempDir() + "/fuse_csv_test.csv";
  {
    CsvWriter writer(path);
    writer.write_header({"name", "value"});
    writer.write_row({"a,b", "1"});
  }
  std::ifstream in(path);
  std::string line1, line2;
  std::getline(in, line1);
  std::getline(in, line2);
  EXPECT_EQ(line1, "name,value");
  EXPECT_EQ(line2, "\"a,b\",1");
  std::remove(path.c_str());
}

TEST(Csv, ThrowsOnUnwritablePath) {
  EXPECT_THROW(CsvWriter("/nonexistent-dir/x.csv"), Error);
}

// --- table ------------------------------------------------------------------

TEST(Table, AlignsColumnsToWidestCell) {
  TablePrinter table({"net", "speedup"});
  table.add_row({"MobileNet-V1", "6.76x"});
  table.add_row({"V2", "7.23x"});
  const std::string out = table.to_string();
  EXPECT_NE(out.find("| MobileNet-V1 |"), std::string::npos) << out;
  EXPECT_NE(out.find("| V2           |"), std::string::npos) << out;
}

TEST(Table, PadsShortRows) {
  TablePrinter table({"a", "b", "c"});
  table.add_row({"1"});
  EXPECT_NO_THROW(table.to_string());
}

TEST(Table, SeparatorRendersFullWidth) {
  TablePrinter table({"x"});
  table.add_row({"1"});
  table.add_separator();
  table.add_row({"2"});
  const std::string out = table.to_string();
  // header top + below header + mid separator + bottom = 4 separators
  int count = 0;
  for (std::size_t pos = 0; (pos = out.find("+---", pos)) != std::string::npos;
       ++pos) {
    ++count;
  }
  EXPECT_EQ(count, 4);
}

// --- cli --------------------------------------------------------------------

TEST(Cli, ParsesTypedFlags) {
  CliFlags flags;
  flags.add_int("size", 64, "array size");
  flags.add_string("net", "v2", "network");
  flags.add_double("ratio", 0.5, "ratio");
  flags.add_bool("csv", false, "emit csv");
  const char* argv[] = {"prog",        "--size=32", "--net", "v1",
                        "--ratio=2.5", "--csv"};
  flags.parse(6, argv);
  EXPECT_EQ(flags.get_int("size"), 32);
  EXPECT_EQ(flags.get_string("net"), "v1");
  EXPECT_DOUBLE_EQ(flags.get_double("ratio"), 2.5);
  EXPECT_TRUE(flags.get_bool("csv"));
}

TEST(Cli, DefaultsSurviveWhenNotPassed) {
  CliFlags flags;
  flags.add_int("size", 64, "array size");
  const char* argv[] = {"prog"};
  flags.parse(1, argv);
  EXPECT_EQ(flags.get_int("size"), 64);
}

/// Parses `args` and expects a FUSE_CHECK failure whose message contains
/// `names` (the flag or argument at fault).
void expect_rejected(CliFlags flags, std::vector<const char*> args,
                     const std::string& names) {
  args.insert(args.begin(), "prog");
  try {
    flags.parse(static_cast<int>(args.size()), args.data());
    ADD_FAILURE() << args[1] << " parsed";
  } catch (const Error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find(names), std::string::npos) << what;
  }
}

TEST(Cli, MalformedInputFailsNamingTheFlag) {
  CliFlags flags;
  flags.add_string("net", "v2", "network");
  flags.add_int("size", 64, "array size");
  flags.add_double("freq-mhz", 700.0, "clock");
  flags.add_bool("csv", false, "emit csv");
  struct Case {
    std::vector<const char*> args;
    const char* names;
  };
  // Per flag kind: empty value, trailing garbage, out of range,
  // non-finite, no value, unknown flag, single dash, positional. A string
  // takes any value, an empty one included; a bool needs none.
  const Case cases[] = {
      {{"--net"}, "--net"},
      {{"--net", "--csv"}, "--net"},
      {{"--nett=v1"}, "--nett"},
      {{"-net=v1"}, "-net=v1"},
      {{"v1"}, "'v1'"},
      {{"--size="}, "--size"},
      {{"--size=16x"}, "--size"},
      {{"--size=99999999999999999999"}, "--size"},
      {{"--size=-99999999999999999999"}, "--size"},
      {{"--size=inf"}, "--size"},
      {{"--size"}, "--size"},
      {{"--sizes=16"}, "--sizes"},
      {{"-size=16"}, "-size=16"},
      {{"size=16"}, "'size=16'"},
      {{"--freq-mhz="}, "--freq-mhz"},
      {{"--freq-mhz=700MHz"}, "--freq-mhz"},
      {{"--freq-mhz=1e999"}, "--freq-mhz"},
      {{"--freq-mhz=inf"}, "--freq-mhz"},
      {{"--freq-mhz=-infinity"}, "--freq-mhz"},
      {{"--freq-mhz=nan"}, "--freq-mhz"},
      {{"--freq-mhz"}, "--freq-mhz"},
      {{"--freq=700"}, "--freq"},
      {{"-freq-mhz=700"}, "-freq-mhz=700"},
      {{"700"}, "'700'"},
      {{"--csv="}, "--csv"},
      {{"--csv=truex"}, "--csv"},
      {{"--csv=2"}, "--csv"},
      {{"--csvv"}, "--csvv"},
      {{"-csv"}, "-csv"},
      {{"csv"}, "'csv'"},
  };
  for (const Case& c : cases) {
    expect_rejected(flags, c.args, c.names);
  }
}

TEST(Cli, NarrowingToIntIsChecked) {
  // 2^32 + 1 fits int64 but would wrap to 1 as an int.
  CliFlags flags;
  flags.add_int("max-batch", 8, "cap");
  const char* argv[] = {"prog", "--max-batch=4294967297"};
  flags.parse(2, argv);
  EXPECT_EQ(flags.get_int("max-batch"), 4294967297LL);
  try {
    (void)flags.get_int32("max-batch");
    ADD_FAILURE() << "narrowed silently";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("--max-batch"), std::string::npos);
  }
  const char* in_range[] = {"prog", "--max-batch=-2147483648"};
  flags.parse(2, in_range);
  EXPECT_EQ(flags.get_int32("max-batch"), -2147483647 - 1);
}

TEST(Cli, BoolAcceptsExplicitValues) {
  CliFlags flags;
  flags.add_bool("csv", false, "emit csv");
  const char* argv[] = {"prog", "--csv=TRUE"};
  flags.parse(2, argv);
  EXPECT_TRUE(flags.get_bool("csv"));
}

TEST(Cli, RejectsPositionalArguments) {
  // Every binary dropped what parse() used to return, so "bench size=16"
  // silently ran the default; a positional argument is now an error.
  CliFlags flags;
  flags.add_bool("csv", false, "emit csv");
  expect_rejected(flags, {"pos1", "--csv"}, "'pos1'");
  expect_rejected(flags, {"--csv", "pos2"}, "'pos2'");
}

TEST(Cli, NegativeValueMayFollowItsFlag) {
  CliFlags flags;
  flags.add_int("offset", 0, "offset");
  const char* argv[] = {"prog", "--offset", "-5"};
  flags.parse(3, argv);
  EXPECT_EQ(flags.get_int("offset"), -5);
}

TEST(Cli, TypeMismatchOnGetThrows) {
  CliFlags flags;
  flags.add_int("size", 64, "array size");
  EXPECT_THROW(flags.get_string("size"), Error);
}

TEST(Cli, UsageListsFlags) {
  CliFlags flags;
  flags.add_int("size", 64, "array size");
  const std::string usage = flags.usage("prog");
  EXPECT_NE(usage.find("--size"), std::string::npos);
  EXPECT_NE(usage.find("array size"), std::string::npos);
}


TEST(Cli, HelpPrintsUsageAndExitsZero) {
  CliFlags flags;
  flags.add_int("size", 64, "array size");
  const char* argv[] = {"prog", "--help"};
  // (The usage text goes to stdout; EXPECT_EXIT's matcher sees stderr, so
  // only the exit code is asserted here.)
  EXPECT_EXIT(flags.parse(2, argv), ::testing::ExitedWithCode(0), "");
}

}  // namespace
}  // namespace fuse::util
