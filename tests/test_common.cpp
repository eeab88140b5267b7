// Unit tests for src/common: RNG determinism and distributions, stats,
// table rendering, CLI parsing.
#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <sstream>
#include <thread>
#include <vector>

#include "common/cli.h"
#include "common/error.h"
#include "common/json.h"
#include "common/log.h"
#include "common/rng.h"
#include "common/stats.h"
#include "common/table.h"

namespace fusedml {
namespace {

TEST(Rng, DeterministicAcrossInstances) {
  Rng a(42), b(42);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.next_u64(), b.next_u64());
  }
}

TEST(Rng, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 100; ++i) {
    if (a.next_u64() == b.next_u64()) ++same;
  }
  EXPECT_LT(same, 3);
}

TEST(Rng, UniformInUnitInterval) {
  Rng rng(7);
  double lo = 1.0, hi = 0.0, sum = 0.0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) {
    const double u = rng.uniform();
    ASSERT_GE(u, 0.0);
    ASSERT_LT(u, 1.0);
    lo = std::min(lo, u);
    hi = std::max(hi, u);
    sum += u;
  }
  EXPECT_NEAR(sum / n, 0.5, 0.02);
  EXPECT_LT(lo, 0.01);
  EXPECT_GT(hi, 0.99);
}

TEST(Rng, NormalMoments) {
  Rng rng(11);
  const int n = 50000;
  double sum = 0, sq = 0;
  for (int i = 0; i < n; ++i) {
    const double x = rng.normal();
    sum += x;
    sq += x * x;
  }
  EXPECT_NEAR(sum / n, 0.0, 0.03);
  EXPECT_NEAR(sq / n, 1.0, 0.05);
}

TEST(Rng, PoissonMean) {
  Rng rng(13);
  for (double lambda : {0.5, 4.0, 60.0}) {
    const int n = 20000;
    double sum = 0;
    for (int i = 0; i < n; ++i) sum += static_cast<double>(rng.poisson(lambda));
    EXPECT_NEAR(sum / n, lambda, lambda * 0.1 + 0.05) << "lambda=" << lambda;
  }
}

TEST(Rng, SampleWithoutReplacementIsSortedAndDistinct) {
  Rng rng(17);
  const auto s = rng.sample_without_replacement(100, 30);
  ASSERT_EQ(s.size(), 30u);
  for (usize i = 1; i < s.size(); ++i) {
    ASSERT_LT(s[i - 1], s[i]);
  }
  for (index_t v : s) {
    ASSERT_GE(v, 0);
    ASSERT_LT(v, 100);
  }
}

TEST(Rng, SampleWholeRange) {
  Rng rng(19);
  const auto s = rng.sample_without_replacement(10, 10);
  ASSERT_EQ(s.size(), 10u);
  for (index_t i = 0; i < 10; ++i) EXPECT_EQ(s[static_cast<usize>(i)], i);
}

TEST(Rng, UniformIndexRejectsZero) {
  Rng rng(23);
  EXPECT_THROW(rng.uniform_index(0), Error);
}

TEST(Stats, MeanStddev) {
  const std::vector<double> xs = {1, 2, 3, 4, 5};
  EXPECT_DOUBLE_EQ(mean(xs), 3.0);
  EXPECT_NEAR(stddev(xs), std::sqrt(2.5), 1e-12);
}

TEST(Stats, Geomean) {
  const std::vector<double> xs = {1, 4, 16};
  EXPECT_NEAR(geomean(xs), 4.0, 1e-12);
  EXPECT_THROW(geomean(std::vector<double>{1.0, -1.0}), Error);
}

TEST(Stats, Percentile) {
  const std::vector<double> xs = {10, 20, 30, 40};
  EXPECT_DOUBLE_EQ(percentile(xs, 0), 10);
  EXPECT_DOUBLE_EQ(percentile(xs, 100), 40);
  EXPECT_DOUBLE_EQ(percentile(xs, 50), 20);  // nearest rank: ceil(2) = 2
}

TEST(Table, RendersAllCells) {
  Table t({"a", "bb"});
  t.row().add("x").add(1.5, 1);
  t.row().add(42LL).add("y");
  const std::string s = t.str();
  EXPECT_NE(s.find("x"), std::string::npos);
  EXPECT_NE(s.find("1.5"), std::string::npos);
  EXPECT_NE(s.find("42"), std::string::npos);
  EXPECT_EQ(t.row_count(), 2u);
}

TEST(Table, CsvEscapesSpecials) {
  Table t({"name", "value"});
  t.row().add("plain").add("a,b");
  t.row().add("quo\"te").add("multi\nline");
  const std::string csv = t.csv();
  EXPECT_NE(csv.find("name,value\n"), std::string::npos);
  EXPECT_NE(csv.find("plain,\"a,b\"\n"), std::string::npos);
  EXPECT_NE(csv.find("\"quo\"\"te\""), std::string::npos);
  EXPECT_NE(csv.find("\"multi\nline\""), std::string::npos);
}

TEST(Table, RejectsExtraCells) {
  Table t({"only"});
  t.row().add("1");
  EXPECT_THROW(t.add("2"), Error);
}

TEST(Cli, ParsesForms) {
  const char* argv[] = {"prog", "--rows", "100", "--name=abc", "--flag"};
  Cli cli(5, argv);
  EXPECT_EQ(cli.get_int("rows", 1), 100);
  EXPECT_EQ(cli.get_string("name", ""), "abc");
  EXPECT_TRUE(cli.get_bool("flag", false));
  EXPECT_EQ(cli.get_double("absent", 2.5), 2.5);
  cli.finish();
}

TEST(Cli, RejectsUnknownFlag) {
  const char* argv[] = {"prog", "--bogus", "1"};
  Cli cli(3, argv);
  cli.get_int("rows", 1);
  EXPECT_THROW(cli.finish(), Error);
}

TEST(Cli, PositiveFlagsRejectBadValuesByName) {
  const char* argv[] = {"prog",
                        "--scale", "0",
                        "--ratio", "inf",
                        "--requests", "-1",
                        "--rows", "4294967297",
                        "--cols", "12x",
                        "--iterations", "7",
                        "--shrink", "1e-3"};
  Cli cli(15, argv);
  const auto rejects = [&](const std::string& flag, auto def) {
    try {
      cli.get_positive(flag, def);
      ADD_FAILURE() << "--" << flag << " was accepted";
    } catch (const Error& e) {
      EXPECT_NE(std::string(e.what()).find("--" + flag), std::string::npos)
          << e.what();
    }
  };
  rejects("scale", 100.0);       // not > 0
  rejects("ratio", 1.0);         // not finite
  rejects("requests", 96);       // a count below 1
  rejects("rows", index_t{10});  // does not fit index_t
  rejects("cols", 60);           // trailing garbage
  EXPECT_EQ(cli.get_positive("iterations", 20), 7);
  EXPECT_EQ(cli.get_positive("shrink", 100.0), 1e-3);
  EXPECT_EQ(cli.get_positive("absent", 4), 4);
  cli.finish();
}

TEST(Cli, IntDoubleAndBoolFlagsRejectBadValuesByName) {
  const char* argv[] = {"prog",
                        "--seed", "abc",
                        "--offset", "9223372036854775808",
                        "--sparsity", "0.0x1",
                        "--ratio", "nan",
                        "--tiny", "1e-400",
                        "--metrics", "flase",
                        "--count", "-3",
                        "--rate", "2.5e-3",
                        "--dump", "no",
                        "--json", "yes"};
  Cli cli(21, argv);
  const auto rejects = [&](const std::string& flag, const auto& read) {
    try {
      read();
      ADD_FAILURE() << "--" << flag << " was accepted";
    } catch (const Error& e) {
      EXPECT_NE(std::string(e.what()).find("--" + flag), std::string::npos)
          << e.what();
    }
  };
  rejects("seed", [&] { return cli.get_int("seed", 1); });  // not a number
  rejects("offset", [&] { return cli.get_int("offset", 0); });  // overflows
  rejects("sparsity", [&] { return cli.get_double("sparsity", 0.01); });
  rejects("ratio", [&] { return cli.get_double("ratio", 1.0); });  // not finite
  rejects("tiny", [&] { return cli.get_double("tiny", 1.0); });    // underflows
  rejects("metrics", [&] { return cli.get_bool("metrics", false); });
  EXPECT_EQ(cli.get_int("count", 0), -3);
  EXPECT_EQ(cli.get_double("rate", 0.0), 2.5e-3);
  EXPECT_FALSE(cli.get_bool("dump", true));
  EXPECT_TRUE(cli.get_bool("json", false));
  EXPECT_EQ(cli.get_int("absent", 5), 5);
  cli.finish();
}

TEST(Cli, PositiveListRejectsMalformedItemsByName) {
  for (const char* bad : {"12x", "4294967297", "abc", "200,,400", "",
                          "200,", "0,5"}) {
    const char* argv[] = {"prog", "--cols", bad};
    Cli cli(3, argv);
    try {
      cli.get_positive_list<index_t>("cols", {1});
      ADD_FAILURE() << "--cols " << bad << " was accepted";
    } catch (const Error& e) {
      EXPECT_NE(std::string(e.what()).find("--cols"), std::string::npos)
          << e.what();
    }
  }
  const char* argv[] = {"prog", "--cols", "200,400"};
  Cli cli(3, argv);
  EXPECT_EQ(cli.get_positive_list<index_t>("cols", {1}),
            (std::vector<index_t>{200, 400}));
  EXPECT_EQ(cli.get_positive_list<index_t>("rows", {3, 4}),
            (std::vector<index_t>{3, 4}));
}

TEST(Cli, ScaledExtentIsCheckedBeforeTheNarrowingCast) {
  EXPECT_EQ(scaled_extent(15009374, 100.0), 150093);  // truncates
  EXPECT_EQ(scaled_extent(28, 28.0), 1);
  const auto rejects = [](double full, double scale) {
    try {
      scaled_extent(full, scale);
      ADD_FAILURE() << full << " / " << scale << " was accepted";
    } catch (const Error& e) {
      EXPECT_NE(std::string(e.what()).find("--scale"), std::string::npos)
          << e.what();
    }
  };
  rejects(15009374, 0.001);  // 1.5e10 overflows index_t
  rejects(29890095, 1e9);    // truncates to 0 rows
  rejects(11000000, 11000001);
}

TEST(Cli, HelpRequested) {
  const char* argv[] = {"prog", "--help"};
  Cli cli(2, argv);
  EXPECT_TRUE(cli.help_requested());
}

TEST(ErrorMacro, ThrowsWithContext) {
  try {
    FUSEDML_CHECK(false, "context message");
    FAIL() << "should have thrown";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("context message"),
              std::string::npos);
  }
}

namespace {
/// Captures everything written to std::cerr for the lifetime of the object.
class CerrCapture {
 public:
  CerrCapture() : old_(std::cerr.rdbuf(buffer_.rdbuf())) {}
  ~CerrCapture() { std::cerr.rdbuf(old_); }
  std::string str() const { return buffer_.str(); }

 private:
  std::ostringstream buffer_;
  std::streambuf* old_;
};
}  // namespace

TEST(Log, LevelThresholdDropsBelow) {
  const LogLevel saved = log_level();
  set_log_level(LogLevel::kWarn);
  CerrCapture capture;
  FUSEDML_LOG_DEBUG << "dropped-debug";
  FUSEDML_LOG_INFO << "dropped-info";
  FUSEDML_LOG_WARN << "kept-warn";
  FUSEDML_LOG_ERROR << "kept-error";
  set_log_level(saved);
  const std::string out = capture.str();
  EXPECT_EQ(out.find("dropped-debug"), std::string::npos);
  EXPECT_EQ(out.find("dropped-info"), std::string::npos);
  EXPECT_NE(out.find("kept-warn"), std::string::npos);
  EXPECT_NE(out.find("kept-error"), std::string::npos);
}

TEST(Log, DisabledLevelSkipsItsOperands) {
  const LogLevel saved = log_level();
  int evaluated = 0;
  const auto operand = [&evaluated] {
    ++evaluated;
    return "side-effect";
  };
  CerrCapture capture;
  set_log_level(LogLevel::kInfo);
  FUSEDML_LOG_DEBUG << "skipped " << operand();
  EXPECT_EQ(evaluated, 0) << "a debug operand ran at the info level";
  set_log_level(LogLevel::kDebug);
  FUSEDML_LOG_DEBUG << "written " << operand();
  set_log_level(saved);
  EXPECT_EQ(evaluated, 1);
  const std::string out = capture.str();
  EXPECT_EQ(out.find("skipped"), std::string::npos);
  EXPECT_NE(out.find("[DEBUG] written side-effect"), std::string::npos)
      << out;
}

TEST(Log, ConcurrentLinesStayUnscrambled) {
  const LogLevel saved = log_level();
  set_log_level(LogLevel::kInfo);
  CerrCapture capture;
  constexpr int kThreads = 4, kLines = 50;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([t] {
      for (int i = 0; i < kLines; ++i) {
        FUSEDML_LOG_INFO << "thread" << t << "-line" << i << "-end";
      }
    });
  }
  for (auto& th : threads) th.join();
  set_log_level(saved);

  // Every line must be a complete "[INFO ] threadT-lineI-end" — interleaved
  // writes would tear the marker apart.
  std::istringstream lines(capture.str());
  std::string line;
  int complete = 0;
  while (std::getline(lines, line)) {
    EXPECT_NE(line.find("[INFO ] thread"), std::string::npos) << line;
    EXPECT_EQ(line.rfind("-end"), line.size() - 4) << line;
    ++complete;
  }
  EXPECT_EQ(complete, kThreads * kLines);
}

TEST(Log, ParseLevelRoundTripsAndRejects) {
  EXPECT_EQ(parse_log_level("debug"), LogLevel::kDebug);
  EXPECT_EQ(parse_log_level("info"), LogLevel::kInfo);
  EXPECT_EQ(parse_log_level("warn"), LogLevel::kWarn);
  EXPECT_EQ(parse_log_level("error"), LogLevel::kError);
  for (const auto level : {LogLevel::kDebug, LogLevel::kInfo, LogLevel::kWarn,
                           LogLevel::kError}) {
    EXPECT_EQ(parse_log_level(to_string(level)), level);
  }
  EXPECT_THROW(parse_log_level("verbose"), std::invalid_argument);
  EXPECT_THROW(parse_log_level("INFO"), std::invalid_argument);  // case matters
  EXPECT_THROW(parse_log_level(""), std::invalid_argument);
}

TEST(Stats, PercentileEdgeCases) {
  EXPECT_THROW(percentile({}, 50.0), Error);       // empty span is an error
  EXPECT_THROW(percentile({}, -1.0), Error);
  const std::vector<double> bad{1.0};
  EXPECT_THROW(percentile(bad, 101.0), Error);     // p outside [0, 100]
  const std::vector<double> one{3.5};
  EXPECT_DOUBLE_EQ(percentile(one, 0.0), 3.5);
  EXPECT_DOUBLE_EQ(percentile(one, 50.0), 3.5);
  EXPECT_DOUBLE_EQ(percentile(one, 100.0), 3.5);
  const std::vector<double> two{1.0, 3.0};
  EXPECT_DOUBLE_EQ(percentile(two, 0.0), 1.0);
  EXPECT_DOUBLE_EQ(percentile(two, 50.0), 1.0);  // nearest rank, observed
  EXPECT_DOUBLE_EQ(percentile(two, 100.0), 3.0);
}

TEST(Json, WriterProducesValidNestedOutput) {
  std::ostringstream os;
  JsonWriter w(os);
  w.begin_object();
  w.member("name", "bench \"quoted\"\n");
  w.member("count", std::uint64_t{42});
  w.member("ratio", 1.5);
  w.member("ok", true);
  w.key("items").begin_array();
  w.value(1).value(2).value("three");
  w.end_array();
  w.key("nested").begin_object().member("inner", -7).end_object();
  w.end_object();
  EXPECT_EQ(os.str(),
            "{\"name\":\"bench \\\"quoted\\\"\\n\",\"count\":42,"
            "\"ratio\":1.5,\"ok\":true,\"items\":[1,2,\"three\"],"
            "\"nested\":{\"inner\":-7}}");
}

TEST(Json, NonFiniteDoublesBecomeNull) {
  std::ostringstream os;
  JsonWriter w(os);
  w.begin_array();
  w.value(std::nan(""));
  w.value(std::numeric_limits<double>::infinity());
  w.end_array();
  EXPECT_EQ(os.str(), "[null,null]");
}

}  // namespace
}  // namespace fusedml
