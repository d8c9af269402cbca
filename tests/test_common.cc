/** @file Unit tests for src/common. */

#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <vector>

#include "common/cli.hh"
#include "common/logging.hh"
#include "common/rng.hh"
#include "common/stats_util.hh"
#include "common/table_writer.hh"
#include "common/types.hh"

using namespace pcstall;

TEST(Types, ClockPeriodRoundTrips)
{
    EXPECT_EQ(clockPeriod(1'000 * freqMHz), 1000);
    EXPECT_EQ(clockPeriod(2'000 * freqMHz), 500);
    // 2.2 GHz: 454.5... ps rounds to 455.
    EXPECT_EQ(clockPeriod(2'200 * freqMHz), 455);
}

TEST(Types, CyclesIn)
{
    EXPECT_EQ(cyclesIn(tickUs, 1'000 * freqMHz), 1000);
    EXPECT_EQ(cyclesIn(tickUs, 2'000 * freqMHz), 2000);
}

TEST(Types, UnitHelpers)
{
    EXPECT_DOUBLE_EQ(freqGHzD(1'700 * freqMHz), 1.7);
    EXPECT_DOUBLE_EQ(tickSeconds(tickUs), 1e-6);
    EXPECT_DOUBLE_EQ(tickSeconds(tickMs), 1e-3);
}

TEST(Rng, Deterministic)
{
    Rng a(123), b(123);
    for (int i = 0; i < 100; ++i)
        EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, CopyPreservesStream)
{
    Rng a(7);
    a.next();
    Rng b = a;
    for (int i = 0; i < 50; ++i)
        EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, BelowInRange)
{
    Rng r(9);
    for (int i = 0; i < 1000; ++i)
        EXPECT_LT(r.below(17), 17u);
}

TEST(Rng, UniformInUnitInterval)
{
    Rng r(5);
    double sum = 0.0;
    for (int i = 0; i < 10000; ++i) {
        const double u = r.uniform();
        ASSERT_GE(u, 0.0);
        ASSERT_LT(u, 1.0);
        sum += u;
    }
    EXPECT_NEAR(sum / 10000.0, 0.5, 0.02);
}

TEST(Rng, ForkIndependent)
{
    Rng a(11);
    Rng child = a.fork();
    EXPECT_NE(a.next(), child.next());
}

TEST(Rng, MixHashAvalanche)
{
    // Flipping one input bit should flip about half the output bits.
    int total = 0;
    for (int bit = 0; bit < 64; ++bit) {
        const std::uint64_t h1 = mixHash(0x1234567890ABCDEFULL);
        const std::uint64_t h2 =
            mixHash(0x1234567890ABCDEFULL ^ (1ULL << bit));
        total += __builtin_popcountll(h1 ^ h2);
    }
    EXPECT_NEAR(total / 64.0, 32.0, 6.0);
}

TEST(Stats, MeanAndGeomean)
{
    const std::vector<double> xs{1.0, 2.0, 4.0};
    EXPECT_DOUBLE_EQ(mean(xs), 7.0 / 3.0);
    EXPECT_DOUBLE_EQ(geomean(xs), 2.0);
    EXPECT_DOUBLE_EQ(mean({}), 0.0);
    EXPECT_DOUBLE_EQ(geomean({}), 0.0);
}

TEST(Stats, GeomeanRejectsNonPositive)
{
    const std::vector<double> xs{1.0, 0.0, 4.0};
    EXPECT_DOUBLE_EQ(geomean(xs), 0.0);
}

TEST(Stats, LinearFitExact)
{
    const std::vector<double> xs{1.0, 2.0, 3.0, 4.0};
    const std::vector<double> ys{3.0, 5.0, 7.0, 9.0};
    const LinearFit fit = linearFit(xs, ys);
    EXPECT_NEAR(fit.slope, 2.0, 1e-12);
    EXPECT_NEAR(fit.intercept, 1.0, 1e-12);
    EXPECT_NEAR(fit.r2, 1.0, 1e-12);
}

TEST(Stats, LinearFitConstantSeries)
{
    const std::vector<double> xs{1.0, 2.0, 3.0};
    const std::vector<double> ys{5.0, 5.0, 5.0};
    const LinearFit fit = linearFit(xs, ys);
    EXPECT_DOUBLE_EQ(fit.slope, 0.0);
    EXPECT_DOUBLE_EQ(fit.intercept, 5.0);
    EXPECT_DOUBLE_EQ(fit.r2, 1.0);
}

TEST(Stats, LinearFitDegenerate)
{
    const std::vector<double> xs{2.0, 2.0};
    const std::vector<double> ys{1.0, 3.0};
    const LinearFit fit = linearFit(xs, ys);
    EXPECT_DOUBLE_EQ(fit.slope, 0.0);
    EXPECT_DOUBLE_EQ(fit.intercept, 2.0);
}

TEST(Stats, AvgRelativeChange)
{
    // Alternating 1,2,1,2: mean |delta| = 1, mean |value| = 1.5.
    const std::vector<double> xs{1.0, 2.0, 1.0, 2.0};
    EXPECT_NEAR(avgRelativeChange(xs), 1.0 / 1.5, 1e-12);
    EXPECT_DOUBLE_EQ(avgRelativeChange({{5.0}}), 0.0);
    const std::vector<double> flat{3.0, 3.0, 3.0};
    EXPECT_DOUBLE_EQ(avgRelativeChange(flat), 0.0);
}

TEST(Stats, RelativeDiff)
{
    EXPECT_DOUBLE_EQ(relativeDiff(1.0, 3.0), 1.0);
    EXPECT_DOUBLE_EQ(relativeDiff(0.0, 0.0), 0.0);
    EXPECT_DOUBLE_EQ(relativeDiff(2.0, 2.0), 0.0);
}

TEST(TableWriter, AlignedOutput)
{
    TableWriter t({"a", "long_header"});
    t.beginRow().cell("x").cell(1.5, 1);
    t.endRow();
    std::ostringstream os;
    t.print(os);
    const std::string out = os.str();
    EXPECT_NE(out.find("long_header"), std::string::npos);
    EXPECT_NE(out.find("1.5"), std::string::npos);
    EXPECT_EQ(t.rowCount(), 1u);
}

TEST(TableWriter, CsvOutput)
{
    TableWriter t({"a", "b"});
    t.addRow({"1", "2"});
    std::ostringstream os;
    t.printCsv(os);
    EXPECT_EQ(os.str(), "a,b\n1,2\n");
}

TEST(TableWriter, Formatters)
{
    EXPECT_EQ(formatFixed(1.23456, 2), "1.23");
    EXPECT_EQ(formatPercent(0.316, 1), "31.6%");
}

namespace
{

/** Parse @p args (argv[0] is "prog") against a small flag table. */
CliOptions
parseCli(std::vector<std::string> args)
{
    args.insert(args.begin(), "prog");
    std::vector<char *> argv;
    for (std::string &a : args)
        argv.push_back(a.data());
    return CliOptions(static_cast<int>(argv.size()), argv.data(),
                      {{"cus", "N"}, {"scale", "X"}, {"csv", ""},
                       {"missing", "N"}});
}

} // namespace

TEST(Cli, ParsesOptionsAndPositionals)
{
    const CliOptions cli =
        parseCli({"--cus", "32", "--csv", "--scale=0.5", "pos1"});
    EXPECT_EQ(cli.getInt("cus", 1), 32);
    EXPECT_TRUE(cli.has("csv"));
    EXPECT_DOUBLE_EQ(cli.getDouble("scale", 1.0), 0.5);
    EXPECT_EQ(cli.getInt("missing", 7), 7);
    ASSERT_EQ(cli.positional().size(), 1u);
    EXPECT_EQ(cli.positional()[0], "pos1");
}

TEST(Cli, MalformedValuesFallBackAndAreDiagnosed)
{
    const CliOptions cli = parseCli({"--cus", "lots", "--scale=fast"});
    EXPECT_EQ(cli.getInt("cus", 8), 8);
    EXPECT_DOUBLE_EQ(cli.getDouble("scale", 1.0), 1.0);
    ASSERT_EQ(cli.errors().size(), 2u);
    EXPECT_NE(cli.errors()[0].find("--cus"), std::string::npos);
    EXPECT_NE(cli.errors()[1].find("--scale"), std::string::npos);
}

TEST(Cli, UndeclaredFlagIsFatalAndNamesIt)
{
    ::testing::internal::CaptureStderr();
    EXPECT_THROW(parseCli({"--cus", "4", "--bogus-flag", "3"}),
                 FatalError);
    const std::string err = ::testing::internal::GetCapturedStderr();
    EXPECT_NE(err.find("unknown option --bogus-flag"), std::string::npos)
        << err;
    EXPECT_NE(err.find("usage: prog [options]"), std::string::npos)
        << err;
    EXPECT_NE(err.find("[--cus N]"), std::string::npos) << err;
}

TEST(Cli, BooleanFlagLeavesTheNextTokenPositional)
{
    const CliOptions cli = parseCli({"--csv", "pos1", "--cus", "4"});
    EXPECT_TRUE(cli.has("csv"));
    EXPECT_EQ(cli.get("csv", ""), "1");
    ASSERT_EQ(cli.positional().size(), 1u);
    EXPECT_EQ(cli.positional()[0], "pos1");
    EXPECT_EQ(cli.getInt("cus", 8), 4);
}

TEST(Cli, DoubleDashEndsOptions)
{
    const CliOptions cli =
        parseCli({"--cus", "4", "--", "harness", "--bogus", "--help"});
    EXPECT_EQ(cli.getInt("cus", 8), 4);
    const std::vector<std::string> want = {"harness", "--bogus",
                                           "--help"};
    EXPECT_EQ(cli.positional(), want);
}

TEST(Cli, HelpPrintsUsageAndExitsCleanly)
{
    for (const char *help : {"--help", "-h"}) {
        ::testing::internal::CaptureStdout();
        EXPECT_THROW(parseCli({"--cus", "4", help}), CleanExit);
        const std::string out = ::testing::internal::GetCapturedStdout();
        EXPECT_EQ(out.rfind("usage: prog [options]\noptions:", 0), 0u)
            << out;
        EXPECT_NE(out.find("[--csv]"), std::string::npos) << out;
    }
}

TEST(Cli, ValueFlagWithoutValueKeepsItsDefault)
{
    const CliOptions cli = parseCli({"--cus", "--csv"});
    EXPECT_FALSE(cli.has("cus"));
    EXPECT_TRUE(cli.has("csv"));
    ASSERT_EQ(cli.errors().size(), 1u);
    EXPECT_NE(cli.errors()[0].find("--cus: missing N"), std::string::npos);
}

TEST(Stats, StdDevKnownValues)
{
    const std::vector<double> xs{2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0,
                                 9.0};
    EXPECT_NEAR(stddev(xs), 2.138, 0.001);
    EXPECT_DOUBLE_EQ(stddev({{1.0}}), 0.0);
}

TEST(Stats, ClampTo)
{
    EXPECT_DOUBLE_EQ(clampTo(5.0, 0.0, 1.0), 1.0);
    EXPECT_DOUBLE_EQ(clampTo(-5.0, 0.0, 1.0), 0.0);
    EXPECT_DOUBLE_EQ(clampTo(0.5, 0.0, 1.0), 0.5);
}

TEST(Rng, RangeIsInclusive)
{
    Rng r(3);
    bool saw_lo = false, saw_hi = false;
    for (int i = 0; i < 2000; ++i) {
        const auto v = r.range(2, 5);
        ASSERT_GE(v, 2);
        ASSERT_LE(v, 5);
        saw_lo |= v == 2;
        saw_hi |= v == 5;
    }
    EXPECT_TRUE(saw_lo);
    EXPECT_TRUE(saw_hi);
}

TEST(Rng, ChanceRespectsProbability)
{
    Rng r(17);
    int hits = 0;
    for (int i = 0; i < 10000; ++i)
        hits += r.chance(0.25) ? 1 : 0;
    EXPECT_NEAR(hits / 10000.0, 0.25, 0.02);
}
