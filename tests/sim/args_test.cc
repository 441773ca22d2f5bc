/** @file Unit tests for command-line parsing. */

#include <gtest/gtest.h>

#include "../../bench/common.hh"
#include "sim/args.hh"

namespace
{

using gs::Args;

Args
parse(std::initializer_list<const char *> argv_list,
      std::map<std::string, std::string> known = {})
{
    std::vector<char *> argv;
    argv.push_back(const_cast<char *>("prog"));
    for (const char *a : argv_list)
        argv.push_back(const_cast<char *>(a));
    return Args(static_cast<int>(argv.size()), argv.data(),
                std::move(known));
}

TEST(Args, ParsesKeyValue)
{
    auto args = parse({"--cpus=16", "--name=torus"});
    EXPECT_EQ(args.getInt("cpus", 0), 16);
    EXPECT_EQ(args.getString("name", ""), "torus");
}

TEST(Args, DefaultsWhenAbsent)
{
    auto args = parse({});
    EXPECT_EQ(args.getInt("cpus", 8), 8);
    EXPECT_DOUBLE_EQ(args.getDouble("scale", 1.5), 1.5);
    EXPECT_FALSE(args.has("cpus"));
}

TEST(Args, BareFlagIsTrue)
{
    auto args = parse({"--verbose"});
    EXPECT_TRUE(args.getBool("verbose", false));
    EXPECT_TRUE(args.has("verbose"));
}

TEST(Args, FalseSpellings)
{
    EXPECT_FALSE(parse({"--x=0"}).getBool("x", true));
    EXPECT_FALSE(parse({"--x=false"}).getBool("x", true));
    EXPECT_FALSE(parse({"--x=no"}).getBool("x", true));
    EXPECT_TRUE(parse({"--x=1"}).getBool("x", false));
}

TEST(Args, DoubleParsing)
{
    auto args = parse({"--frac=0.25"});
    EXPECT_DOUBLE_EQ(args.getDouble("frac", 0), 0.25);
}

TEST(Args, SpaceSeparatedValue)
{
    auto args = parse({"--jobs", "8", "--frac", "0.5", "--name", "x"});
    EXPECT_EQ(args.getInt("jobs", 0), 8);
    EXPECT_DOUBLE_EQ(args.getDouble("frac", 0), 0.5);
    EXPECT_EQ(args.getString("name", ""), "x");
    // A value may start with a single dash.
    EXPECT_EQ(parse({"--offset", "-3"}).getInt("offset", 0), -3);
}

TEST(Args, FlagBeforeAnotherOptionStaysAFlag)
{
    auto args = parse({"--verbose", "--jobs", "2", "--check"});
    EXPECT_TRUE(args.getBool("verbose", false));
    EXPECT_EQ(args.getInt("jobs", 0), 2);
    EXPECT_TRUE(args.getBool("check", false));
}

TEST(Args, NonNumericIntIsFatal)
{
    EXPECT_EXIT(parse({"--threads=four"}).getInt("threads", 1),
                ::testing::ExitedWithCode(1),
                "option --threads expects an integer, got 'four'");
    EXPECT_EXIT(parse({"--threads="}).getInt("threads", 1),
                ::testing::ExitedWithCode(1), "option --threads");
}

TEST(Args, TrailingGarbageIsFatal)
{
    EXPECT_EXIT(parse({"--jobs=4x"}).getInt("jobs", 0),
                ::testing::ExitedWithCode(1),
                "option --jobs expects an integer, got '4x'");
    EXPECT_EXIT(parse({"--frac", "0.5s"}).getDouble("frac", 0),
                ::testing::ExitedWithCode(1),
                "option --frac expects a number, got '0.5s'");
}

TEST(Args, RemovedRouterOptionIsFatal)
{
    // The bench option sets (here fig23_gups's) no longer register
    // --router: an old command line fails instead of silently running
    // the default router.
    auto known = gs::bench::withCheckpointArgs(
        gs::bench::withTelemetryArgs(gs::bench::withEngineArgs(
            gs::bench::withSweepArgs({{"updates", "updates per CPU"}}))));
    EXPECT_EXIT(parse({"--router=buffered"}, known),
                ::testing::ExitedWithCode(1), "unknown option --router");
}

TEST(Args, SummaryBenchTakesSweepOptions)
{
    // fig28_summary's option set: its rows run as sweep points, so
    // --jobs and --seed parse like every other figure bench's.
    auto known = gs::bench::withSweepArgs(
        {{"fast", "skip the 32P simulations"}});
    Args a = parse({"--jobs", "4", "--fast"}, known);
    EXPECT_TRUE(a.getBool("fast", false));
    EXPECT_EQ(gs::bench::makeRunner(a).jobs(), 4);
    EXPECT_EQ(gs::bench::makeRunner(parse({"--jobs=1"}, known)).jobs(), 1);
}

TEST(Args, SerialOnlyBenchRejectsEngineOptions)
{
    // fig12_latency_16p's option set: it never builds a parallel
    // machine, so --threads/--tile-shape fail instead of silently
    // running the serial engine.
    auto known = gs::bench::withSweepArgs(
        {{"loads", "loads per probe (default 4000)"}});
    EXPECT_EXIT(parse({"--threads=4"}, known),
                ::testing::ExitedWithCode(1), "unknown option --threads");
    EXPECT_EXIT(parse({"--tile-shape=2x2"}, known),
                ::testing::ExitedWithCode(1),
                "unknown option --tile-shape");
}

TEST(Args, EngineBenchTakesThreadsAndTileShape)
{
    // fig14_latency_scaling's engine options.
    auto known = gs::bench::withEngineArgs(gs::bench::withSweepArgs(
        {{"loads", "loads per probe (default 3000)"}}));
    Args a = parse({"--threads=4", "--tile-shape=2x2"}, known);
    EXPECT_EQ(gs::bench::machineThreads(a), 4);
    gs::sys::Gs1280Options opt;
    gs::bench::applyTileShape(a, opt);
    EXPECT_EQ(opt.tileRows, 2);
    EXPECT_EQ(opt.tileCols, 2);
}

TEST(Args, OutOfRangeIntIsFatal)
{
    EXPECT_EXIT(parse({"--seed=99999999999999999999"}).getInt("seed", 1),
                ::testing::ExitedWithCode(1), "option --seed");
}

} // namespace
