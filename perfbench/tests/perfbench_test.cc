/**
 * @file
 * Unit tests of the benchmark's own machinery: the percentile
 * helper, span self time, and the output check.
 *
 *   cmake --build .bench_build/perfbench --target perfbench_test
 *   .bench_build/perfbench/perfbench_test
 */

#include <gtest/gtest.h>

#include <map>
#include <string>
#include <vector>

#include "check.hh"
#include "report.hh"
#include "stats.hh"
#include "trace.hh"

using namespace perfbench;
using Recorded = std::map<std::string, std::string>;

namespace
{

std::vector<double>
iota(int n)
{
    std::vector<double> v;
    for (int i = n; i >= 1; --i) // unsorted on purpose
        v.push_back(i);
    return v;
}

SpanRec
span(std::uint64_t id, std::uint64_t parent, const char *name, double t0,
     double t1)
{
    SpanRec s;
    s.id = id;
    s.parent = parent;
    s.name = name;
    s.t0 = t0;
    s.t1 = t1;
    return s;
}

} // namespace

TEST(Percentile, NearestRankWithTenBeyond)
{
    EXPECT_EQ(percentile(iota(1000), 99.0), 990.0);
    EXPECT_EQ(percentile(iota(20), 50.0), 10.0);
    EXPECT_EQ(percentile(iota(21), 50.0), 11.0);
}

TEST(Percentile, RefusesWithFewerThanTenBeyond)
{
    EXPECT_FALSE(percentile(iota(999), 99.0).has_value());
    EXPECT_FALSE(percentile(iota(100), 99.0).has_value());
    EXPECT_FALSE(percentile(iota(19), 50.0).has_value());
    EXPECT_FALSE(percentile({}, 50.0).has_value());
    EXPECT_FALSE(percentile(iota(5000), 100.0).has_value());
}

TEST(Percentile, Median)
{
    EXPECT_EQ(median({3, 1, 2}), 2.0);
    EXPECT_EQ(median({4, 1, 3, 2}), 2.5);
    EXPECT_EQ(median({}), 0.0);
}

TEST(SelfTime, SubtractsTheUnionOfChildren)
{
    // parent [0,10] with overlapping children [1,3] and [2,5] (they
    // cover [1,5]); child a has a grandchild [1.5,2].
    const std::vector<SpanRec> spans = {
        span(1, 0, "parent", 0, 10), span(2, 1, "a", 1, 3),
        span(3, 1, "b", 2, 5), span(4, 2, "leaf", 1.5, 2),
        span(5, 0, "parent", 20, 21)};
    const auto self = selfTimes(spans);
    EXPECT_DOUBLE_EQ(self.at("parent"), 6.0 + 1.0);
    EXPECT_DOUBLE_EQ(self.at("a"), 1.5);
    EXPECT_DOUBLE_EQ(self.at("b"), 3.0);
    EXPECT_DOUBLE_EQ(self.at("leaf"), 0.5);
    EXPECT_DOUBLE_EQ(inclusiveTimes(spans).at("parent"), 11.0);
}

TEST(SelfTime, ClipsChildrenToTheParent)
{
    const std::vector<SpanRec> spans = {span(1, 0, "p", 0, 4),
                                        span(2, 1, "c", 3, 6)};
    EXPECT_DOUBLE_EQ(selfTimes(spans).at("p"), 3.0);
}

TEST(Tracer, NestsOnOneThreadAndSharesRequestIds)
{
    Tracer tr(true);
    {
        Span outer(tr, "outer", 7);
        Span inner(tr, "inner", 7);
    }
    { Span next(tr, "next"); }
    const auto spans = tr.spans();
    ASSERT_EQ(spans.size(), 3u);
    EXPECT_EQ(spans[0].parent, 0u);
    EXPECT_EQ(spans[1].parent, spans[0].id);
    EXPECT_EQ(spans[1].req, 7u);
    EXPECT_EQ(spans[2].parent, 0u);
    for (const auto &s : spans)
        EXPECT_GE(s.t1, s.t0);
}

TEST(Tracer, DisabledRecordsNothing)
{
    Tracer tr(false);
    {
        Span s(tr, "x");
        tr.count("c");
        tr.sample("d", 1.0);
    }
    EXPECT_TRUE(tr.spans().empty());
    EXPECT_EQ(tr.counter("c"), 0.0);
    EXPECT_TRUE(tr.samples("d").empty());
}

TEST(OutputCheck, RecordedValuesPass)
{
    Checker check(Recorded{{"w.cycles", "12345"}, {"w.table", digest("abc")}});
    EXPECT_TRUE(check.expect("w.cycles", "12345"));
    EXPECT_TRUE(check.expect("w.table", digest("abc")));
    EXPECT_TRUE(check.failures().empty());
}

TEST(OutputCheck, PerturbedCycleTotalFails)
{
    Checker check(Recorded{{"w.cycles", "12345"}});
    EXPECT_FALSE(check.expect("w.cycles", "12346"));
    EXPECT_EQ(check.failures().size(), 1u);
}

TEST(OutputCheck, PerturbedDigestFails)
{
    Checker check(Recorded{{"w.table", digest("abc")}});
    EXPECT_NE(digest("abc"), digest("abd"));
    EXPECT_FALSE(check.expect("w.table", digest("abd")));
    EXPECT_EQ(check.failures().size(), 1u);
}

TEST(OutputCheck, UnrecordedKeyAndPassDriftFail)
{
    Checker check(Recorded{{"w.cycles", "1"}});
    EXPECT_FALSE(check.expect("w.other", "1"));
    Checker drift(Recorded{{"w.cycles", "1"}});
    EXPECT_TRUE(drift.expect("w.cycles", "1"));
    EXPECT_FALSE(drift.expect("w.cycles", "2"));
}

TEST(OutputCheck, RecordedFileParsesAndCatchesPerturbation)
{
    std::string text, error;
    ASSERT_TRUE(readFile(PERFBENCH_EXPECTED, text));
    std::map<std::string, std::string> expected;
    ASSERT_TRUE(parseExpected(text, expected, error)) << error;
    ASSERT_TRUE(expected.count("figures_cold.cycles"));
    const std::string cycles = expected.at("figures_cold.cycles");
    const std::string off_by_one =
        std::to_string(std::stoull(cycles) + 1);
    Checker check(expected);
    EXPECT_TRUE(check.expect("figures_cold.cycles", cycles));
    Checker perturbed(expected);
    EXPECT_FALSE(perturbed.expect("figures_cold.cycles", off_by_one));
}

TEST(OutputCheck, MalformedExpectedLineIsRejected)
{
    std::map<std::string, std::string> out;
    std::string error;
    EXPECT_TRUE(parseExpected("# c\n\na 1\n", out, error));
    EXPECT_FALSE(parseExpected("a 1 2\n", out, error));
    EXPECT_FALSE(parseExpected("lonely\n", out, error));
}

TEST(Report, ResultLineCarriesTheContractKeys)
{
    Outcome out;
    out.attempted = 3;
    out.add("wall_s", 1.5, "s");
    const std::string json = resultJson(out, true);
    EXPECT_EQ(json, "{\"correct\": true, \"attempted\": 3, \"failed\": 0, "
                    "\"metrics\": {\"wall_s\": {\"value\": 1.5, "
                    "\"unit\": \"s\"}}}");
}

TEST(Report, TimedPartRunsAtLeastTheMinimumPasses)
{
    Timed timed;
    const double start = nowS() - 100.0; // the time is long used up
    EXPECT_TRUE(timed.another(start, 1.0));
    for (std::size_t i = 0; i < kMinPasses; ++i) {
        EXPECT_TRUE(timed.another(start, 1.0));
        timed.addPass(0.5, {});
    }
    EXPECT_FALSE(timed.another(start, 1.0));
    EXPECT_TRUE(timed.another(nowS(), 1.0)); // one more 0.5 s pass fits
}
