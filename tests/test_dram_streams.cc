/**
 * @file
 * DRAM command-stream fixtures (analysis/dram_stream_golden.hh): per
 * seeded stream case — HBM2, DDR4 (two ranks, refresh) and PCM media
 * timing, open and closed row policy, bulk / mixed / priority-heavy
 * traffic — the FR-FCFS command stream, completion order and cycles,
 * and the visit counts of both event-skipping replays must match the
 * committed line in tests/golden/dram_command_streams.json exactly.
 *
 * Two properties ride along that the fixture alone cannot show: the
 * event-skipping replays issue the identical stream the per-cycle
 * reference does, and a snapshot taken mid-stream (with a channel
 * queue full) and restored into a fresh system continues that stream
 * unchanged. Regenerate with `update_golden --dram-streams
 * --update-golden` after an intentional behavior change.
 */

#include <fstream>
#include <map>
#include <ostream>
#include <sstream>

#include <gtest/gtest.h>

#include "analysis/dram_stream_golden.hh"

#ifndef MNPU_GOLDEN_DIR
#define MNPU_GOLDEN_DIR "tests/golden"
#endif

namespace mnpu
{

/** Print a case as its name, so test names do not embed raw bytes. */
void
PrintTo(const DramStreamCase &stream_case, std::ostream *os)
{
    *os << stream_case.name;
}

namespace
{

/** Committed fixture lines keyed by case name (loaded once). */
const std::map<std::string, std::string> &
committedLines()
{
    static const std::map<std::string, std::string> lines = [] {
        std::map<std::string, std::string> by_name;
        std::ifstream in(dramStreamFixturePath(MNPU_GOLDEN_DIR));
        const std::string key = "{\"case\":\"";
        std::string line;
        while (std::getline(in, line)) {
            if (line.compare(0, key.size(), key) != 0)
                continue;
            std::size_t end = line.find('"', key.size());
            by_name[line.substr(key.size(), end - key.size())] =
                line + "\n";
        }
        return by_name;
    }();
    return lines;
}

class DramStreamGolden : public testing::TestWithParam<DramStreamCase>
{
};

TEST_P(DramStreamGolden, MatchesCommittedFixture)
{
    const DramStreamCase &stream_case = GetParam();
    auto it = committedLines().find(stream_case.name);
    ASSERT_NE(it, committedLines().end())
        << "no committed line for " << stream_case.name
        << " — run `update_golden --dram-streams --update-golden`";
    EXPECT_EQ(dramStreamLine(stream_case), it->second)
        << "DRAM command stream changed for " << stream_case.name
        << "; if intentional, regenerate with `update_golden "
           "--dram-streams --update-golden` and review the diff";
}

TEST_P(DramStreamGolden, SkippingReplaysIssueTheSameStream)
{
    const DramStreamCase &stream_case = GetParam();
    DramStreamOutcome ref =
        runDramStreamCase(stream_case, DramReplay::PerCycle);
    ASSERT_EQ(ref.completions, ref.requests);
    ASSERT_GT(ref.commands, ref.requests);
    for (DramReplay replay :
         {DramReplay::SharpBound, DramReplay::CachedBound}) {
        DramStreamOutcome skipped = runDramStreamCase(stream_case, replay);
        EXPECT_TRUE(ref.sameStream(skipped))
            << stream_case.name << " replay " << static_cast<int>(replay);
        EXPECT_LT(skipped.visits, ref.visits) << stream_case.name;
    }
}

TEST_P(DramStreamGolden, MidStreamSnapshotReproducesStream)
{
    const DramStreamCase &stream_case = GetParam();
    for (DramReplay replay :
         {DramReplay::PerCycle, DramReplay::CachedBound}) {
        DramStreamOutcome clean = runDramStreamCase(stream_case, replay);
        DramStreamOutcome resumed =
            runDramStreamCase(stream_case, replay, clean.visits / 2);
        ASSERT_TRUE(resumed.snapshotTaken)
            << stream_case.name << ": no refused admission after the "
            << "midpoint to snapshot at";
        EXPECT_TRUE(resumed.snapshotStable)
            << stream_case.name << ": save/load/save is not bit-stable";
        EXPECT_TRUE(clean.sameStream(resumed))
            << stream_case.name << " replay " << static_cast<int>(replay);
    }
}

INSTANTIATE_TEST_SUITE_P(
    AllStreams, DramStreamGolden, testing::ValuesIn(dramStreamCases()),
    [](const testing::TestParamInfo<DramStreamCase> &info) {
        std::string name = info.param.name;
        for (char &c : name) {
            if (c == '-')
                c = '_';
        }
        return name;
    });

TEST(DramStreamSuite, CasesCoverEveryPresetPolicyAndMix)
{
    EXPECT_EQ(dramStreamCases().size(), 18u);
    EXPECT_EQ(committedLines().size(), dramStreamCases().size())
        << "fixture lines and case list disagree";
}

} // namespace
} // namespace mnpu
