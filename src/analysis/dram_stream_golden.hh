/**
 * @file
 * Command-stream fixtures for the DRAM scheduler: seeded random
 * request streams fed straight into a DramSystem, with the FR-FCFS
 * outcome of each — the DramProtocolChecker command-stream hash, the
 * completion order and cycles, and the cycles each event-skipping
 * replay visits — pinned one JSON line per case in
 * tests/golden/dram_command_streams.json.
 *
 * The batch goldens reach the DRAM only through whole-system runs on
 * open-page HBM2/DDR4 timing. These cases also cover closed-page row
 * policy, the PCM media timing and priority-heavy traffic, so a
 * change to command selection or to an event bound in any of them
 * moves a fixture line. The fixture is maintained by
 * `update_golden --dram-streams` with the usual dry-run /
 * --update-golden semantics.
 */

#ifndef MNPU_ANALYSIS_DRAM_STREAM_GOLDEN_HH
#define MNPU_ANALYSIS_DRAM_STREAM_GOLDEN_HH

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "common/types.hh"
#include "dram/dram_timing.hh"

namespace mnpu
{

/** Traffic shape of a stream case. */
enum class DramStreamMix
{
    Bulk,          //!< DMA-like traffic only, no priority requests
    Mixed,         //!< 10% priority (walk-like) reads
    PriorityHeavy, //!< 50% priority reads
};

/** One committed stream case. */
struct DramStreamCase
{
    std::string name;     //!< fixture line key, e.g. "ddr4-closed-mixed"
    std::string protocol; //!< DramTiming preset: "hbm2" | "ddr4" | "pcm"
    RowPolicy rowPolicy = RowPolicy::Open;
    DramStreamMix mix = DramStreamMix::Bulk;
    std::uint64_t seed = 0;
};

/**
 * The committed case set: every preset × both row policies × every
 * mix, in a stable order with stable names.
 */
const std::vector<DramStreamCase> &dramStreamCases();

/** How a replay advances time between ticks. */
enum class DramReplay
{
    PerCycle,    //!< tick every cycle (the reference semantics)
    SharpBound,  //!< jump to DramSystem::nextEventCycle (channel scans)
    CachedBound, //!< setEventDriven(true): per-channel cached bounds
};

/** What one replay of a stream case produced. */
struct DramStreamOutcome
{
    std::uint64_t requests = 0;
    std::uint64_t commands = 0;       //!< commands the checkers saw
    std::uint64_t streamHash = 0;     //!< DramSystem::protocolStreamHash
    std::uint64_t completions = 0;
    /** FNV-1a over (tag, cycle) of every completion, in order. */
    std::uint64_t completionHash = 0;
    Cycle lastCompletion = 0;
    std::uint64_t activates = 0;
    std::uint64_t rowHits = 0;
    std::uint64_t refreshes = 0;
    std::uint64_t visits = 0; //!< cycles the replay ticked

    /** Set when a mid-stream snapshot was taken and restored. */
    bool snapshotTaken = false;
    /** The restored system re-serialized to the snapshot's bytes. */
    bool snapshotStable = false;

    /** Equal command streams and completions (visits aside). */
    bool sameStream(const DramStreamOutcome &other) const;
};

/**
 * Replay @p stream_case under @p replay with protocol checks on.
 * Requests are admitted at their arrival cycle; a refused request is
 * retried, in order, at every later visit until accepted.
 *
 * With @p snapshot_at_visit set, at the first visit at or after it
 * that follows a refused admission (so some channel queue is full),
 * the DramSystem is saved, restored into a freshly built system, and
 * the replay continues on the restored copy.
 */
DramStreamOutcome
runDramStreamCase(const DramStreamCase &stream_case, DramReplay replay,
                  std::optional<std::uint64_t> snapshot_at_visit =
                      std::nullopt);

/**
 * The case's fixture line: the per-cycle replay's outcome plus the
 * visit counts of both event-skipping replays, as one JSON line.
 */
std::string dramStreamLine(const DramStreamCase &stream_case);

/** tests/golden/dram_command_streams.json under @p dir. */
std::string dramStreamFixturePath(const std::string &dir);

} // namespace mnpu

#endif // MNPU_ANALYSIS_DRAM_STREAM_GOLDEN_HH
