#include "analysis/dram_stream_golden.hh"

#include <array>
#include <cstdio>
#include <memory>
#include <random>

#include "common/logging.hh"
#include "common/snapshot.hh"
#include "dram/dram_system.hh"

namespace mnpu
{

namespace
{

constexpr std::uint32_t kChannels = 2;
constexpr std::uint32_t kCores = 2;
constexpr std::uint32_t kQueueDepth = 32;
constexpr std::size_t kRequests = 6000;
constexpr std::uint64_t kFnvBasis = 14695981039346656037ULL;
constexpr std::uint64_t kFnvPrime = 1099511628211ULL;

std::uint64_t
fnvMix(std::uint64_t hash, std::uint64_t value)
{
    for (int i = 0; i < 8; ++i) {
        hash ^= (value >> (8 * i)) & 0xff;
        hash *= kFnvPrime;
    }
    return hash;
}

struct StreamRequest
{
    Cycle arrival = 0;
    DramRequest request;
};

/**
 * Seeded stream in phases: dense bursts that overfill the channel
 * queues (refused admissions, the deep-queue bound rule), trickles
 * that keep the queues shallow (sharp bounds, idle skipping), and
 * rare idle stretches (refresh catch-up). Bulk traffic mostly
 * continues one of four sequential streams (row hits) with scattered
 * lines between them (conflicts); priority requests are scattered
 * reads, as page-table walk steps are.
 */
std::vector<StreamRequest>
makeStream(const DramStreamCase &stream_case)
{
    std::mt19937_64 rng(stream_case.seed);
    const std::uint64_t priority_pct =
        stream_case.mix == DramStreamMix::Bulk    ? 0
        : stream_case.mix == DramStreamMix::Mixed ? 10
                                                  : 50;
    constexpr Addr kWindow = Addr{1} << 23;
    constexpr Addr kLine = 64;
    std::array<Addr, 4> cursors{};
    for (Addr &cursor : cursors)
        cursor = (rng() % kWindow) & ~(kLine - 1);

    std::vector<StreamRequest> stream(kRequests);
    Cycle at = 0;
    std::uint64_t phase_left = 0;
    std::uint64_t max_gap = 1;
    for (std::size_t i = 0; i < stream.size(); ++i) {
        if (phase_left == 0) {
            std::uint64_t roll = rng() % 100;
            if (roll < 45) {
                phase_left = 20 + rng() % 180; // burst
                max_gap = 2;
            } else if (roll < 90) {
                phase_left = 10 + rng() % 40; // trickle
                max_gap = 64;
            } else {
                phase_left = 1; // idle stretch, then one request
                at += 500 + rng() % 4500;
                max_gap = 1;
            }
        }
        --phase_left;
        at += rng() % max_gap;
        StreamRequest &entry = stream[i];
        entry.arrival = at;
        DramRequest &request = entry.request;
        request.tag = i;
        request.core = static_cast<CoreId>(rng() % kCores);
        request.priority = rng() % 100 < priority_pct;
        if (request.priority) {
            request.paddr = (rng() % kWindow) & ~(kLine - 1);
            request.op = MemOp::Read;
            continue;
        }
        if (rng() % 100 < 70) {
            Addr &cursor = cursors[rng() % cursors.size()];
            request.paddr = cursor;
            cursor = (cursor + kLine) % kWindow;
        } else {
            request.paddr = (rng() % kWindow) & ~(kLine - 1);
        }
        request.op = rng() % 100 < 30 ? MemOp::Write : MemOp::Read;
    }
    return stream;
}

std::unique_ptr<DramSystem>
makeSystem(const DramStreamCase &stream_case, DramReplay replay)
{
    DramTiming timing = DramTiming::preset(stream_case.protocol);
    timing.rowPolicy = stream_case.rowPolicy;
    auto dram = std::make_unique<DramSystem>(timing, kChannels, kCores,
                                             kQueueDepth);
    dram->enableProtocolChecks();
    if (replay == DramReplay::CachedBound)
        dram->setEventDriven(true);
    return dram;
}

std::string
hex64(std::uint64_t value)
{
    char buf[24];
    std::snprintf(buf, sizeof(buf), "%016llx",
                  static_cast<unsigned long long>(value));
    return buf;
}

} // namespace

const std::vector<DramStreamCase> &
dramStreamCases()
{
    static const std::vector<DramStreamCase> cases = [] {
        std::vector<DramStreamCase> list;
        const std::pair<RowPolicy, const char *> policies[] = {
            {RowPolicy::Open, "open"}, {RowPolicy::Closed, "closed"}};
        const std::pair<DramStreamMix, const char *> mixes[] = {
            {DramStreamMix::Bulk, "bulk"},
            {DramStreamMix::Mixed, "mixed"},
            {DramStreamMix::PriorityHeavy, "priority"}};
        for (const char *protocol : {"hbm2", "ddr4", "pcm"}) {
            for (const auto &[policy, policy_name] : policies) {
                for (const auto &[mix, mix_name] : mixes) {
                    DramStreamCase entry;
                    entry.name = std::string(protocol) + "-" +
                                 policy_name + "-" + mix_name;
                    entry.protocol = protocol;
                    entry.rowPolicy = policy;
                    entry.mix = mix;
                    entry.seed = 0x5EED0000ULL + list.size();
                    list.push_back(entry);
                }
            }
        }
        return list;
    }();
    return cases;
}

bool
DramStreamOutcome::sameStream(const DramStreamOutcome &other) const
{
    return requests == other.requests && commands == other.commands &&
           streamHash == other.streamHash &&
           completions == other.completions &&
           completionHash == other.completionHash &&
           lastCompletion == other.lastCompletion &&
           activates == other.activates && rowHits == other.rowHits &&
           refreshes == other.refreshes;
}

DramStreamOutcome
runDramStreamCase(const DramStreamCase &stream_case, DramReplay replay,
                  std::optional<std::uint64_t> snapshot_at_visit)
{
    const std::vector<StreamRequest> stream = makeStream(stream_case);
    DramStreamOutcome out;
    out.requests = stream.size();
    out.completionHash = kFnvBasis;
    auto attach = [&out](DramSystem &dram) {
        dram.setCallback([&out](const DramRequest &request, Cycle at) {
            ++out.completions;
            out.completionHash = fnvMix(out.completionHash, request.tag);
            out.completionHash = fnvMix(out.completionHash, at);
            out.lastCompletion = at;
        });
    };
    std::unique_ptr<DramSystem> dram = makeSystem(stream_case, replay);
    attach(*dram);

    std::size_t next = 0;
    Cycle now = 0;
    std::vector<DramRequest> blocked;
    while (next < stream.size() || !blocked.empty() || dram->busy()) {
        if (snapshot_at_visit && !out.snapshotTaken &&
            out.visits >= *snapshot_at_visit && !blocked.empty()) {
            StateWriter saved;
            dram->saveState(saved);
            std::unique_ptr<DramSystem> restored =
                makeSystem(stream_case, replay);
            StateReader in{std::string(saved.bytes())};
            restored->loadState(in);
            StateWriter resaved;
            restored->saveState(resaved);
            out.snapshotTaken = true;
            out.snapshotStable = resaved.bytes() == saved.bytes();
            attach(*restored);
            dram = std::move(restored);
        }
        dram->tick(now);
        ++out.visits;
        std::vector<DramRequest> still;
        for (const DramRequest &request : blocked) {
            if (!dram->tryEnqueue(request, now))
                still.push_back(request);
        }
        blocked.swap(still);
        while (next < stream.size() && stream[next].arrival <= now) {
            if (!dram->tryEnqueue(stream[next].request, now))
                blocked.push_back(stream[next].request);
            ++next;
        }
        Cycle bound = replay == DramReplay::PerCycle
                          ? now + 1
                          : dram->nextEventCycle(now);
        if (next < stream.size())
            bound = std::min(bound,
                             std::max(stream[next].arrival, now + 1));
        if (bound <= now)
            fatal("DRAM stream ", stream_case.name, ": bound ", bound,
                  " does not advance past cycle ", now);
        if (bound == kCycleNever)
            break;
        now = bound;
    }
    out.commands = dram->protocolCommandsChecked();
    out.streamHash = dram->protocolStreamHash();
    out.activates = dram->totalCounter("activates");
    out.rowHits = dram->totalCounter("row_hits");
    out.refreshes = dram->totalCounter("refreshes");
    return out;
}

std::string
dramStreamLine(const DramStreamCase &stream_case)
{
    DramStreamOutcome ref =
        runDramStreamCase(stream_case, DramReplay::PerCycle);
    DramStreamOutcome sharp =
        runDramStreamCase(stream_case, DramReplay::SharpBound);
    DramStreamOutcome cached =
        runDramStreamCase(stream_case, DramReplay::CachedBound);
    auto num = [](std::uint64_t value) { return std::to_string(value); };
    return "{\"case\":\"" + stream_case.name +
           "\",\"requests\":" + num(ref.requests) +
           ",\"commands\":" + num(ref.commands) + ",\"stream_hash\":\"" +
           hex64(ref.streamHash) +
           "\",\"completions\":" + num(ref.completions) +
           ",\"completion_hash\":\"" + hex64(ref.completionHash) +
           "\",\"last_completion\":" + num(ref.lastCompletion) +
           ",\"activates\":" + num(ref.activates) +
           ",\"row_hits\":" + num(ref.rowHits) +
           ",\"refreshes\":" + num(ref.refreshes) +
           ",\"cycle_visits\":" + num(ref.visits) +
           ",\"sharp_visits\":" + num(sharp.visits) +
           ",\"event_visits\":" + num(cached.visits) + "}\n";
}

std::string
dramStreamFixturePath(const std::string &dir)
{
    return dir + "/dram_command_streams.json";
}

} // namespace mnpu
