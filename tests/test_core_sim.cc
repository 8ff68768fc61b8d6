/**
 * @file
 * Integration and property tests of the NPU core + multi-core system:
 * pipeline invariants, clock domains, sharing-level semantics, rate
 * caps, page-size effects, and telemetry consistency.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <future>
#include <ostream>

#include "common/errors.hh"
#include "common/logging.hh"
#include "sim/multi_core_system.hh"
#include "sw/trace_generator.hh"
#include "workloads/models.hh"

namespace mnpu
{
namespace
{

ArchConfig
tinyArch(std::uint64_t freq_mhz = 1000)
{
    ArchConfig arch;
    arch.name = "tiny";
    arch.arrayRows = 16;
    arch.arrayCols = 16;
    arch.spmBytes = 64 << 10;
    arch.freqMhz = freq_mhz;
    arch.validate();
    return arch;
}

NpuMemConfig
tinyMem()
{
    NpuMemConfig mem;
    mem.channelsPerNpu = 2;
    mem.dramCapacityPerNpu = 64ULL << 20;
    mem.tlbEntriesPerNpu = 64;
    mem.ptwPerNpu = 4;
    return mem;
}

std::shared_ptr<const TraceGenerator>
gemmTrace(const std::string &name, std::uint64_t m, std::uint64_t n,
          std::uint64_t k, std::uint32_t layers = 2,
          std::uint64_t freq_mhz = 1000)
{
    Network net;
    net.name = name;
    for (std::uint32_t i = 0; i < layers; ++i)
        net.layers.push_back(
            Layer::gemm("g" + std::to_string(i), m, n, k));
    return std::make_shared<TraceGenerator>(tinyArch(freq_mhz), net);
}

// --- end-to-end sanity of outputs ---

TEST(CoreSimTest, TrafficMatchesTraceWithinTransactionPadding)
{
    auto trace = gemmTrace("t", 256, 256, 256);
    auto result = runIdeal(trace, 1, tinyMem());
    // DRAM bytes are 64 B-aligned expansions of the trace ranges: at
    // least the trace traffic, at most padded by one bus width/range.
    EXPECT_GE(result.cores[0].trafficBytes, trace->totalTrafficBytes());
    EXPECT_LE(result.cores[0].trafficBytes,
              2 * trace->totalTrafficBytes());
}

TEST(CoreSimTest, ExecutionNoFasterThanComputeLowerBound)
{
    auto trace = gemmTrace("t", 256, 256, 256);
    auto result = runIdeal(trace, 1, tinyMem());
    EXPECT_GE(result.cores[0].localCycles,
              trace->computeLowerBoundCycles());
}

TEST(CoreSimTest, LayerFinishTimesMonotone)
{
    auto trace = gemmTrace("t", 128, 128, 128, 4);
    auto result = runIdeal(trace, 1, tinyMem());
    const auto &finishes = result.cores[0].layerFinishLocal;
    ASSERT_EQ(finishes.size(), 4u);
    for (std::size_t i = 1; i < finishes.size(); ++i)
        EXPECT_GE(finishes[i], finishes[i - 1]);
    EXPECT_LE(finishes.back(), result.cores[0].localCycles);
    EXPECT_GT(finishes[0], 0u);
}

TEST(CoreSimTest, PeUtilizationInUnitInterval)
{
    for (const char *model : {"ncf", "yt"}) {
        
        Network net = buildModel(model, ModelScale::Mini);
        auto trace =
            std::make_shared<TraceGenerator>(ArchConfig::miniNpu(), net);
        auto result = runIdeal(trace, 1);
        EXPECT_GT(result.cores[0].peUtilization, 0.0) << model;
        EXPECT_LE(result.cores[0].peUtilization, 1.0) << model;
    }
}

// --- clock domains ---

TEST(CoreSimTest, SlowerCoreTakesMoreGlobalTime)
{
    NpuMemConfig mem = tinyMem();
    auto fast = gemmTrace("fast", 512, 512, 512, 2, 1000);
    auto slow = gemmTrace("slow", 512, 512, 512, 2, 500);
    auto fast_result = runIdeal(fast, 1, mem);
    auto slow_result = runIdeal(slow, 1, mem);
    EXPECT_GT(slow_result.cores[0].finishedAtGlobal,
              fast_result.cores[0].finishedAtGlobal);
}

TEST(CoreSimTest, HeterogeneousFrequenciesCoexist)
{
    NpuMemConfig mem = tinyMem();
    SystemConfig config;
    config.level = SharingLevel::ShareDWT;
    config.mem = mem;
    std::vector<CoreBinding> bindings(2);
    bindings[0].trace = gemmTrace("a", 256, 256, 256, 2, 1000);
    bindings[1].trace = gemmTrace("b", 256, 256, 256, 2, 750);
    MultiCoreSystem system(config, std::move(bindings));
    auto result = system.run();
    EXPECT_GT(result.cores[0].localCycles, 0u);
    EXPECT_GT(result.cores[1].localCycles, 0u);
}

// --- sharing-level semantics ---

/**
 * One solo-bandwidth ordering check: the hungry core runs beside an
 * immediately-finished partner under two sharing setups, and the one
 * with more bandwidth must be faster (strict) or no slower. Each check
 * is its own test running its two simulations on two threads
 * (registered with PROCESSORS 2), so a parallel ctest run spreads them.
 */
struct BandwidthOrderCase
{
    const char *name;
    std::uint32_t layers; //!< layers of the hungry GEMM
    /** Static bandwidth split (hungry core's eighths) of the run with
     *  less bandwidth; 0 = plain Static, half the channels. */
    std::uint32_t lessShare;
    /** Split of the run with more bandwidth; 0 = ShareD instead. */
    std::uint32_t moreShare;
    bool strict;  //!< the run with more bandwidth must be faster
    bool pinDram; //!< pin the DRAM backend (see soloHungryCycles)
};

void
PrintTo(const BandwidthOrderCase &order_case, std::ostream *os)
{
    *os << order_case.name;
}

class BandwidthOrderTest
    : public ::testing::TestWithParam<BandwidthOrderCase>
{
};

/** Hungry core's local cycles beside an idle partner, under Static
 *  with bandwidth split @p share (0 = no split), or under ShareD. */
Cycle
soloHungryCycles(const BandwidthOrderCase &order_case, bool shared,
                 std::uint32_t share)
{
    NpuMemConfig mem = tinyMem();
    // When the token bucket must be the only binding constraint, PCM
    // write-commit holds add enough noise to blur the strict ordering,
    // so such cases pin the backend against a MNPU_MEM_BACKEND process
    // default.
    if (order_case.pinDram)
        mem.backend = MemBackendKind::Dram;
    SystemConfig config;
    config.level = shared ? SharingLevel::ShareD : SharingLevel::Static;
    if (share != 0)
        config.dramBandwidthShares =
            std::vector<std::uint32_t>{share, 8 - share};
    config.mem = mem;
    std::vector<CoreBinding> bindings(2);
    bindings[0].trace = gemmTrace("h", 64, 4096, 2048, order_case.layers);
    bindings[1].trace = gemmTrace("i", 32, 32, 32, 1);
    MultiCoreSystem system(config, std::move(bindings));
    return system.run().cores[0].localCycles;
}

/** Runs both setups of @p order_case concurrently and checks their
 *  order. */
void
expectMoreBandwidthNotSlower(const BandwidthOrderCase &order_case)
{
    std::future<Cycle> more_run = std::async(std::launch::async, [&] {
        return soloHungryCycles(order_case, order_case.moreShare == 0,
                                order_case.moreShare);
    });
    const Cycle less =
        soloHungryCycles(order_case, false, order_case.lessShare);
    const Cycle more = more_run.get();
    if (order_case.strict)
        EXPECT_GT(less, more);
    else
        EXPECT_GE(less, more);
}

TEST(CoreSimTest, StaticRateCapBindsSoloThroughput)
{
    // Static (half the channels) vs dynamic sharing: the tiny partner
    // finishes immediately, so only ShareD lets the hungry core use the
    // whole bandwidth.
    expectMoreBandwidthNotSlower(
        BandwidthOrderCase{"static_vs_shared", 2, 0, 0, true, false});
}

TEST_P(BandwidthOrderTest, MoreBandwidthIsNotSlower)
{
    expectMoreBandwidthNotSlower(GetParam());
}

// Measured against an immediately-finished partner: with a contending
// co-runner the achieved per-core bandwidth sits below the larger caps
// and the ordering drowns in FR-FCFS scheduling noise, but solo the
// token bucket is the one binding constraint at every ratio.
INSTANTIATE_TEST_SUITE_P(
    Solo, BandwidthOrderTest,
    ::testing::Values(
        // Static bandwidth splits: more bandwidth, no slower, with
        // strictly ordered ends.
        BandwidthOrderCase{"share_1_vs_2", 1, 1, 2, false, true},
        BandwidthOrderCase{"share_2_vs_6", 1, 2, 6, false, true},
        BandwidthOrderCase{"share_1_vs_6", 1, 1, 6, true, true}),
    [](const ::testing::TestParamInfo<BandwidthOrderCase> &info) {
        return std::string(info.param.name);
    });

TEST(CoreSimTest, PtwQuotaSweepOrdersTranslationBoundWorkload)
{
    // A gather-heavy workload with almost no compute is walk-bound; its
    // throughput must grow with its walker quota.
    Network net;
    net.name = "gather";
    net.layers.push_back(Layer::embedding("e", 200000, 64, 16, 256));
    auto trace =
        std::make_shared<TraceGenerator>(tinyArch(), net);
    auto partner = gemmTrace("p", 32, 32, 32, 1);

    NpuMemConfig mem = tinyMem(); // 8 walkers total
    std::vector<Cycle> cycles;
    for (std::uint32_t quota : {2u, 6u}) {
        SystemConfig config;
        config.level = SharingLevel::ShareDW;
        config.ptwQuota = std::vector<std::uint32_t>{quota, 8 - quota};
        config.mem = mem;
        std::vector<CoreBinding> bindings(2);
        bindings[0].trace = trace;
        bindings[1].trace = partner;
        MultiCoreSystem system(config, std::move(bindings));
        cycles.push_back(system.run().cores[0].localCycles);
    }
    EXPECT_GT(cycles[0], cycles[1]);
}

TEST(CoreSimTest, SharedTlbOnlyInDwtLevel)
{
    NpuMemConfig mem = tinyMem();
    auto trace_a = gemmTrace("a", 128, 128, 128);
    auto trace_b = gemmTrace("b", 128, 128, 128);
    for (auto [level, shared] :
         std::initializer_list<std::pair<SharingLevel, bool>>{
             {SharingLevel::ShareDW, false},
             {SharingLevel::ShareDWT, true}}) {
        SystemConfig config;
        config.level = level;
        config.mem = mem;
        std::vector<CoreBinding> bindings(2);
        bindings[0].trace = trace_a;
        bindings[1].trace = trace_b;
        MultiCoreSystem system(config, std::move(bindings));
        system.run();
        EXPECT_EQ(system.mmu().config().sharedTlb, shared);
        if (shared) {
            EXPECT_EQ(system.mmu().tlbForCore(0).numEntries(),
                      2 * mem.tlbEntriesPerNpu);
        } else {
            EXPECT_EQ(system.mmu().tlbForCore(0).numEntries(),
                      mem.tlbEntriesPerNpu);
        }
    }
}

TEST(CoreSimTest, LargerPagesWalkLess)
{
    std::vector<std::uint64_t> walks;
    for (std::uint64_t page : {4096ull, 64ull << 10}) {
        NpuMemConfig mem = tinyMem();
        mem.pageBytes = page;
        auto trace = gemmTrace("t", 256, 512, 512);
        SystemConfig config;
        config.level = SharingLevel::Ideal;
        config.mem = mem;
        std::vector<CoreBinding> bindings(1);
        bindings[0].trace = trace;
        MultiCoreSystem system(config, std::move(bindings));
        system.run();
        walks.push_back(system.mmu().stats().counterValue("walks"));
    }
    EXPECT_GT(walks[0], 4 * walks[1]); // 16x footprint ratio, some reuse
}

TEST(CoreSimTest, RequestTraceCountsAllTransactions)
{
    NpuMemConfig mem = tinyMem();
    auto trace = gemmTrace("t", 256, 256, 256);
    SystemConfig config;
    config.level = SharingLevel::Ideal;
    config.mem = mem;
    config.requestTraceWindow = 500;
    std::vector<CoreBinding> bindings(1);
    bindings[0].trace = trace;
    MultiCoreSystem system(config, std::move(bindings));
    auto result = system.run();
    std::uint64_t traced = 0;
    auto tracer_windows = system.core(0).requestTrace().windows();
    for (auto window : tracer_windows)
        traced += window;
    // Each 64 B *data* transaction was recorded exactly once on DRAM
    // accept; trafficBytes additionally counts page-table-walk reads.
    EXPECT_EQ(traced * 64,
              result.cores[0].trafficBytes - result.cores[0].walkBytes);
    EXPECT_GT(result.cores[0].walkBytes, 0u);
}

TEST(CoreSimTest, TelemetryTotalsMatchCoreBytes)
{
    NpuMemConfig mem = tinyMem();
    SystemConfig config;
    config.level = SharingLevel::ShareDWT;
    config.mem = mem;
    config.telemetryWindow = 1000;
    std::vector<CoreBinding> bindings(2);
    bindings[0].trace = gemmTrace("a", 128, 128, 128);
    bindings[1].trace = gemmTrace("b", 128, 256, 64);
    MultiCoreSystem system(config, std::move(bindings));
    auto result = system.run();
    for (CoreId core = 0; core < 2; ++core) {
        std::uint64_t telemetry_bytes = 0;
        for (auto window : system.memory().coreTelemetry(core).windows())
            telemetry_bytes += window;
        EXPECT_EQ(telemetry_bytes, result.cores[core].trafficBytes);
    }
}

// --- configuration validation ---

TEST(CoreSimTest, IdealRequiresSingleCore)
{
    SystemConfig config;
    config.level = SharingLevel::Ideal;
    config.mem = tinyMem();
    std::vector<CoreBinding> bindings(2);
    bindings[0].trace = gemmTrace("a", 64, 64, 64);
    bindings[1].trace = gemmTrace("b", 64, 64, 64);
    EXPECT_THROW(MultiCoreSystem(config, std::move(bindings)),
                 FatalError);
}

TEST(CoreSimTest, MultiplierOnlyForIdeal)
{
    SystemConfig config;
    config.level = SharingLevel::ShareDWT;
    config.idealResourceMultiplier = 2;
    config.mem = tinyMem();
    std::vector<CoreBinding> bindings(1);
    bindings[0].trace = gemmTrace("a", 64, 64, 64);
    EXPECT_THROW(MultiCoreSystem(config, std::move(bindings)),
                 FatalError);
}

TEST(CoreSimTest, MaxCyclesGuardThrowsRecoverableSimulationError)
{
    SystemConfig config;
    config.level = SharingLevel::Ideal;
    config.mem = tinyMem();
    config.maxGlobalCycles = 10; // absurdly small
    std::vector<CoreBinding> bindings(1);
    bindings[0].trace = gemmTrace("a", 512, 512, 512);
    MultiCoreSystem system(config, std::move(bindings));
    try {
        system.run();
        FAIL() << "expected SimulationError";
    } catch (const SimulationError &error) {
        EXPECT_EQ(error.kind(), SimErrorKind::CycleBudget);
        EXPECT_TRUE(error.isBudget());
        EXPECT_NE(std::string(error.what()).find("cycle budget"),
                  std::string::npos);
    }
}

TEST(CoreSimTest, RunBudgetCycleCapTightensConfigCap)
{
    SystemConfig config;
    config.level = SharingLevel::Ideal;
    config.mem = tinyMem();
    // Config allows plenty; the per-run budget is the binding cap.
    config.maxGlobalCycles = 1'000'000'000;
    std::vector<CoreBinding> bindings(1);
    bindings[0].trace = gemmTrace("a", 512, 512, 512);
    MultiCoreSystem system(config, std::move(bindings));
    RunBudget budget;
    budget.maxGlobalCycles = 10;
    try {
        system.run(budget);
        FAIL() << "expected SimulationError";
    } catch (const SimulationError &error) {
        EXPECT_EQ(error.kind(), SimErrorKind::CycleBudget);
    }
}

TEST(CoreSimTest, WallClockWatchdogFires)
{
    SystemConfig config;
    config.level = SharingLevel::Ideal;
    config.mem = tinyMem();
    std::vector<CoreBinding> bindings(1);
    bindings[0].trace = gemmTrace("a", 512, 512, 512);
    MultiCoreSystem system(config, std::move(bindings));
    RunBudget budget;
    budget.wallClockSeconds = 1e-9; // expires before the first check
    try {
        system.run(budget);
        FAIL() << "expected SimulationError";
    } catch (const SimulationError &error) {
        EXPECT_EQ(error.kind(), SimErrorKind::WallClockTimeout);
        EXPECT_TRUE(error.isBudget());
    }
}

TEST(CoreSimTest, StopTokenCancelsCooperatively)
{
    SystemConfig config;
    config.level = SharingLevel::Ideal;
    config.mem = tinyMem();
    std::vector<CoreBinding> bindings(1);
    bindings[0].trace = gemmTrace("a", 512, 512, 512);
    MultiCoreSystem system(config, std::move(bindings));
    std::atomic<bool> stop{true}; // raised before the run starts
    RunBudget budget;
    budget.stopToken = &stop;
    try {
        system.run(budget);
        FAIL() << "expected SimulationError";
    } catch (const SimulationError &error) {
        EXPECT_EQ(error.kind(), SimErrorKind::Cancelled);
        EXPECT_FALSE(error.isBudget());
    }
}

TEST(CoreSimTest, UnlimitedBudgetDoesNotPerturbResults)
{
    auto run_once = [](const RunBudget &budget) {
        SystemConfig config;
        config.level = SharingLevel::Ideal;
        config.mem = tinyMem();
        std::vector<CoreBinding> bindings(1);
        bindings[0].trace = gemmTrace("a", 128, 128, 128);
        MultiCoreSystem system(config, std::move(bindings));
        return system.run(budget);
    };
    RunBudget loose;
    loose.wallClockSeconds = 3600;
    loose.maxGlobalCycles = 1'000'000'000;
    SimResult with_budget = run_once(loose);
    SimResult without_budget = run_once(RunBudget{});
    EXPECT_TRUE(RunBudget{}.unlimited());
    EXPECT_FALSE(loose.unlimited());
    ASSERT_EQ(with_budget.cores.size(), without_budget.cores.size());
    EXPECT_EQ(with_budget.globalCycles, without_budget.globalCycles);
    EXPECT_EQ(with_budget.cores[0].localCycles,
              without_budget.cores[0].localCycles);
}

TEST(CoreSimTest, EmptyBindingsRejected)
{
    SystemConfig config;
    config.mem = tinyMem();
    EXPECT_THROW(MultiCoreSystem(config, {}), FatalError);
    std::vector<CoreBinding> bindings(1); // null trace
    EXPECT_THROW(MultiCoreSystem(config, std::move(bindings)),
                 FatalError);
}

// --- quad-core and larger property sweep ---

class MixSizeTest : public ::testing::TestWithParam<std::uint32_t>
{
};

TEST_P(MixSizeTest, AllCoresFinishAndAreSlowedDown)
{
    std::uint32_t cores = GetParam();
    NpuMemConfig mem = tinyMem();
    SystemConfig config;
    config.level = SharingLevel::ShareDWT;
    config.mem = mem;
    std::vector<CoreBinding> bindings(cores);
    for (std::uint32_t c = 0; c < cores; ++c)
        bindings[c].trace =
            gemmTrace("w" + std::to_string(c), 256, 256, 256);
    MultiCoreSystem system(config, std::move(bindings));
    auto result = system.run();
    ASSERT_EQ(result.cores.size(), cores);

    auto solo = runIdeal(gemmTrace("solo", 256, 256, 256), cores, mem);
    for (const auto &core : result.cores) {
        EXPECT_GT(core.localCycles, 0u);
        EXPECT_GE(core.localCycles, solo.cores[0].localCycles);
    }
}

INSTANTIATE_TEST_SUITE_P(CoreCounts, MixSizeTest,
                         ::testing::Values(1, 2, 3, 4, 8));

} // namespace
} // namespace mnpu
