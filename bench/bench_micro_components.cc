/**
 * @file
 * google-benchmark microbenchmarks of the simulator's hot components:
 * DRAM channel scheduling, TLB lookups, page-table walks paths, trace
 * generation, and a small end-to-end simulation. These track simulator
 * performance itself (simulated-cycles-per-second), not paper results.
 *
 * Perf-baseline mode (no google-benchmark involved):
 *
 *   bench_micro_components --baseline-out FILE
 *     runs a fixed set of golden mixes under both fidelities and
 *     writes one JSON line per (case, fidelity) with the wall clock,
 *     scheduler loop iterations, and global cycles, plus one snapshot
 *     row: the serialise + persist time and payload bytes of one
 *     golden-mix snapshot. Every wall clock is the median of
 *     kBaselineRuns passes. The committed result
 *     (bench/BENCH_micro.json) is the PR-over-PR speed ratchet.
 *
 *   bench_micro_components --baseline-check FILE
 *     re-runs the same cases and compares: loop_iterations,
 *     global_cycles and the snapshot payload bytes must match the
 *     baseline exactly (they are deterministic; a mismatch means
 *     behavior or scheduler-visit regressions, regenerate alongside
 *     the goldens), while wall clocks are compared RELATIVELY —
 *     normalized by the ratio of total exact-fidelity simulation wall
 *     clock (the snapshot row is not part of it), so a uniformly
 *     faster/slower machine cancels out — and any row slower than
 *     baseline by >15% (plus an absolute slack against jitter: 0.1 s
 *     for simulations, 0.01 s for the snapshot) fails.
 */

#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include <unistd.h>

#include "analysis/experiment.hh"
#include "analysis/golden.hh"
#include "common/atomic_file.hh"
#include "common/errors.hh"
#include "common/fidelity.hh"
#include "common/snapshot.hh"
#include "dram/dram_system.hh"
#include "mmu/paging.hh"
#include "mmu/tlb.hh"
#include "sim/multi_core_system.hh"
#include "sw/arch_config.hh"
#include "sw/trace_generator.hh"
#include "workloads/models.hh"

namespace
{

using namespace mnpu;

void
BM_DramChannelStream(benchmark::State &state)
{
    DramSystem dram(DramTiming::hbm2(), 1, 1, 32);
    std::uint64_t completed = 0;
    dram.setCallback([&](const DramRequest &, Cycle) { ++completed; });
    Addr addr = 0;
    Cycle now = 0;
    for (auto _ : state) {
        DramRequest request;
        request.paddr = addr;
        addr += 64;
        request.op = MemOp::Read;
        request.core = 0;
        while (!dram.tryEnqueue(request, now)) {
            dram.tick(now);
            ++now;
        }
        dram.tick(now);
        ++now;
    }
    state.counters["completed"] = static_cast<double>(completed);
}
BENCHMARK(BM_DramChannelStream);

void
BM_TlbLookupHit(benchmark::State &state)
{
    Tlb tlb(2048, 8, "bench.tlb");
    for (Addr vpn = 0; vpn < 2048; ++vpn)
        tlb.insert(0, vpn);
    Addr vpn = 0;
    for (auto _ : state) {
        benchmark::DoNotOptimize(tlb.lookup(0, vpn));
        vpn = (vpn + 1) & 2047;
    }
}
BENCHMARK(BM_TlbLookupHit);

void
BM_WalkPath(benchmark::State &state)
{
    PageAllocator allocator(0, 1ULL << 30, 4096);
    PageTableModel table(allocator);
    Addr vaddr = 0;
    for (auto _ : state) {
        benchmark::DoNotOptimize(table.walkPath(0, vaddr));
        vaddr += 4096;
    }
}
BENCHMARK(BM_WalkPath);

void
BM_TraceGeneration(benchmark::State &state)
{
    Network network = buildModel("alex", ModelScale::Mini);
    ArchConfig arch = ArchConfig::miniNpu();
    for (auto _ : state) {
        TraceGenerator trace(arch, network);
        benchmark::DoNotOptimize(trace.tiles().size());
    }
}
BENCHMARK(BM_TraceGeneration);

void
BM_EndToEndNcf(benchmark::State &state)
{
    ArchConfig arch = ArchConfig::miniNpu();
    Network network = buildModel("ncf", ModelScale::Mini);
    auto trace = std::make_shared<TraceGenerator>(arch, network);
    for (auto _ : state) {
        SimResult result = runIdeal(trace, 1);
        state.counters["sim_cycles"] =
            static_cast<double>(result.cores[0].localCycles);
    }
}
BENCHMARK(BM_EndToEndNcf)->Unit(benchmark::kMillisecond);

// --- perf baseline mode ---

/** The ratcheted mixes: one small dual, one larger DDR4 dual, one
 *  quad — enough spread that a regression in the core loop, the DRAM
 *  scan, or the fast path moves at least one row, while a full
 *  baseline run stays under ~10 s. */
const char *const kBaselineCases[] = {
    "hbm2-dual-res-ncf-dwt",
    "ddr4-dual-ds2-gpt2-static",
    "hbm2-quad-res-yt-dlrm-ncf-dwt",
};

/** The snapshot row's mix and fidelity: the quad mix at the fidelity
 *  process-isolated campaigns run. */
const char *const kSnapshotCase = "hbm2-quad-res-yt-dlrm-ncf-dwt";
constexpr FidelityKind kSnapshotFidelity = FidelityKind::Fast;

/** Passes per baseline; every wall clock is the median over them. */
constexpr int kBaselineRuns = 5;

/** Timed runs with and without the snapshot, per pass. */
constexpr int kSnapshotReps = 9;

struct BaselineRow
{
    std::string name;
    FidelityKind fidelity = FidelityKind::Exact;
    double wallSeconds = 0;
    std::uint64_t loopIterations = 0;
    std::uint64_t globalCycles = 0;
    /** The snapshot row: wallSeconds is one snapshot's serialise +
     *  persist time and payloadBytes its payload length. */
    bool snapshot = false;
    std::uint64_t payloadBytes = 0;

    /** Identity of the row across baseline files. */
    std::tuple<std::string, int, bool> id() const
    {
        return {name, static_cast<int>(fidelity), snapshot};
    }
};

double
median(std::vector<double> values)
{
    std::sort(values.begin(), values.end());
    const std::size_t mid = values.size() / 2;
    return values.size() % 2 ? values[mid]
                             : (values[mid - 1] + values[mid]) / 2;
}

/** Run one golden mix at @p fidelity and time runMix() alone (trace
 *  generation is pre-warmed so both fidelities measure simulation,
 *  not the shared one-time setup). */
BaselineRow
runBaselineCase(const std::string &name, FidelityKind fidelity)
{
    const GoldenCase &golden = goldenCase(name);
    NpuMemConfig mem = NpuMemConfig::cloudNpu();
    mem.timing = DramTiming::preset(golden.protocol);
    ExperimentContext context(ArchConfig::miniNpu(), mem,
                              ModelScale::Mini);

    SystemConfig config;
    config.level = golden.level;
    config.dramBandwidthShares = golden.dramBandwidthShares;
    config.scheduler = SchedulerKind::Cycle;
    config.fidelity = fidelity;

    // Warm the trace/Ideal caches; the timed run below then measures
    // the simulation loop only.
    context.runMix(config, golden.models);

    auto start = std::chrono::steady_clock::now();
    MixOutcome outcome = context.runMix(config, golden.models);
    auto stop = std::chrono::steady_clock::now();

    BaselineRow row;
    row.name = name;
    row.fidelity = fidelity;
    row.wallSeconds =
        std::chrono::duration<double>(stop - start).count();
    row.loopIterations = outcome.raw.loopIterations;
    row.globalCycles = outcome.raw.globalCycles;
    return row;
}

/**
 * Time one snapshot of kSnapshotCase: runs that stop just before the
 * second snapshot is due, with and without writing the first, are
 * timed alternately (systems built untimed); the row's time is the
 * difference of their medians.
 */
BaselineRow
runSnapshotCase()
{
    const GoldenCase &golden = goldenCase(kSnapshotCase);
    const std::string path =
        (std::filesystem::temp_directory_path() /
         ("mnpu_bench_snapshot." + std::to_string(::getpid()) + ".snap"))
            .string();
    auto timedRun = [&](const std::string &snapshot_path) {
        auto system = buildSnapshotDigestSystem(golden, kSnapshotFidelity);
        const RunBudget budget = firstSnapshotBudget(snapshot_path);
        auto start = std::chrono::steady_clock::now();
        try {
            system->run(budget);
        } catch (const SimulationError &) {
            // the cycle budget ends every run right after the snapshot
        }
        auto stop = std::chrono::steady_clock::now();
        return std::chrono::duration<double>(stop - start).count();
    };
    timedRun(path); // warm-up
    std::vector<double> with, without;
    for (int rep = 0; rep < kSnapshotReps; ++rep) {
        with.push_back(timedRun(path));
        without.push_back(timedRun(""));
    }
    BaselineRow row;
    row.name = kSnapshotCase;
    row.fidelity = kSnapshotFidelity;
    row.snapshot = true;
    row.wallSeconds = std::max(0.0, median(with) - median(without));
    const std::optional<std::string> payload = readSnapshotFile(path);
    std::remove(path.c_str());
    row.payloadBytes = payload ? payload->size() : 0;
    return row;
}

/** Every row, each wall clock the median of kBaselineRuns passes. */
std::vector<BaselineRow>
runAllBaselineCases()
{
    std::vector<BaselineRow> rows;
    std::vector<std::vector<double>> walls;
    for (int pass = 0; pass < kBaselineRuns; ++pass) {
        std::printf("  pass %d/%d\n", pass + 1, kBaselineRuns);
        std::vector<BaselineRow> current;
        for (const char *name : kBaselineCases) {
            for (FidelityKind fidelity :
                 {FidelityKind::Exact, FidelityKind::Fast}) {
                std::printf("  running %-32s %s\n", name,
                            toString(fidelity));
                current.push_back(runBaselineCase(name, fidelity));
            }
        }
        std::printf("  running %-32s snapshot\n", kSnapshotCase);
        current.push_back(runSnapshotCase());
        if (pass == 0) {
            rows = current;
            walls.resize(rows.size());
        }
        for (std::size_t i = 0; i < current.size(); ++i)
            walls[i].push_back(current[i].wallSeconds);
    }
    for (std::size_t i = 0; i < rows.size(); ++i)
        rows[i].wallSeconds = median(walls[i]);
    return rows;
}

std::string
baselineLine(const BaselineRow &row)
{
    char buf[256];
    if (row.snapshot) {
        std::snprintf(buf, sizeof(buf),
                      "{\"case\":\"%s\",\"fidelity\":\"%s\","
                      "\"row\":\"snapshot\",\"wall_seconds\":%.6f,"
                      "\"payload_bytes\":%llu}\n",
                      row.name.c_str(), toString(row.fidelity),
                      row.wallSeconds,
                      static_cast<unsigned long long>(row.payloadBytes));
        return std::string(buf);
    }
    std::snprintf(buf, sizeof(buf),
                  "{\"case\":\"%s\",\"fidelity\":\"%s\","
                  "\"wall_seconds\":%.6f,\"loop_iterations\":%llu,"
                  "\"global_cycles\":%llu}\n",
                  row.name.c_str(), toString(row.fidelity),
                  row.wallSeconds,
                  static_cast<unsigned long long>(row.loopIterations),
                  static_cast<unsigned long long>(row.globalCycles));
    return std::string(buf);
}

bool
parseBaselineLine(const std::string &line, BaselineRow &out)
{
    auto findString = [&line](const char *key, std::string &value) {
        std::string tag = std::string("\"") + key + "\":\"";
        std::size_t pos = line.find(tag);
        if (pos == std::string::npos)
            return false;
        std::size_t end = line.find('"', pos + tag.size());
        if (end == std::string::npos)
            return false;
        value = line.substr(pos + tag.size(), end - pos - tag.size());
        return true;
    };
    auto findNumber = [&line](const char *key, double &value) {
        std::string tag = std::string("\"") + key + "\":";
        std::size_t pos = line.find(tag);
        if (pos == std::string::npos)
            return false;
        value = std::strtod(line.c_str() + pos + tag.size(), nullptr);
        return true;
    };
    std::string fidelity, kind;
    double loops = 0, cycles = 0, payload = 0;
    if (!findString("case", out.name) ||
        !findString("fidelity", fidelity) ||
        !findNumber("wall_seconds", out.wallSeconds)) {
        return false;
    }
    out.fidelity = parseFidelityKind(fidelity);
    out.snapshot = findString("row", kind) && kind == "snapshot";
    if (out.snapshot) {
        if (!findNumber("payload_bytes", payload))
            return false;
        out.payloadBytes = static_cast<std::uint64_t>(payload);
        return true;
    }
    if (!findNumber("loop_iterations", loops) ||
        !findNumber("global_cycles", cycles)) {
        return false;
    }
    out.loopIterations = static_cast<std::uint64_t>(loops);
    out.globalCycles = static_cast<std::uint64_t>(cycles);
    return true;
}

int
baselineOut(const std::string &path)
{
    std::vector<BaselineRow> rows = runAllBaselineCases();
    std::string content;
    for (const BaselineRow &row : rows)
        content += baselineLine(row);
    std::string error;
    if (!atomicWriteFile(path, content, &error)) {
        std::fprintf(stderr, "cannot write %s: %s\n", path.c_str(),
                     error.c_str());
        return 1;
    }
    std::printf("wrote %zu baseline rows to %s\n", rows.size(),
                path.c_str());
    return 0;
}

int
baselineCheck(const std::string &path)
{
    std::map<std::tuple<std::string, int, bool>, BaselineRow> committed;
    std::ifstream in(path, std::ios::binary);
    if (!in) {
        std::fprintf(stderr, "cannot read baseline %s\n", path.c_str());
        return 1;
    }
    std::string line;
    while (std::getline(in, line)) {
        if (line.empty())
            continue;
        BaselineRow row;
        if (!parseBaselineLine(line, row)) {
            std::fprintf(stderr, "unparseable baseline line: %s\n",
                         line.c_str());
            return 1;
        }
        committed[row.id()] = row;
    }

    std::vector<BaselineRow> current = runAllBaselineCases();

    // Normalize machine speed out: the exact-fidelity total is the
    // yardstick (it dominates the run and exercises the whole
    // simulator), so only RELATIVE shifts — one case or the fast path
    // regressing against the rest — fail the check.
    double committed_exact = 0, current_exact = 0;
    for (const BaselineRow &row : current) {
        auto it = committed.find(row.id());
        if (it == committed.end()) {
            std::fprintf(stderr,
                         "no baseline%s row for %s/%s — regenerate with "
                         "--baseline-out\n",
                         row.snapshot ? " snapshot" : "",
                         row.name.c_str(), toString(row.fidelity));
            return 1;
        }
        if (!row.snapshot && row.fidelity == FidelityKind::Exact) {
            committed_exact += it->second.wallSeconds;
            current_exact += row.wallSeconds;
        }
    }
    if (committed_exact <= 0) {
        std::fprintf(stderr, "baseline has no exact-fidelity rows\n");
        return 1;
    }
    const double scale = current_exact / committed_exact;

    int failures = 0;
    std::printf("%-32s %-6s %10s %10s %8s\n", "case", "mode",
                "base(s)", "norm(s)", "ratio");
    for (const BaselineRow &row : current) {
        const BaselineRow &base = committed.at(row.id());
        const char *mode = row.snapshot ? "snap" : toString(row.fidelity);
        if (row.snapshot && row.payloadBytes != base.payloadBytes) {
            std::fprintf(stderr,
                         "%s/snapshot: payload %llu bytes vs %llu in the "
                         "baseline — the snapshot format changed\n",
                         row.name.c_str(),
                         static_cast<unsigned long long>(row.payloadBytes),
                         static_cast<unsigned long long>(base.payloadBytes));
            ++failures;
            continue;
        }
        if (row.loopIterations != base.loopIterations ||
            row.globalCycles != base.globalCycles) {
            std::fprintf(
                stderr,
                "%s/%s: determinism mismatch (loops %llu vs %llu, "
                "cycles %llu vs %llu) — behavior changed; regenerate "
                "the baseline alongside the golden fixtures\n",
                row.name.c_str(), toString(row.fidelity),
                static_cast<unsigned long long>(row.loopIterations),
                static_cast<unsigned long long>(base.loopIterations),
                static_cast<unsigned long long>(row.globalCycles),
                static_cast<unsigned long long>(base.globalCycles));
            ++failures;
            continue;
        }
        double normalized = row.wallSeconds / scale;
        double ratio = normalized / base.wallSeconds;
        std::printf("%-32s %-6s %10.4f %10.4f %8.2f\n", row.name.c_str(),
                    mode, base.wallSeconds, normalized, ratio);
        // 15% relative band + absolute slack: sub-second rows (the
        // fast fidelity) jitter more than 15% on a noisy CI box, and
        // the millisecond snapshot row includes an fsync.
        const double slack = row.snapshot ? 0.01 : 0.1;
        if (normalized > base.wallSeconds * 1.15 + slack) {
            std::fprintf(stderr,
                         "%s/%s: wall-clock regression: %.4f s "
                         "normalized vs %.4f s baseline (>15%%)\n",
                         row.name.c_str(), mode, normalized,
                         base.wallSeconds);
            ++failures;
        }
    }
    if (failures) {
        std::fprintf(stderr, "%d baseline check failure(s)\n", failures);
        return 1;
    }
    std::printf("baseline check ok (%zu rows, scale %.2f)\n",
                current.size(), scale);
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    // Baseline modes bypass google-benchmark entirely.
    for (int i = 1; i < argc; ++i) {
        if (std::strcmp(argv[i], "--baseline-out") == 0 &&
            i + 1 < argc) {
            return baselineOut(argv[i + 1]);
        }
        if (std::strcmp(argv[i], "--baseline-check") == 0 &&
            i + 1 < argc) {
            return baselineCheck(argv[i + 1]);
        }
    }
    benchmark::Initialize(&argc, argv);
    if (benchmark::ReportUnrecognizedArguments(argc, argv))
        return 1;
    benchmark::RunSpecifiedBenchmarks();
    benchmark::Shutdown();
    return 0;
}
