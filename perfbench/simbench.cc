/**
 * @file
 * simbench: host-time benchmark of the simulator (see perfbench/NOTES.md).
 *
 *   simbench --workload batch-exact|serving-exact|campaign-fast
 *            --seed N --seconds S --trace 0|1
 *            --golden-dir DIR --work-dir DIR
 *
 * Every workload pins scheduler, fidelity, backend, check level,
 * isolation, worker count and observability in SystemConfig /
 * SweepOptions and in the process defaults, so MNPU_* variables cannot
 * change what is measured; the resolved values are printed and checked.
 * Each simulated output is checked (golden fixtures, fidelity envelope)
 * and a mismatch counts as a failed operation.
 *
 * --trace 0 prints the end-to-end metrics, their times scaled to a
 * reference host speed by a yardstick run between operations (see
 * Yardstick). --trace 1 runs one untraced and one traced pass and
 * prints the per-layer ledger: host time of calls into each module's
 * public functions made from this file, plus the simulator's own
 * counters. Nothing inside src/ is instrumented.
 *
 * The last stdout line is one JSON object:
 *   {"correct":..,"attempted":..,"failed":..,"metrics":{name:{value,unit}}}
 */

#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <deque>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <optional>
#include <queue>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "analysis/experiment.hh"
#include "analysis/golden.hh"
#include "analysis/metrics.hh"
#include "analysis/mixes.hh"
#include "analysis/process_pool.hh"
#include "analysis/sweep_checkpoint.hh"
#include "analysis/sweep_runner.hh"
#include "common/fidelity.hh"
#include "common/integrity.hh"
#include "common/rng.hh"
#include "common/scheduler.hh"
#include "common/snapshot.hh"
#include "dram/dram_system.hh"
#include "mem/memory_backend.hh"
#include "mmu/paging.hh"
#include "mmu/tlb.hh"
#include "serving/engine.hh"
#include "sim/multi_core_system.hh"
#include "sw/arch_config.hh"
#include "sw/trace_generator.hh"
#include "workloads/models.hh"
#include "workloads/random_network.hh"

namespace fs = std::filesystem;
using namespace mnpu;

namespace
{

using Clock = std::chrono::steady_clock;

double
since(Clock::time_point start)
{
    return std::chrono::duration<double>(Clock::now() - start).count();
}

double
median(std::vector<double> values)
{
    if (values.empty())
        return 0;
    std::sort(values.begin(), values.end());
    std::size_t n = values.size();
    return n % 2 ? values[n / 2] : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

/**
 * The tail of a sample: the highest whole percentile with at least ten
 * samples above it (nearest rank), and the mean of the samples from
 * that rank up. One order statistic jumps between neighbouring jobs of
 * different sizes from run to run; the mean over the tail does not.
 * With ten samples or fewer no such percentile exists; the tail is then
 * percentile 100, the maximum.
 */
struct Tail
{
    int percentile = 100;
    std::size_t count = 0; //!< samples in the tail
    double value = 0;      //!< their mean
    double atRank = 0;     //!< the percentile itself
};

Tail
tailOf(std::vector<double> values)
{
    Tail tail;
    if (values.empty())
        return tail;
    std::sort(values.begin(), values.end());
    const std::size_t n = values.size();
    std::size_t rank = n;
    for (int p = 99; p >= 1; --p) {
        auto r = static_cast<std::size_t>(
            std::ceil(p / 100.0 * static_cast<double>(n)));
        r = std::max<std::size_t>(r, 1);
        if (n - r >= 10) {
            tail.percentile = p;
            rank = r;
            break;
        }
    }
    tail.count = n - rank + 1;
    tail.atRank = values[rank - 1];
    for (std::size_t i = rank - 1; i < n; ++i)
        tail.value += values[i];
    tail.value /= static_cast<double>(tail.count);
    return tail;
}

std::uint64_t
fileBytes(const fs::path &path)
{
    std::error_code ec;
    auto size = fs::file_size(path, ec);
    return ec ? 0 : static_cast<std::uint64_t>(size);
}

// ---------------------------------------------------------------------
// Host-speed yardstick.
// ---------------------------------------------------------------------

/**
 * A fixed piece of host work, timed on the thread that runs the
 * measured operations, between them. A shared host's speed drifts by up
 * to 2x within seconds as other tenants load it, and the simulator's
 * branchy, allocation-heavy code drifts with it. Every end-to-end time
 * is scaled by kReferenceSeconds / (the yardstick's time around it), so
 * figures are host seconds at a fixed reference speed: a faster
 * simulator still reads faster, a slower host phase does not.
 *
 * The work is a miniature FR-FCFS memory controller: per-channel
 * request queues scanned for row hits, bank timing, a hash map of
 * requests in flight and a completion heap, the shape of the
 * simulator's hot path. Timed around the same operations, it followed
 * the simulator's host-speed drift more closely than hash-map churn,
 * pointer chasing or string work did. It is defined here, outside the
 * simulator, so no change to the simulator can move it.
 */
class Yardstick
{
  public:
    /** The work's typical time on the reference host (4-vCPU Xeon
     *  VM), so scaled times read close to host times there. */
    static constexpr double kReferenceSeconds = 0.050;

    /** Run the work once: kReferenceSeconds / its host time. Safe to
     *  call from several threads at once. */
    double scale() const
    {
        auto start = Clock::now();
        sink_ += controller();
        return kReferenceSeconds / since(start);
    }

  private:
    struct Request
    {
        std::uint64_t id;
        std::uint32_t bank, row;
    };

    static std::uint64_t controller()
    {
        constexpr std::size_t kChannels = 8, kBanks = 16, kDepth = 48;
        std::vector<std::deque<Request>> queues(kChannels);
        std::vector<std::uint32_t> open_row(kChannels * kBanks, ~0u);
        std::vector<std::uint64_t> ready(kChannels * kBanks, 0);
        std::vector<std::uint32_t> stream_row(kChannels, 0);
        std::unordered_map<std::uint64_t, std::uint64_t> in_flight;
        using Done = std::pair<std::uint64_t, std::uint64_t>;
        std::priority_queue<Done, std::vector<Done>, std::greater<>> done;
        std::uint64_t x = 77, next_id = 0, cycle = 0, latency = 0;
        for (int step = 0; step < 60000; ++step) {
            cycle += 1 + ((x >> 61) & 3);
            for (std::size_t c = 0; c < kChannels; ++c) {
                x = x * 6364136223846793005ULL + 1442695040888963407ULL;
                auto &queue = queues[c];
                if (queue.size() < kDepth && ((x >> 58) & 1)) {
                    // Mostly streaming rows, now and then a random one.
                    if (((x >> 40) & 7) == 0)
                        stream_row[c] = static_cast<std::uint32_t>(
                            (x >> 20) & 1023);
                    queue.push_back(
                        {next_id, static_cast<std::uint32_t>((x >> 50) &
                                                             (kBanks - 1)),
                         stream_row[c]});
                    in_flight.emplace(next_id++, cycle);
                }
                // First ready row hit, else the oldest ready request.
                auto issue = queue.end();
                for (auto it = queue.begin(); it != queue.end(); ++it) {
                    const std::size_t bank = c * kBanks + it->bank;
                    if (ready[bank] <= cycle && open_row[bank] == it->row) {
                        issue = it;
                        break;
                    }
                }
                if (issue == queue.end()) {
                    issue = std::find_if(
                        queue.begin(), queue.end(), [&](const Request &r) {
                            return ready[c * kBanks + r.bank] <= cycle;
                        });
                }
                if (issue == queue.end())
                    continue;
                const std::size_t bank = c * kBanks + issue->bank;
                const std::uint64_t busy =
                    open_row[bank] == issue->row ? 4 : 14;
                open_row[bank] = issue->row;
                ready[bank] = cycle + busy;
                done.push({cycle + busy, issue->id});
                queue.erase(issue);
            }
            while (!done.empty() && done.top().first <= cycle) {
                auto it = in_flight.find(done.top().second);
                latency += cycle - it->second;
                in_flight.erase(it);
                done.pop();
            }
        }
        return latency + in_flight.size();
    }

    mutable std::atomic<std::uint64_t> sink_{0};
};

/**
 * Times consecutive steps, with a yardstick run before the first step
 * and after each one. A step's scaled time is its host time times the
 * mean scale of the runs on either side of it. With @p threads > 1 the
 * steps run work on that many workers, and each yardstick run is that
 * many runs at once, one per thread, averaged.
 */
class ScaledTimer
{
  public:
    explicit ScaledTimer(const Yardstick &yardstick, std::size_t threads = 1)
        : yardstick_(yardstick), threads_(threads), scale_(sample())
    {
    }

    /** Run @p work as one step; returns its scaled seconds. */
    template <typename Work>
    double step(Work &&work)
    {
        auto start = Clock::now();
        work();
        const double host = since(start);
        auto probe = Clock::now();
        const double next = sample();
        probe_ += since(probe);
        const double scaled = host * 0.5 * (scale_ + next);
        scale_ = next;
        host_ += host;
        scaled_ += scaled;
        return scaled;
    }

    double host() const { return host_; }     //!< steps' host seconds
    double scaled() const { return scaled_; } //!< steps' scaled seconds
    /** Host seconds of the yardstick runs after the steps. */
    double probe() const { return probe_; }

  private:
    double sample() const
    {
        std::vector<double> scales(threads_);
        std::vector<std::thread> others;
        for (std::size_t i = 1; i < threads_; ++i)
            others.emplace_back([&, i] { scales[i] = yardstick_.scale(); });
        scales[0] = yardstick_.scale();
        for (std::thread &other : others)
            other.join();
        double sum = 0;
        for (double scale : scales)
            sum += scale;
        return sum / static_cast<double>(threads_);
    }

    const Yardstick &yardstick_;
    std::size_t threads_;
    double scale_;
    double host_ = 0, scaled_ = 0, probe_ = 0;
};

/** The process's yardstick, built and warmed up on first use (the
 *  first runs are slower: cold caches, fresh heap pages). */
const Yardstick &
yardstick()
{
    static const Yardstick instance;
    static const bool warm = [] {
        for (int i = 0; i < 3; ++i)
            instance.scale();
        return true;
    }();
    (void)warm;
    return instance;
}

std::string
readText(const fs::path &path)
{
    std::ifstream in(path, std::ios::binary);
    std::ostringstream out;
    out << in.rdbuf();
    return out.str();
}

// ---------------------------------------------------------------------
// Options and output.
// ---------------------------------------------------------------------

struct Options
{
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10;
    bool trace = false;
    std::string goldenDir = "tests/golden";
    std::string workDir = ".bench_work";
};

struct Metric
{
    std::string name;
    double value = 0;
    std::string unit;
};

/** Operation accounting, gate failures and the metrics to print. */
struct Report
{
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    bool gateFailed = false;
    std::vector<Metric> metrics;

    /** Count one operation; @p problem non-empty marks it failed. */
    void operation(const std::string &what, const std::string &problem)
    {
        ++attempted;
        if (problem.empty())
            return;
        ++failed;
        std::printf("FAIL %s: %s\n", what.c_str(), problem.c_str());
    }

    /** A check that is not an operation (pinning, passivity, ...). */
    void gate(bool ok, const std::string &what)
    {
        if (ok)
            return;
        gateFailed = true;
        std::printf("FAIL %s\n", what.c_str());
    }

    void add(const std::string &name, double value, const std::string &unit,
             const std::string &note = "")
    {
        metrics.push_back({name, value, unit});
        std::printf("  %-28s %16.6f %-8s %s\n", name.c_str(), value,
                    unit.c_str(), note.c_str());
    }

    bool correct() const { return failed == 0 && !gateFailed; }

    void printJson() const
    {
        std::printf("{\"correct\": %s, \"attempted\": %" PRIu64
                    ", \"failed\": %" PRIu64 ", \"metrics\": {",
                    correct() ? "true" : "false", attempted, failed);
        for (std::size_t i = 0; i < metrics.size(); ++i) {
            double value = std::isfinite(metrics[i].value) ? metrics[i].value
                                                           : 0.0;
            std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                        i ? ", " : "", metrics[i].name.c_str(), value,
                        metrics[i].unit.c_str());
        }
        std::printf("}}\n");
    }
};

double
peakRssMb()
{
    rusage self{}, children{};
    getrusage(RUSAGE_SELF, &self);
    getrusage(RUSAGE_CHILDREN, &children);
    // ru_maxrss is KiB; RUSAGE_CHILDREN reports the largest waited-for
    // descendant, i.e. the largest sweep worker.
    return static_cast<double>(self.ru_maxrss + children.ru_maxrss) / 1024.0;
}

// ---------------------------------------------------------------------
// Pinned configuration.
// ---------------------------------------------------------------------

struct Pins
{
    FidelityKind fidelity = FidelityKind::Exact;
    IsolationMode isolation = IsolationMode::Thread;
    std::size_t jobs = 1;
};

/** Process defaults cover the Ideal baselines, which runIdeal builds
 *  from defaults; per-run fields are pinned in pinnedConfig(). */
void
pinProcessDefaults(const Pins &pins)
{
    setSchedulerDefault(SchedulerKind::Event);
    setFidelityDefault(pins.fidelity);
    setCheckLevelDefault(CheckLevel::Off);
    setMemBackendDefault(MemBackendKind::Dram);
    setIsolationDefault(pins.isolation);
}

NpuMemConfig
pinnedMem(const std::string &protocol)
{
    NpuMemConfig mem = NpuMemConfig::cloudNpu();
    mem.timing = DramTiming::preset(protocol);
    mem.backend = MemBackendKind::Dram;
    return mem;
}

SystemConfig
pinnedConfig(SharingLevel level, FidelityKind fidelity)
{
    SystemConfig config;
    config.level = level;
    config.scheduler = SchedulerKind::Event;
    config.fidelity = fidelity;
    config.checkLevel = CheckLevel::Off;
    config.obs = ObservabilityConfig{};
    return config;
}

SweepOptions
pinnedSweep(const Pins &pins)
{
    SweepOptions options;
    options.keepGoing = true; // a failed job is counted, not fatal
    options.isolation = pins.isolation;
    return options;
}

std::vector<CoreBinding>
bindingsFor(ExperimentContext &context,
            const std::vector<std::string> &models)
{
    std::vector<CoreBinding> bindings;
    for (const auto &model : models) {
        CoreBinding binding;
        binding.trace = context.trace(model);
        bindings.push_back(std::move(binding));
    }
    return bindings;
}

/** Print and check what a workload's configuration resolves to. */
void
checkResolved(Report &report, ExperimentContext &context,
              SystemConfig config, const std::vector<std::string> &models,
              const Pins &pins)
{
    config.mem = context.mem();
    MultiCoreSystem system(config, bindingsFor(context, models));
    const IsolationMode isolation = effectiveIsolationMode(pins.isolation);
    std::printf("resolved: scheduler=%s fidelity=%s backend=%s check=%s "
                "isolation=%s jobs=%zu obs=off\n",
                toString(system.scheduler()), toString(system.fidelity()),
                toString(system.backendKind()),
                toString(system.checkLevel()), toString(isolation),
                pins.jobs);
    report.gate(system.scheduler() == SchedulerKind::Event,
                "resolved scheduler is not event");
    report.gate(system.fidelity() == pins.fidelity,
                "resolved fidelity differs from the workload's");
    report.gate(system.backendKind() == MemBackendKind::Dram,
                "resolved backend is not dram");
    report.gate(system.checkLevel() == CheckLevel::Off,
                "resolved check level is not off");
    report.gate(isolation == pins.isolation,
                "resolved isolation differs from the workload's");
}

/** The record's fixture text with the host-side fields zeroed. */
std::string
recordText(const std::string &key, SweepRecord record)
{
    record.wallSeconds = 0;
    record.attempts = 1;
    return goldenFixtureText(checkpointRecordOf(key, record));
}

std::string
recordText(const std::string &key, const MixOutcome &outcome)
{
    SweepRecord record;
    record.outcome = outcome;
    return recordText(key, record);
}

// ---------------------------------------------------------------------
// End-to-end timing of passes.
// ---------------------------------------------------------------------

/** What one pass over a workload's operations measured. Times are
 *  scaled by the yardstick except hostWall. */
struct PassResult
{
    double wall = 0;
    double hostWall = 0;
    double simCycles = 0;
    std::vector<double> opSeconds;
    std::uint64_t requests = 0; //!< serving requests completed
};

struct Timing
{
    std::vector<double> setup, hostSetup;
    std::vector<PassResult> passes;

    void addSetup(const ScaledTimer &timer)
    {
        setup.push_back(timer.scaled());
        hostSetup.push_back(timer.host());
    }
};

/** Set-ups per run: several, reported as their median (one when
 *  tracing, which reports no set-up time). */
int
setupRepeats(const Options &options, int repeats)
{
    return options.trace ? 1 : repeats;
}

/**
 * Simulated work of one run: core-local cycles summed over cores. The
 * global clock of a serving run includes idle gaps between arrivals,
 * which the engine skips at no host cost, so it is not used.
 */
double
coreCycles(const SimResult &result)
{
    double cycles = 0;
    for (const CoreResult &core : result.cores)
        cycles += static_cast<double>(core.localCycles);
    return cycles;
}

/** Passes per run: a fixed amount of work per --seconds (sized to fill
 *  it at the seed), so every commit measures the same work. */
std::size_t
passCount(double seconds, double nominalPassSeconds)
{
    return static_cast<std::size_t>(
        std::max(1.0, std::round(seconds / nominalPassSeconds)));
}

void
reportEndToEnd(Report &report, const Timing &timing)
{
    std::vector<double> walls, host_walls, rates;
    double total_wall = 0, total_host_wall = 0;
    std::uint64_t requests = 0, operations = 0;
    for (const PassResult &pass : timing.passes) {
        walls.push_back(pass.wall);
        host_walls.push_back(pass.hostWall);
        total_host_wall += pass.hostWall;
        rates.push_back(pass.simCycles / 1e6 / pass.wall);
        total_wall += pass.wall;
        requests += pass.requests;
        operations += pass.opSeconds.size();
    }
    // Every pass runs the same operations; each operation's latency is
    // its median over the passes, so a slow stretch of one pass cannot
    // reorder operations of different sizes.
    std::vector<double> ops;
    for (std::size_t i = 0; i < timing.passes.front().opSeconds.size(); ++i) {
        std::vector<double> samples;
        for (const PassResult &pass : timing.passes)
            samples.push_back(pass.opSeconds[i]);
        ops.push_back(1000.0 * median(samples));
    }
    const std::string passes =
        "(median of " + std::to_string(walls.size()) + " passes)";
    const std::string samples = "(n=" + std::to_string(ops.size()) +
                                " operations, median over passes)";
    Tail tail = tailOf(ops);
    std::printf("end-to-end:\n");
    report.add("wall_s", median(walls), "s", passes);
    report.add("setup_s", median(timing.setup), "s",
               "(median of " + std::to_string(timing.setup.size()) +
                   " set-ups)");
    report.add("sim_mcycles_per_s", median(rates), "Mcycle/s", passes);
    report.add("jobs_per_s", static_cast<double>(operations) / total_wall,
               "1/s", "(n=" + std::to_string(operations) + ")");
    report.add("job_p50_ms", median(ops), "ms", samples);
    report.add("job_tail_ms", tail.value, "ms",
               "(mean of the " + std::to_string(tail.count) +
                   " at or above p" + std::to_string(tail.percentile) +
                   ", n=" + std::to_string(ops.size()) + ")");
    report.add("peak_rss_mb", peakRssMb(), "MB", "(self + largest worker)");
    std::printf("not ratcheted:\n");
    std::printf("  %-28s %16.6f %-8s (unscaled host time, median of %zu "
                "passes)\n",
                "host_wall_s", median(host_walls), "s", host_walls.size());
    std::printf("  %-28s %16.6f %-8s (unscaled host time, median of %zu "
                "set-ups)\n",
                "host_setup_s", median(timing.hostSetup), "s",
                timing.hostSetup.size());
    std::printf("  %-28s %16.6f %-8s (scaled / host time over the passes)\n",
                "yardstick_scale", total_wall / total_host_wall, "ratio");
    std::printf("  %-28s %16.6f %-8s (p%d itself, n=%zu)\n",
                "job_tail_percentile_ms", tail.atRank, "ms", tail.percentile,
                ops.size());
    if (requests != 0) {
        std::printf("  %-28s %16.6f %-8s\n", "requests_per_s",
                    static_cast<double>(requests) / total_wall, "1/s");
    }
    std::printf("  %-28s %16.6f %-8s (%" PRIu64 " of %" PRIu64 ")\n",
                "failed_frac",
                report.attempted
                    ? static_cast<double>(report.failed) /
                          static_cast<double>(report.attempted)
                    : 0.0,
                "ratio", report.failed, report.attempted);
}

// ---------------------------------------------------------------------
// Per-layer ledger.
// ---------------------------------------------------------------------

/** Every per-layer metric, in BENCHMARK.json order, with its unit. */
const std::vector<std::pair<std::string, std::string>> kLayerMetrics = {
    {"dram.requests", "count"},
    {"dram.row_hit_ratio", "ratio"},
    {"dram.activates", "count"},
    {"dram.refreshes", "count"},
    {"dram.replay_enqueue_s", "s"},
    {"dram.replay_tick_s", "s"},
    {"dram.replay_tick_calls", "count"},
    {"dram.replay_refused_ratio", "ratio"},
    {"dram.replay_ns_per_request", "ns"},
    {"dram.replay_row_mismatch", "count"},
    {"core.tx", "count"},
    {"core.dram_retries", "count"},
    {"core.xlat_retries", "count"},
    {"mem.refused_ratio", "ratio"},
    {"mmu.translations", "count"},
    {"mmu.tlb_hit_ratio", "ratio"},
    {"mmu.walks", "count"},
    {"mmu.mshr_attaches", "count"},
    {"mmu.xlat_refused_ratio", "ratio"},
    {"mmu.tlb_lookup_s", "s"},
    {"mmu.walk_path_s", "s"},
    {"sim.loop_iterations", "count"},
    {"sim.build_s", "s"},
    {"sim.run_s", "s"},
    {"sim.host_ns_per_iteration", "ns"},
    {"sw.trace_gen_s", "s"},
    {"sw.tiles", "count"},
    {"ideal.runs", "count"},
    {"ideal.s", "s"},
    {"serving.rounds", "count"},
    {"serving.tokens", "count"},
    {"serving.run_s", "s"},
    {"serving.host_ms_per_round", "ms"},
    {"sweep.jobs", "count"},
    {"sweep.retries", "count"},
    {"sweep.worker_crashes", "count"},
    {"sweep.overhead_ms_per_job", "ms"},
    {"checkpoint.bytes", "bytes"},
    {"checkpoint.resume_s", "s"},
    {"snapshot.bytes", "bytes"},
    {"snapshot.write_s", "s"},
    {"snapshot.restore_s", "s"},
    {"trace.overhead_s", "s"},
    {"fidelity.fast_err_max", "ratio"},
};

/** Raw sums; ratios are derived once at the end. */
struct Ledger
{
    std::map<std::string, double> v;

    double &operator[](const std::string &name) { return v[name]; }

    double get(const std::string &name) const
    {
        auto it = v.find(name);
        return it == v.end() ? 0.0 : it->second;
    }

    static double ratio(double num, double den)
    {
        return den > 0 ? num / den : 0.0;
    }

    void emit(Report &report)
    {
        Ledger &l = *this;
        l["dram.row_hit_ratio"] =
            ratio(get("dram.row_hits"),
                  get("dram.row_hits") + get("dram.row_misses"));
        l["dram.replay_refused_ratio"] =
            ratio(get("replay.refused"),
                  get("dram.requests") + get("replay.refused"));
        l["dram.replay_ns_per_request"] =
            ratio(1e9 * (get("dram.replay_enqueue_s") +
                         get("dram.replay_tick_s")),
                  get("dram.requests"));
        l["mem.refused_ratio"] =
            ratio(get("core.dram_retries"),
                  get("core.tx") + get("core.dram_retries"));
        l["mmu.tlb_hit_ratio"] =
            ratio(get("mmu.tlb_hits"),
                  get("mmu.tlb_hits") + get("mmu.tlb_misses"));
        l["mmu.xlat_refused_ratio"] =
            ratio(get("core.xlat_retries"),
                  get("mmu.translations") + get("core.xlat_retries"));
        l["sim.host_ns_per_iteration"] =
            ratio(1e9 * get("sim.run_s"), get("sim.loop_iterations"));
        l["sweep.overhead_ms_per_job"] =
            ratio(1e3 * (get("sweep.capacity_s") - get("sweep.busy_s")),
                  get("sweep.jobs"));
        l["serving.host_ms_per_round"] =
            ratio(1e3 * get("serving.run_s"), get("serving.rounds"));
        std::printf("per-layer:\n");
        for (const auto &[name, unit] : kLayerMetrics)
            report.add(name, get(name), unit);
    }
};

/** Fold a finished system's in-situ counters into the ledger. */
void
addCounters(Ledger &ledger, const TelemetrySnapshot &t, std::uint32_t cores)
{
    for (const char *name :
         {"dram.row_hits", "dram.row_misses", "dram.activates",
          "dram.refreshes", "mmu.translations", "mmu.tlb_hits",
          "mmu.tlb_misses", "mmu.walks", "mmu.mshr_attaches"}) {
        ledger[name] += static_cast<double>(t.counter(name));
    }
    ledger["sim.loop_iterations"] +=
        static_cast<double>(t.counter("sched.loop_iterations"));
    for (std::uint32_t i = 0; i < cores; ++i) {
        const std::string core = "core" + std::to_string(i) + ".";
        ledger["core.tx"] += static_cast<double>(
            t.counter(core + "read_tx") + t.counter(core + "write_tx"));
        ledger["core.dram_retries"] +=
            static_cast<double>(t.counter(core + "dram_retries"));
        ledger["core.xlat_retries"] +=
            static_cast<double>(t.counter(core + "xlat_retries"));
    }
}

/** Fold one sweep's accounting into the ledger: worker capacity
 *  (wall x workers) not spent inside jobs is sweep overhead. */
void
addSweep(Ledger &ledger, const SweepStats &stats)
{
    ledger["sweep.jobs"] += static_cast<double>(stats.executed);
    ledger["sweep.retries"] += static_cast<double>(stats.retried);
    ledger["sweep.worker_crashes"] += static_cast<double>(stats.workerCrashes);
    ledger["sweep.busy_s"] += stats.jobSecondsSum;
    ledger["sweep.capacity_s"] +=
        stats.wallSeconds * static_cast<double>(stats.workers);
}

/** One accepted request from dram.log. */
struct LoggedRequest
{
    Cycle cycle;
    DramRequest request;
};

std::vector<LoggedRequest>
parseDramLog(const fs::path &path)
{
    std::vector<LoggedRequest> rows;
    std::ifstream in(path);
    std::string line;
    std::getline(in, line); // header: start_cycle,core,channel,paddr,op,kind
    while (std::getline(in, line)) {
        const char *p = line.c_str();
        char *end = nullptr;
        LoggedRequest row{};
        row.cycle = std::strtoull(p, &end, 10);
        row.request.core = static_cast<CoreId>(std::strtoul(end + 1, &end, 10));
        std::strtoul(end + 1, &end, 10); // channel: re-derived by routing
        row.request.paddr = std::strtoull(end + 1, &end, 10);
        const std::string rest(end + 1);
        row.request.op =
            rest.rfind("write", 0) == 0 ? MemOp::Write : MemOp::Read;
        row.request.priority = rest.find("walk") != std::string::npos;
        row.request.tag = rows.size();
        rows.push_back(row);
    }
    return rows;
}

/**
 * Replay dram.log into a standalone DramSystem built and partitioned
 * like the run's, visiting cycles the way the event scheduler does:
 * tick, then the enqueues the log recorded at that cycle. The FR-FCFS
 * state does not depend on responses, so a faithful replay reproduces
 * the run's row hits and misses exactly; any difference is reported.
 */
void
replayDram(Ledger &ledger, const fs::path &log, const SystemConfig &config,
           std::uint32_t cores, const TelemetrySnapshot &insitu,
           const std::string &label)
{
    std::vector<LoggedRequest> rows = parseDramLog(log);
    const NpuMemConfig &mem = config.mem;
    DramSystem dram(mem.timing, mem.channelsPerNpu * cores, cores,
                    mem.dramQueueDepth);
    SharingPolicy policy;
    if (config.dramBandwidthShares)
        policy.bandwidthShares = *config.dramBandwidthShares;
    else if (config.level == SharingLevel::Static)
        policy.bandwidthShares = std::vector<std::uint32_t>(cores, 1);
    dram.applyPolicy(policy);
    dram.setCallback([](const DramRequest &, Cycle) {});
    dram.setEventDriven(true);

    double enqueue_s = 0, tick_s = 0;
    std::uint64_t ticks = 0, refused = 0;
    std::vector<DramRequest> retry;
    std::size_t next_row = 0;
    Cycle now = rows.empty() ? 0 : rows.front().cycle;
    while (next_row < rows.size() || !retry.empty() || dram.busy()) {
        auto t0 = Clock::now();
        dram.tick(now);
        auto t1 = Clock::now();
        std::vector<DramRequest> still;
        for (const DramRequest &request : retry) {
            if (!dram.tryEnqueue(request, now)) {
                ++refused;
                still.push_back(request);
            }
        }
        for (; next_row < rows.size() && rows[next_row].cycle == now;
             ++next_row) {
            if (!dram.tryEnqueue(rows[next_row].request, now)) {
                ++refused;
                still.push_back(rows[next_row].request);
            }
        }
        retry.swap(still);
        auto t2 = Clock::now();
        tick_s += std::chrono::duration<double>(t1 - t0).count();
        enqueue_s += std::chrono::duration<double>(t2 - t1).count();
        ++ticks;
        Cycle next = dram.nextEventCycle(now);
        if (!retry.empty())
            next = std::min(next, now + 1);
        if (next_row < rows.size())
            next = std::min(next, rows[next_row].cycle);
        if (next == kCycleNever)
            break;
        now = next;
    }
    ledger["dram.replay_enqueue_s"] += enqueue_s;
    ledger["dram.replay_tick_s"] += tick_s;
    ledger["dram.replay_tick_calls"] += static_cast<double>(ticks);
    // Requests that went through the DRAM queue (the fast path credits
    // its transactions in bulk and logs none).
    ledger["dram.requests"] += static_cast<double>(rows.size());
    ledger["replay.refused"] += static_cast<double>(refused);

    if (config.fidelity == FidelityKind::Fast) {
        // The fast path credits its transactions in bulk; nothing was
        // queued, so there is nothing to compare.
        std::printf("  dram replay %-34s %9zu requests (fast fidelity)\n",
                    label.c_str(), rows.size());
        return;
    }
    const auto hits = dram.totalCounter("row_hits");
    const auto misses = dram.totalCounter("row_misses");
    const auto want_hits = insitu.counter("dram.row_hits");
    const auto want_misses = insitu.counter("dram.row_misses");
    const std::uint64_t diff =
        (hits > want_hits ? hits - want_hits : want_hits - hits) +
        (misses > want_misses ? misses - want_misses : want_misses - misses);
    ledger["dram.replay_row_mismatch"] += static_cast<double>(diff);
    std::printf("  dram replay %-34s %9zu requests: row hits %" PRIu64
                "/%" PRIu64 " misses %" PRIu64 "/%" PRIu64
                " (replay/in-situ)%s\n",
                label.c_str(), rows.size(), hits, want_hits, misses,
                want_misses, diff ? "  DIVERGES" : "");
}

/** Replay the logged VPN streams into Tlb::lookup and the walked VPNs
 *  into PageTableModel::walkPath on structures sized like the run's. */
void
replayMmu(Ledger &ledger, const fs::path &dir, const SystemConfig &config,
          std::uint32_t cores)
{
    const NpuMemConfig &mem = config.mem;
    const bool shared = config.level == SharingLevel::ShareDWT;
    std::vector<std::unique_ptr<Tlb>> tlbs;
    for (std::uint32_t i = 0; i < (shared ? 1u : cores); ++i) {
        tlbs.push_back(std::make_unique<Tlb>(
            mem.tlbEntriesPerNpu * (shared ? cores : 1), mem.tlbWays,
            "replay.tlb" + std::to_string(i)));
    }
    const std::uint64_t capacity = std::min(
        mem.dramCapacityPerNpu * cores,
        mem.timing.channelCapacityBytes() * mem.channelsPerNpu * cores);
    PageAllocator allocator(0, capacity, mem.pageBytes);
    PageTableModel table(allocator);

    for (std::uint32_t core = 0; core < cores; ++core) {
        std::vector<Addr> lookups, walks;
        auto read_vpns = [](const fs::path &path, int column,
                            std::vector<Addr> &out) {
            std::ifstream in(path);
            std::string line;
            std::getline(in, line);
            while (std::getline(in, line)) {
                const char *p = line.c_str();
                char *end = nullptr;
                for (int c = 0; c < column; ++c) {
                    std::strtoull(p, &end, 10);
                    p = end + 1;
                }
                out.push_back(std::strtoull(p, &end, 10));
            }
        };
        const std::string stem = "tlb" + std::to_string(core);
        read_vpns(dir / (stem + ".log"), 1, lookups);
        read_vpns(dir / (stem + "_ptw.log"), 2, walks);

        Tlb &tlb = *tlbs[shared ? 0 : core];
        auto t0 = Clock::now();
        for (Addr vpn : lookups) {
            if (!tlb.lookup(core, vpn))
                tlb.insert(core, vpn);
        }
        ledger["mmu.tlb_lookup_s"] += since(t0);
        auto t1 = Clock::now();
        for (Addr vpn : walks)
            table.walkPath(core, vpn * mem.pageBytes);
        ledger["mmu.walk_path_s"] += since(t1);
    }
}

/** Build and run one system through its own entry points, adding the
 *  constructor and run() host times and its counters to the ledger. */
SimResult
spanRun(Ledger &ledger, const SystemConfig &config,
        std::vector<CoreBinding> bindings)
{
    const auto cores = static_cast<std::uint32_t>(bindings.size());
    auto t0 = Clock::now();
    MultiCoreSystem system(config, std::move(bindings));
    ledger["sim.build_s"] += since(t0);
    auto t1 = Clock::now();
    SimResult result = system.run();
    ledger["sim.run_s"] += since(t1);
    addCounters(ledger, result.telemetry, cores);
    return result;
}

/** Run one system again with request logs on, then replay its DRAM
 *  and MMU logs. Returns the logging run's result. */
SimResult
logReplay(Ledger &ledger, const SystemConfig &base,
          std::vector<CoreBinding> bindings, const fs::path &logDir,
          const std::string &label)
{
    fs::create_directories(logDir);
    SystemConfig config = base;
    config.requestLogDir = logDir.string();
    const auto cores = static_cast<std::uint32_t>(bindings.size());
    SimResult result = MultiCoreSystem(config, std::move(bindings)).run();
    replayDram(ledger, logDir / "dram.log", config, cores, result.telemetry,
               label);
    replayMmu(ledger, logDir, config, cores);
    fs::remove_all(logDir);
    return result;
}

/** Traced set-up: time each model's trace generation and Ideal run. */
void
tracedSetup(Ledger &ledger, ExperimentContext &context,
            const std::vector<std::pair<std::string, std::uint32_t>> &ideals,
            const std::map<std::string, Network> &external = {})
{
    std::set<std::string> seen;
    for (const auto &[model, multiplier] : ideals) {
        if (seen.insert(model).second) {
            auto t0 = Clock::now();
            auto it = external.find(model);
            auto trace = it == external.end()
                             ? context.trace(model)
                             : context.registerNetwork(it->second);
            ledger["sw.trace_gen_s"] += since(t0);
            ledger["sw.tiles"] += static_cast<double>(trace->tiles().size());
        }
        auto t1 = Clock::now();
        context.idealCycles(model, multiplier);
        ledger["ideal.s"] += since(t1);
        ledger["ideal.runs"] += 1;
    }
}

// ---------------------------------------------------------------------
// batch-exact: the eight golden mixes, exact, one thread, back to back.
// ---------------------------------------------------------------------

struct BatchContexts
{
    std::map<std::string, std::unique_ptr<ExperimentContext>> byProtocol;

    ExperimentContext &operator[](const std::string &protocol)
    {
        auto &slot = byProtocol[protocol];
        if (!slot) {
            slot = std::make_unique<ExperimentContext>(
                ArchConfig::miniNpu(), pinnedMem(protocol), ModelScale::Mini);
        }
        return *slot;
    }
};

std::vector<std::pair<std::string, std::uint32_t>>
goldenIdeals(const std::string &protocol)
{
    std::vector<std::pair<std::string, std::uint32_t>> ideals;
    for (const GoldenCase &golden : goldenCases()) {
        if (golden.protocol != protocol)
            continue;
        for (const auto &model : golden.models) {
            ideals.emplace_back(
                model, static_cast<std::uint32_t>(golden.models.size()));
        }
    }
    std::sort(ideals.begin(), ideals.end());
    ideals.erase(std::unique(ideals.begin(), ideals.end()), ideals.end());
    return ideals;
}

SystemConfig
goldenConfig(const GoldenCase &golden, FidelityKind fidelity)
{
    SystemConfig config = pinnedConfig(golden.level, fidelity);
    config.dramBandwidthShares = golden.dramBandwidthShares;
    return config;
}

void
batchSetup(BatchContexts &contexts, ScaledTimer &timer)
{
    for (const char *protocol : {"hbm2", "ddr4"}) {
        timer.step([&] {
            ExperimentContext &context = contexts[protocol];
            for (const auto &[model, multiplier] : goldenIdeals(protocol))
                context.idealCycles(model, multiplier);
        });
    }
}

PassResult
batchPass(Report &report, BatchContexts &contexts, const Options &options,
          std::vector<std::string> *texts)
{
    PassResult pass;
    ScaledTimer timer(yardstick());
    for (const GoldenCase &golden : goldenCases()) {
        MixOutcome outcome;
        pass.opSeconds.push_back(timer.step([&] {
            outcome = contexts[golden.protocol].runMix(
                goldenConfig(golden, FidelityKind::Exact), golden.models);
        }));
        pass.simCycles += coreCycles(outcome.raw);
        const std::string text = recordText(golden.name, outcome);
        const std::string want =
            readText(goldenFixturePath(options.goldenDir, golden.name));
        std::string problem;
        if (text != want) {
            SweepCheckpointRecord expected, actual;
            parseJsonLine(want, expected);
            parseJsonLine(text, actual);
            problem = "differs from its golden fixture: " +
                      describeGoldenDiff(expected, actual);
        }
        report.operation(golden.name, problem);
        if (texts)
            texts->push_back(text);
    }
    pass.wall = timer.scaled();
    pass.hostWall = timer.host();
    return pass;
}

/** The mix outcome runMix would build from @p raw (speedups against
 *  the context's cached Ideal baselines). */
MixOutcome
outcomeOf(ExperimentContext &context, const std::vector<std::string> &models,
          SimResult raw)
{
    MixOutcome outcome;
    outcome.models = models;
    outcome.raw = std::move(raw);
    const auto k = static_cast<std::uint32_t>(models.size());
    for (std::size_t i = 0; i < models.size(); ++i) {
        double ideal = context.idealCycles(models[i], k);
        double seen = static_cast<double>(outcome.raw.cores[i].localCycles);
        outcome.speedups.push_back(speedup(ideal, seen));
        outcome.slowdowns.push_back(slowdown(ideal, seen));
    }
    outcome.geomeanSpeedup = geomean(outcome.speedups);
    outcome.fairnessValue = fairness(outcome.slowdowns);
    return outcome;
}

int
runBatch(const Options &options, Report &report)
{
    Pins pins; // exact, thread, 1 job
    pinProcessDefaults(pins);
    std::printf("workload batch-exact: %zu golden mixes, exact, 1 thread "
                "(seed unused)\n",
                goldenCases().size());
    Timing timing;
    std::unique_ptr<BatchContexts> contexts;
    for (int i = 0; i < setupRepeats(options, 3); ++i) {
        contexts = std::make_unique<BatchContexts>();
        ScaledTimer timer(yardstick());
        batchSetup(*contexts, timer);
        timing.addSetup(timer);
    }
    const GoldenCase &first = goldenCases().front();
    checkResolved(report, (*contexts)[first.protocol],
                  goldenConfig(first, FidelityKind::Exact), first.models,
                  pins);

    if (!options.trace) {
        const std::size_t passes = passCount(options.seconds, 7.0);
        for (std::size_t i = 0; i < passes; ++i)
            timing.passes.push_back(batchPass(report, *contexts, options,
                                              nullptr));
        reportEndToEnd(report, timing);
        return 0;
    }

    // Traced run: an untraced pass gives the reference outputs and wall;
    // the traced pass runs the same mixes through each layer's own entry
    // points; a third run per mix captures request logs for the replays.
    std::vector<std::string> untraced;
    PassResult plain = batchPass(report, *contexts, options, &untraced);
    Ledger ledger;
    BatchContexts fresh;
    for (const char *protocol : {"hbm2", "ddr4"})
        tracedSetup(ledger, fresh[protocol], goldenIdeals(protocol));
    const auto &cases = goldenCases();
    auto start = Clock::now();
    for (std::size_t i = 0; i < cases.size(); ++i) {
        ExperimentContext &context = fresh[cases[i].protocol];
        SystemConfig config = goldenConfig(cases[i], FidelityKind::Exact);
        config.mem = context.mem();
        SimResult raw = spanRun(ledger, config,
                                bindingsFor(context, cases[i].models));
        report.gate(recordText(cases[i].name,
                               outcomeOf(context, cases[i].models, raw)) ==
                        untraced[i],
                    cases[i].name + ": traced output differs from untraced");
    }
    ledger["trace.overhead_s"] = since(start) - plain.hostWall;
    for (std::size_t i = 0; i < cases.size(); ++i) {
        ExperimentContext &context = fresh[cases[i].protocol];
        SystemConfig config = goldenConfig(cases[i], FidelityKind::Exact);
        config.mem = context.mem();
        SimResult raw = logReplay(ledger, config,
                                  bindingsFor(context, cases[i].models),
                                  fs::path(options.workDir) / cases[i].name,
                                  cases[i].name);
        report.gate(recordText(cases[i].name,
                               outcomeOf(context, cases[i].models, raw)) ==
                        untraced[i],
                    cases[i].name + ": logged output differs from untraced");
    }
    ledger.emit(report);
    return 0;
}

// ---------------------------------------------------------------------
// serving-exact: offered-load sweep on the committed serving system.
// ---------------------------------------------------------------------

/** Arrival schedules per offered load in one pass. */
constexpr std::uint64_t kServingSeedsPerLoad = 2;

/**
 * Seeded Poisson arrivals of @p n requests at @p load per Mcycle, as an
 * inline arrival trace: a Poisson process conditioned on n arrivals in
 * the window n / load has its arrival times uniform over the window.
 * Every request has the golden's mean shape, so the seed moves arrival
 * times (and with them batching) but not the amount of work.
 */
std::string
arrivalTrace(Rng &rng, double load, const ServingConfig &shape)
{
    const double window = shape.numRequests / load * 1e6;
    std::vector<std::uint64_t> cycles;
    for (std::uint32_t i = 0; i < shape.numRequests; ++i)
        cycles.push_back(static_cast<std::uint64_t>(rng.uniform() * window));
    std::sort(cycles.begin(), cycles.end());
    std::string text;
    for (std::uint64_t cycle : cycles) {
        text += std::to_string(cycle) + "," +
                std::to_string(shape.meanPromptTokens) + "," +
                std::to_string(shape.meanDecodeTokens) + "\n";
    }
    return text;
}

std::vector<SweepJob>
servingJobs(std::uint64_t seed)
{
    const ServingGoldenCase &golden = servingGoldenCases().front();
    std::vector<SweepJob> jobs;
    Rng rng(seed);
    // Below the knee, at the knee, and the golden's saturating load.
    for (std::uint64_t k = 0; k < kServingSeedsPerLoad; ++k) {
        for (double load : {1.0, 4.0, 40.0}) {
            SweepJob job;
            job.config = pinnedConfig(golden.level, FidelityKind::Exact);
            job.config.serving = golden.serving;
            job.config.serving->poissonRatePerMcycle = load;
            job.config.serving->arrivalTrace =
                arrivalTrace(rng, load, golden.serving);
            job.models.assign(golden.cores, "gpt2");
            jobs.push_back(std::move(job));
        }
    }
    // The golden point itself (engine-drawn arrivals, seed 5, load 40).
    SweepJob fixed;
    fixed.config = pinnedConfig(golden.level, FidelityKind::Exact);
    fixed.config.serving = golden.serving;
    fixed.models.assign(golden.cores, "gpt2");
    jobs.push_back(std::move(fixed));
    return jobs;
}

std::unique_ptr<ExperimentContext>
servingSetup()
{
    // The engine rebuilds systems and traces every round, so the only
    // set-up a serving sweep pays at the seed is its context; warming
    // the GPT-2 trace and 2-NPU Ideal baseline is what any batch job
    // on the same context would pay and keeps the figure measurable.
    const ServingGoldenCase &golden = servingGoldenCases().front();
    auto context = std::make_unique<ExperimentContext>(
        ArchConfig::miniNpu(), pinnedMem(golden.protocol), ModelScale::Mini);
    context->idealCycles("gpt2", golden.cores);
    return context;
}

/** Check a serving pass's records (every point ok, the golden point
 *  equal to its fixture) and add their outputs to @p pass. */
void
checkServingRecords(Report &report, const std::vector<SweepJob> &jobs,
                    const std::vector<SweepRecord> &records,
                    const Options &options, PassResult &pass)
{
    const ServingGoldenCase &golden = servingGoldenCases().front();
    for (std::size_t i = 0; i < records.size(); ++i) {
        const SweepRecord &record = records[i];
        std::string problem;
        if (record.status != SweepStatus::Ok || !record.outcome.serving) {
            problem = "status " + std::string(toString(record.status)) +
                      " " + record.error;
        } else {
            pass.simCycles += coreCycles(record.outcome.raw);
            pass.requests += record.outcome.serving->completed;
        }
        const bool is_golden = i + 1 == records.size();
        if (problem.empty() && is_golden) {
            const std::string text = recordText(golden.name, record);
            const std::string want =
                readText(goldenFixturePath(options.goldenDir, golden.name));
            if (text != want) {
                SweepCheckpointRecord expected, actual;
                parseJsonLine(want, expected);
                parseJsonLine(text, actual);
                problem = "differs from its golden fixture: " +
                          describeGoldenDiff(expected, actual);
            }
        }
        char label[64];
        std::snprintf(label, sizeof(label), "serving load %.1f%s",
                      jobs[i].config.serving->poissonRatePerMcycle,
                      is_golden ? " (golden)" : "");
        report.operation(label, problem);
    }
}

/**
 * The timed serving pass: the points on the sweep runner's worker pool,
 * each through ExperimentContext::runMix as SweepRunner::run runs a
 * thread-isolated job, with a yardstick run before and after each point
 * on its worker. The pass wall is the elapsed time less each worker's
 * share of yardstick time, scaled by the points' time-weighted scale.
 */
PassResult
servingPass(Report &report, ExperimentContext &context,
            const std::vector<SweepJob> &jobs, const Options &options,
            const Pins &pins)
{
    struct Point
    {
        SweepRecord record;
        double scaled = 0, probe = 0;
    };
    SweepRunner runner(pins.jobs);
    auto start = Clock::now();
    std::vector<Point> points = runner.map<Point>(
        jobs.size(), [&](std::size_t i) {
            Point point;
            auto t0 = Clock::now();
            ScaledTimer timer(yardstick());
            point.probe = since(t0);
            point.scaled = timer.step([&] {
                try {
                    point.record.outcome =
                        context.runMix(jobs[i].config, jobs[i].models);
                } catch (const std::exception &error) {
                    point.record.status = SweepStatus::Failed;
                    point.record.error = error.what();
                }
            });
            point.record.wallSeconds = timer.host();
            point.probe += timer.probe();
            return point;
        });
    const double elapsed = since(start);
    PassResult pass;
    std::vector<SweepRecord> records;
    double host = 0, scaled = 0, probe = 0;
    for (Point &point : points) {
        pass.opSeconds.push_back(point.scaled);
        host += point.record.wallSeconds;
        scaled += point.scaled;
        probe += point.probe;
        records.push_back(std::move(point.record));
    }
    pass.hostWall = elapsed - probe / static_cast<double>(runner.workers());
    pass.wall = pass.hostWall * scaled / host;
    checkServingRecords(report, jobs, records, options, pass);
    return pass;
}

/** An unscaled pass through SweepRunner::run, for the traced run's
 *  reference outputs and sweep accounting. */
PassResult
servingSweep(Report &report, ExperimentContext &context,
             const std::vector<SweepJob> &jobs, const Options &options,
             const Pins &pins, std::vector<SweepRecord> &records,
             SweepStats &stats)
{
    SweepRunner runner(pins.jobs);
    PassResult pass;
    auto start = Clock::now();
    records = runner.run(context, jobs, pinnedSweep(pins));
    pass.hostWall = since(start);
    stats = runner.lastStats();
    checkServingRecords(report, jobs, records, options, pass);
    return pass;
}

std::string
telemetryText(const TelemetrySnapshot &telemetry)
{
    std::ostringstream out;
    telemetry.writeJsonl(out);
    return out.str();
}

/**
 * Serving rounds strip request logs, so the DRAM/MMU/core ledger on
 * this workload comes from a probe: each core runs the golden request
 * shape (prefill of the prompt, then every decode step) lowered into
 * one network, on the serving system's configuration.
 */
void
servingProbe(Report &report, Ledger &ledger, ExperimentContext &context,
             const Options &options)
{
    const ServingGoldenCase &golden = servingGoldenCases().front();
    const ServingConfig &serving = golden.serving;
    std::vector<CoreBinding> bindings;
    for (std::uint32_t core = 0; core < golden.cores; ++core) {
        Network net;
        net.name = "serving_probe" + std::to_string(core);
        const std::string prefix = "r" + std::to_string(core);
        appendGpt2Prefill(net, prefix, serving.meanPromptTokens,
                          ModelScale::Mini);
        for (std::uint32_t t = 1; t < serving.meanDecodeTokens; ++t) {
            appendGpt2DecodeStep(net, prefix,
                                 serving.meanPromptTokens + t - 1,
                                 ModelScale::Mini);
        }
        CoreBinding binding;
        binding.trace = std::make_shared<TraceGenerator>(context.arch(), net);
        bindings.push_back(std::move(binding));
    }
    SystemConfig config = pinnedConfig(golden.level, FidelityKind::Exact);
    config.mem = context.mem();
    SimResult spans = spanRun(ledger, config, bindings);
    SimResult logged =
        logReplay(ledger, config, bindings,
                  fs::path(options.workDir) / "serving_probe", "serving probe");
    report.gate(telemetryText(spans.telemetry) ==
                    telemetryText(logged.telemetry),
                "serving probe: logged output differs from untraced");
}

int
runServingWorkload(const Options &options, Report &report)
{
    Pins pins;
    pins.jobs = 2;
    pinProcessDefaults(pins);
    const std::vector<SweepJob> jobs = servingJobs(options.seed);
    std::printf("workload serving-exact: loads 1.0/4.0/40.0 per Mcycle x "
                "%" PRIu64 " arrival seeds (from seed %" PRIu64 ") + golden "
                "point, exact, %zu-job thread sweep\n",
                kServingSeedsPerLoad, options.seed, pins.jobs);
    Timing timing;
    std::unique_ptr<ExperimentContext> context;
    for (int i = 0; i < setupRepeats(options, 7); ++i) {
        ScaledTimer timer(yardstick());
        timer.step([&] { context = servingSetup(); });
        timing.addSetup(timer);
    }
    checkResolved(report, *context, jobs.front().config, {"gpt2", "gpt2"},
                  pins);

    if (!options.trace) {
        const std::size_t passes = passCount(options.seconds, 10.0);
        for (std::size_t i = 0; i < passes; ++i) {
            timing.passes.push_back(
                servingPass(report, *context, jobs, options, pins));
        }
        reportEndToEnd(report, timing);
        return 0;
    }

    std::vector<SweepRecord> untraced;
    SweepStats stats;
    PassResult plain =
        servingSweep(report, *context, jobs, options, pins, untraced, stats);
    Ledger ledger;
    {
        auto fresh = std::make_unique<ExperimentContext>(
            context->arch(), context->mem(), ModelScale::Mini);
        tracedSetup(ledger, *fresh, {{"gpt2", 2}});
    }
    // Traced pass: the same points through runServing directly, on the
    // same two workers.
    SweepRunner runner(pins.jobs);
    std::vector<double> run_s(jobs.size());
    auto start = Clock::now();
    std::vector<ServingResult> results = runner.map<ServingResult>(
        jobs.size(), [&](std::size_t i) {
            SystemConfig config = jobs[i].config;
            config.mem = context->mem();
            auto t0 = Clock::now();
            ServingResult result = runServing(
                context->arch(), ModelScale::Mini, config,
                static_cast<std::uint32_t>(jobs[i].models.size()));
            run_s[i] = since(t0);
            return result;
        });
    const double traced_wall = since(start);
    for (std::size_t i = 0; i < jobs.size(); ++i) {
        const ServingSummary &summary = results[i].summary;
        ledger["serving.run_s"] += run_s[i];
        ledger["serving.rounds"] += static_cast<double>(summary.rounds);
        ledger["serving.tokens"] += static_cast<double>(
            summary.prefillTokens + summary.decodeTokens);
        const bool same =
            untraced[i].outcome.serving &&
            *untraced[i].outcome.serving == summary &&
            telemetryText(untraced[i].outcome.raw.telemetry) ==
                telemetryText(results[i].aggregate.telemetry);
        report.gate(same, "serving point " + std::to_string(i) +
                              ": traced output differs from untraced");
    }
    addSweep(ledger, stats);
    ledger["trace.overhead_s"] = traced_wall - plain.hostWall;
    servingProbe(report, ledger, *context, options);
    ledger.emit(report);
    return 0;
}

// ---------------------------------------------------------------------
// campaign-fast: process-isolated fast sweep with checkpoints and
// snapshots over the quad mixes, the golden mixes and random networks.
// ---------------------------------------------------------------------

constexpr Cycle kSnapshotEveryCycles = 250000;
constexpr std::uint32_t kRandomNetworks = 32;

/** Jobs per sweep call. A pass runs its job lists in segments of this
 *  many, with a yardstick run on each worker between segments. */
constexpr std::size_t kSegmentJobs = 100;

struct Campaign
{
    std::unique_ptr<ExperimentContext> hbm2, ddr4;
    std::map<std::string, Network> randomNets;
    std::vector<SweepJob> hbm2Jobs, ddr4Jobs;
    std::vector<std::string> hbm2Names, ddr4Names; //!< golden name or ""
    std::vector<std::pair<std::string, std::uint32_t>> hbm2Ideals;
};

const std::vector<SharingLevel> kLevels = {
    SharingLevel::Static, SharingLevel::ShareD, SharingLevel::ShareDW,
    SharingLevel::ShareDWT};

/** Job list and random networks; deterministic in the seed. */
Campaign
campaignPlan(std::uint64_t seed)
{
    Campaign plan;
    const auto &names = modelNames();
    for (const auto &mix :
         enumerateMultisets(static_cast<std::uint32_t>(names.size()), 4)) {
        for (SharingLevel level : kLevels) {
            SweepJob job;
            job.config = pinnedConfig(level, FidelityKind::Fast);
            for (std::uint32_t m : mix)
                job.models.push_back(names[m]);
            plan.hbm2Jobs.push_back(std::move(job));
            plan.hbm2Names.emplace_back();
        }
    }
    // Random networks sized like the Mini-scale built-ins, so the seed
    // changes which networks miss the caches, not the campaign's size.
    RandomNetOptions shape;
    shape.maxLayers = 6;
    shape.minSpatial = 7;
    shape.maxSpatial = 28;
    shape.maxChannels = 128;
    shape.maxGemmDim = 512;
    Rng rng(seed);
    for (std::uint32_t i = 0; i < kRandomNetworks; ++i) {
        Network net = randomNetwork(rng, shape);
        net.name = "rnd" + std::to_string(seed) + "_" + std::to_string(i);
        SweepJob job;
        job.config = pinnedConfig(kLevels[rng.range(0, kLevels.size() - 1)],
                                  FidelityKind::Fast);
        job.models.push_back(net.name);
        for (int k = 0; k < 3; ++k)
            job.models.push_back(names[rng.range(0, names.size() - 1)]);
        plan.randomNets.emplace(net.name, std::move(net));
        plan.hbm2Jobs.push_back(std::move(job));
        plan.hbm2Names.emplace_back();
    }
    for (const GoldenCase &golden : goldenCases()) {
        SweepJob job;
        job.config = goldenConfig(golden, FidelityKind::Fast);
        job.models = golden.models;
        const bool hbm2 = golden.protocol == "hbm2";
        (hbm2 ? plan.hbm2Jobs : plan.ddr4Jobs).push_back(std::move(job));
        (hbm2 ? plan.hbm2Names : plan.ddr4Names).push_back(golden.name);
    }
    // Deal the jobs round-robin into the pass's segments, so each
    // segment holds an even share of every model's jobs and the
    // heaviest jobs, which make the tail, do not all fall into one
    // segment and share one yardstick reading.
    const std::size_t n = plan.hbm2Jobs.size();
    const std::size_t stride = (n + kSegmentJobs - 1) / kSegmentJobs;
    std::vector<SweepJob> jobs;
    std::vector<std::string> job_names;
    for (std::size_t first = 0; first < stride; ++first) {
        for (std::size_t i = first; i < n; i += stride) {
            jobs.push_back(std::move(plan.hbm2Jobs[i]));
            job_names.push_back(std::move(plan.hbm2Names[i]));
        }
    }
    plan.hbm2Jobs = std::move(jobs);
    plan.hbm2Names = std::move(job_names);
    std::set<std::pair<std::string, std::uint32_t>> ideals;
    for (const SweepJob &job : plan.hbm2Jobs) {
        const auto k = static_cast<std::uint32_t>(job.models.size());
        for (const auto &model : job.models)
            ideals.emplace(model, k);
    }
    plan.hbm2Ideals.assign(ideals.begin(), ideals.end());
    return plan;
}

void
campaignSetup(Campaign &plan)
{
    plan.hbm2 = std::make_unique<ExperimentContext>(
        ArchConfig::miniNpu(), pinnedMem("hbm2"), ModelScale::Mini);
    plan.ddr4 = std::make_unique<ExperimentContext>(
        ArchConfig::miniNpu(), pinnedMem("ddr4"), ModelScale::Mini);
    for (const auto &[name, net] : plan.randomNets)
        plan.hbm2->registerNetwork(net);
    for (const auto &[model, multiplier] : plan.hbm2Ideals)
        plan.hbm2->idealCycles(model, multiplier);
    for (const auto &[model, multiplier] : goldenIdeals("ddr4"))
        plan.ddr4->idealCycles(model, multiplier);
}

/** Largest relative cycle deviation of a fast record from the exact
 *  golden fixture (global and every core), as the envelope defines it. */
double
fastDeviation(const SweepCheckpointRecord &exact,
              const SweepCheckpointRecord &fast, double *perCoreMax)
{
    auto rel = [](std::uint64_t e, std::uint64_t f) {
        if (e == 0)
            return f == 0 ? 0.0 : 1.0;
        return std::fabs(static_cast<double>(f) - static_cast<double>(e)) /
               static_cast<double>(e);
    };
    double dev = rel(exact.globalCycles, fast.globalCycles);
    const std::size_t n =
        std::min(exact.localCycles.size(), fast.localCycles.size());
    for (std::size_t i = 0; i < n; ++i) {
        double core = rel(exact.localCycles[i], fast.localCycles[i]);
        dev = std::max(dev, core);
        *perCoreMax = std::max(*perCoreMax, core);
    }
    return dev;
}

struct CampaignPass
{
    PassResult pass;
    std::vector<SweepStats> stats; //!< per segment
    std::vector<std::string> texts; //!< per job, wall-clock zeroed
    double fastErrMax = 0;
};


/** One sweep call of a pass: jobs [begin, end) of part 0 (HBM2) or
 *  part 1 (DDR4). */
struct Segment
{
    int part = 0;
    std::size_t begin = 0, end = 0;
};

std::vector<Segment>
campaignSegments(const Campaign &plan)
{
    std::vector<Segment> segments;
    for (int part = 0; part < 2; ++part) {
        const std::size_t n =
            (part == 0 ? plan.hbm2Jobs : plan.ddr4Jobs).size();
        const std::size_t count = (n + kSegmentJobs - 1) / kSegmentJobs;
        // Segments of near-equal size.
        for (std::size_t k = 0; k < count; ++k)
            segments.push_back({part, n * k / count, n * (k + 1) / count});
    }
    return segments;
}

/** A segment's jobs and sweep options: its own checkpoint file, the
 *  pass's snapshot directory and cadence. */
std::vector<SweepJob>
segmentJobs(const Campaign &plan, const Segment &segment)
{
    const auto &jobs = segment.part == 0 ? plan.hbm2Jobs : plan.ddr4Jobs;
    return {jobs.begin() + static_cast<std::ptrdiff_t>(segment.begin),
            jobs.begin() + static_cast<std::ptrdiff_t>(segment.end)};
}

SweepOptions
segmentSweep(const Pins &pins, const fs::path &dir, const Segment &segment)
{
    SweepOptions sweep = pinnedSweep(pins);
    sweep.checkpointPath =
        (dir / ("checkpoint" + std::to_string(segment.part) + "_" +
                std::to_string(segment.begin) + ".jsonl"))
            .string();
    sweep.snapshotDir = (dir / "snapshots").string();
    sweep.snapshotEveryCycles = kSnapshotEveryCycles;
    return sweep;
}

CampaignPass
campaignPass(Report &report, Campaign &plan, const Options &options,
             const Pins &pins, const fs::path &dir)
{
    fs::remove_all(dir);
    fs::create_directories(dir / "snapshots");
    std::map<std::string, FidelityEnvelopeEntry> envelope;
    {
        std::ifstream in(fidelityEnvelopePath(options.goldenDir));
        std::string line;
        FidelityEnvelopeEntry entry;
        while (std::getline(in, line)) {
            if (parseFidelityEnvelopeLine(line, entry))
                envelope[entry.name] = entry;
        }
    }
    CampaignPass out;
    ScaledTimer timer(yardstick(), pins.jobs);
    for (const Segment &segment : campaignSegments(plan)) {
        ExperimentContext &context =
            segment.part == 0 ? *plan.hbm2 : *plan.ddr4;
        const std::vector<SweepJob> jobs = segmentJobs(plan, segment);
        const SweepOptions sweep = segmentSweep(pins, dir, segment);
        const auto &all_names =
            segment.part == 0 ? plan.hbm2Names : plan.ddr4Names;
        const std::vector<std::string> names(
            all_names.begin() + static_cast<std::ptrdiff_t>(segment.begin),
            all_names.begin() + static_cast<std::ptrdiff_t>(segment.end));
        SweepRunner runner(pins.jobs);
        std::vector<SweepRecord> records;
        const double host_before = timer.host();
        const double scaled = timer.step(
            [&] { records = runner.run(context, jobs, sweep); });
        const double factor = scaled / (timer.host() - host_before);
        out.stats.push_back(runner.lastStats());
        for (std::size_t i = 0; i < records.size(); ++i) {
            const SweepRecord &record = records[i];
            const std::string key = sweepJobKey(
                jobs[i], context.arch(), context.mem(), context.scale());
            out.pass.opSeconds.push_back(record.wallSeconds * factor);
            std::string problem;
            if (record.status != SweepStatus::Ok) {
                problem = "status " + std::string(toString(record.status)) +
                          " " + record.error;
            } else {
                out.pass.simCycles += coreCycles(record.outcome.raw);
            }
            out.texts.push_back(recordText(key, record));
            if (problem.empty() && !names[i].empty()) {
                SweepCheckpointRecord exact;
                parseJsonLine(readText(goldenFixturePath(options.goldenDir,
                                                         names[i])),
                              exact);
                const SweepCheckpointRecord fast =
                    checkpointRecordOf(key, record);
                const double dev =
                    fastDeviation(exact, fast, &out.fastErrMax);
                auto it = envelope.find(names[i]);
                if (it == envelope.end()) {
                    problem = "no fidelity envelope row";
                } else if (dev > it->second.bound) {
                    char why[128];
                    std::snprintf(why, sizeof(why),
                                  "fast deviation %.6f exceeds the "
                                  "envelope bound %.6f",
                                  dev, it->second.bound);
                    problem = why;
                }
            }
            std::string what = names[i].empty() ? "campaign job " + key
                                                : names[i] + " (fast)";
            report.operation(what, problem);
        }
    }
    out.pass.wall = timer.scaled();
    out.pass.hostWall = timer.host();
    return out;
}

/** Persist a snapshot from a campaign job, then time writing it and
 *  restoring it into a fresh identically configured system. */
void
snapshotProbe(Report &report, Ledger &ledger, ExperimentContext &context,
              const SweepJob &job, const fs::path &dir)
{
    fs::create_directories(dir);
    SystemConfig config = job.config;
    config.mem = context.mem();
    RunBudget budget;
    budget.snapshot.path = (dir / "job.snap").string();
    budget.snapshot.everyCycles = kSnapshotEveryCycles;
    budget.snapshot.removeOnSuccess = false;
    MultiCoreSystem(config, bindingsFor(context, job.models)).run(budget);
    std::optional<std::string> payload =
        readSnapshotFile(budget.snapshot.path);
    report.gate(payload.has_value(), "campaign job persisted no snapshot");
    if (!payload)
        return;
    ledger["snapshot.bytes"] =
        static_cast<double>(fileBytes(budget.snapshot.path));
    std::vector<double> writes, restores;
    for (int i = 0; i < 5; ++i) {
        auto t0 = Clock::now();
        bool wrote = writeSnapshotFile((dir / "copy.snap").string(), *payload);
        writes.push_back(since(t0));
        MultiCoreSystem fresh(config, bindingsFor(context, job.models));
        auto t1 = Clock::now();
        bool restored = fresh.tryRestoreSnapshot(budget.snapshot.path);
        restores.push_back(since(t1));
        report.gate(wrote && restored, "snapshot write/restore failed");
    }
    ledger["snapshot.write_s"] = median(writes);
    ledger["snapshot.restore_s"] = median(restores);
    fs::remove_all(dir);
}

int
runCampaign(const Options &options, Report &report)
{
    Pins pins;
    pins.fidelity = FidelityKind::Fast;
    pins.isolation = IsolationMode::Process;
    pins.jobs = 2;
    pinProcessDefaults(pins);
    Campaign plan = campaignPlan(options.seed);
    std::printf("workload campaign-fast: %zu jobs (%zu quad mixes x 4 "
                "levels, %u random-network mixes from seed %" PRIu64
                ", %zu golden mixes), fast, %zu-process sweep, "
                "checkpoint on, snapshot every %" PRIu64 " cycles\n",
                plan.hbm2Jobs.size() + plan.ddr4Jobs.size(),
                static_cast<std::size_t>(multisetCount(
                    static_cast<std::uint32_t>(modelNames().size()), 4)),
                kRandomNetworks, options.seed, goldenCases().size(),
                pins.jobs, static_cast<std::uint64_t>(kSnapshotEveryCycles));
    Timing timing;
    for (int i = 0; i < setupRepeats(options, 7); ++i) {
        ScaledTimer timer(yardstick());
        timer.step([&] { campaignSetup(plan); });
        timing.addSetup(timer);
    }
    checkResolved(report, *plan.hbm2, plan.hbm2Jobs.front().config,
                  plan.hbm2Jobs.front().models, pins);
    const fs::path dir = fs::path(options.workDir) / "campaign";

    if (!options.trace) {
        const std::size_t passes = passCount(options.seconds, 20.0);
        double err = 0;
        for (std::size_t i = 0; i < passes; ++i) {
            CampaignPass pass = campaignPass(report, plan, options, pins, dir);
            timing.passes.push_back(pass.pass);
            err = pass.fastErrMax;
        }
        reportEndToEnd(report, timing);
        std::printf("  %-28s %16.6f %-8s (checked output: largest per-core "
                    "deviation of fast from the exact goldens, n=%zu)\n",
                    "fast_err_max", err, "ratio", goldenCases().size());
        fs::remove_all(dir);
        return 0;
    }

    Ledger ledger;
    CampaignPass plain = campaignPass(report, plan, options, pins, dir);
    {
        Campaign fresh = campaignPlan(options.seed);
        fresh.hbm2 = std::make_unique<ExperimentContext>(
            ArchConfig::miniNpu(), pinnedMem("hbm2"), ModelScale::Mini);
        tracedSetup(ledger, *fresh.hbm2, fresh.hbm2Ideals, fresh.randomNets);
        fresh.ddr4 = std::make_unique<ExperimentContext>(
            ArchConfig::miniNpu(), pinnedMem("ddr4"), ModelScale::Mini);
        tracedSetup(ledger, *fresh.ddr4, goldenIdeals("ddr4"));
    }
    // The traced pass is the same sweep; its ledger is the sweep's own
    // accounting plus the checkpoint and snapshot probes below.
    CampaignPass traced = campaignPass(report, plan, options, pins, dir);
    report.gate(traced.texts == plain.texts,
                "campaign: repeated pass outputs differ");
    for (const SweepStats &stats : traced.stats)
        addSweep(ledger, stats);
    ledger["trace.overhead_s"] = traced.pass.hostWall - plain.pass.hostWall;
    ledger["fidelity.fast_err_max"] = traced.fastErrMax;

    // Checkpoint: bytes written, and a resume pass restoring every record.
    for (const Segment &segment : campaignSegments(plan)) {
        const std::vector<SweepJob> jobs = segmentJobs(plan, segment);
        SweepOptions sweep = segmentSweep(pins, dir, segment);
        sweep.resume = true;
        ledger["checkpoint.bytes"] +=
            static_cast<double>(fileBytes(sweep.checkpointPath));
        SweepRunner runner(pins.jobs);
        auto t0 = Clock::now();
        runner.run(segment.part == 0 ? *plan.hbm2 : *plan.ddr4, jobs, sweep);
        ledger["checkpoint.resume_s"] += since(t0);
        report.gate(runner.lastStats().executed == 0,
                    "checkpoint resume re-executed jobs");
    }

    // Isolation must not change results: the same jobs in threads.
    Pins threads = pins;
    threads.isolation = IsolationMode::Thread;
    CampaignPass threaded =
        campaignPass(report, plan, options, threads, dir / "threads");
    report.gate(threaded.texts == plain.texts,
                "campaign: thread and process isolation outputs differ");

    // In-situ counters of the fast path: the golden mixes run directly.
    for (const GoldenCase &golden : goldenCases()) {
        ExperimentContext &context =
            golden.protocol == "hbm2" ? *plan.hbm2 : *plan.ddr4;
        SystemConfig config = goldenConfig(golden, FidelityKind::Fast);
        config.mem = context.mem();
        SimResult spans =
            spanRun(ledger, config, bindingsFor(context, golden.models));
        SimResult logged =
            logReplay(ledger, config, bindingsFor(context, golden.models),
                      dir / "direct", golden.name + " (fast)");
        report.gate(telemetryText(spans.telemetry) ==
                        telemetryText(logged.telemetry),
                    golden.name + " (fast): logged output differs");
    }
    const std::size_t quad_golden =
        std::find_if(plan.hbm2Names.begin(), plan.hbm2Names.end(),
                     [](const std::string &n) {
                         return n == "hbm2-quad-res-yt-dlrm-ncf-dwt";
                     }) -
        plan.hbm2Names.begin();
    snapshotProbe(report, ledger, *plan.hbm2, plan.hbm2Jobs[quad_golden],
                  dir / "snapshot_probe");
    fs::remove_all(dir);
    ledger.emit(report);
    return 0;
}

int
usage()
{
    std::fprintf(stderr,
                 "usage: simbench --workload batch-exact|serving-exact|"
                 "campaign-fast --seed N --seconds S --trace 0|1 "
                 "[--golden-dir DIR] [--work-dir DIR]\n");
    return 2;
}

} // namespace

int
main(int argc, char **argv)
{
    Options options;
    for (int i = 1; i + 1 < argc; i += 2) {
        const std::string flag = argv[i];
        const std::string value = argv[i + 1];
        if (flag == "--workload")
            options.workload = value;
        else if (flag == "--seed")
            options.seed = std::strtoull(value.c_str(), nullptr, 10);
        else if (flag == "--seconds")
            options.seconds = std::strtod(value.c_str(), nullptr);
        else if (flag == "--trace")
            options.trace = value == "1";
        else if (flag == "--golden-dir")
            options.goldenDir = value;
        else if (flag == "--work-dir")
            options.workDir = value;
        else
            return usage();
    }
    if (argc % 2 == 0 || !(options.seconds > 0))
        return usage();
    if (!fs::exists(fidelityEnvelopePath(options.goldenDir))) {
        std::fprintf(stderr, "simbench: golden fixtures not found in %s\n",
                     options.goldenDir.c_str());
        return 2;
    }
    fs::create_directories(options.workDir);

    Report report;
    int rc = 0;
    if (options.workload == "batch-exact")
        rc = runBatch(options, report);
    else if (options.workload == "serving-exact")
        rc = runServingWorkload(options, report);
    else if (options.workload == "campaign-fast")
        rc = runCampaign(options, report);
    else
        return usage();
    std::fflush(stdout);
    report.printJson();
    return rc != 0 ? rc : (report.correct() ? 0 : 1);
}
