/**
 * @file
 * Durable in-flight simulation snapshots (DESIGN.md §12).
 *
 * A snapshot is a versioned, checksummed binary image of the full
 * mutable state of a running MultiCoreSystem, written periodically
 * (`--snapshot-every`) and on the first SIGINT/SIGTERM so that a
 * killed, crashed, or preempted run can resume from its latest
 * snapshot instead of from cycle zero — bit-identically: a restored
 * run must produce byte-identical checkpoint-v2 telemetry and an
 * identical DRAM command-stream hash versus the uninterrupted run.
 *
 * This header owns the three layers every component shares:
 *
 *  - StateWriter / StateReader: a little-endian byte-stream codec.
 *    Doubles travel as raw IEEE-754 bit patterns (bit-exact round
 *    trip); every read is bounds-checked and throws SnapshotError on
 *    underflow, so a truncated or hostile payload can never walk the
 *    loader out of bounds. Section tags (4 ASCII bytes) delimit each
 *    component's state and turn "loader drifted out of sync" into a
 *    precise error instead of garbage state.
 *
 *  - The file format: magic "MNPUSNAP", a format version, the payload
 *    length, and an FNV-1a checksum over the payload. Loading rejects
 *    a bad magic, an unknown version, a short file, or a checksum
 *    mismatch by returning "no snapshot" (with a warning) — never by
 *    aborting. A rejected snapshot simply means a from-scratch run.
 *
 *  - SnapshotPolicy: where and how often a run snapshots, threaded
 *    through RunBudget so every entry point (CLI, benches, the sweep
 *    runner's thread and process workers) shares one implementation.
 *
 * Snapshot writes are passive: they serialize via const reads only,
 * so a run that writes snapshots stays bit-identical to one that
 * does not (enforced by the snapshot tests).
 */

#ifndef MNPU_COMMON_SNAPSHOT_HH
#define MNPU_COMMON_SNAPSHOT_HH

#include <bit>
#include <cstdint>
#include <deque>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

#include "common/types.hh"

namespace mnpu
{

/**
 * A malformed, truncated, or structurally mismatched snapshot
 * payload. Always contained: loaders catch it, discard the snapshot,
 * and fall back to a from-scratch run.
 */
class SnapshotError : public std::runtime_error
{
  public:
    explicit SnapshotError(const std::string &what)
        : std::runtime_error(what)
    {
    }
};

/**
 * Current snapshot file format version (see DESIGN.md §12). v2 added
 * the MMU's per-core attribution counters; v3 added the per-request
 * memory-region byte (tiered routing) to every serialized DramRequest
 * plus the PCM/XBar backend sections. Older-version snapshots are
 * rejected and their runs restart from scratch (the documented
 * contract) — as are same-version snapshots whose config fingerprint
 * (which now covers the backend kind and fabric knobs) differs.
 */
inline constexpr std::uint32_t kSnapshotFormatVersion = 3;

/** FNV-1a over a byte range; the snapshot payload checksum. */
std::uint64_t snapshotChecksum(const void *data, std::size_t size);

/**
 * Little-endian serializer for snapshot payloads (append-only). Each
 * value is built in a local buffer and appended once, so encoding
 * costs one bounds check and one copy per value, not per byte. A
 * writer reused across snapshots (clear()) keeps its capacity, so
 * later snapshots of a run append into memory sized by the previous
 * payload.
 */
class StateWriter
{
  public:
    void u8(std::uint8_t v) { bytes_.push_back(static_cast<char>(v)); }
    void b(bool v) { u8(v ? 1 : 0); }
    void u32(std::uint32_t v) { putLe<4>(v); }
    void u64(std::uint64_t v) { putLe<8>(v); }
    void i64(std::int64_t v) { u64(static_cast<std::uint64_t>(v)); }
    /** Raw IEEE-754 bit pattern: the round trip is bit-exact. */
    void d(double v) { u64(std::bit_cast<std::uint64_t>(v)); }
    void str(const std::string &s)
    {
        u64(s.size());
        bytes_.append(s);
    }

    /** Write a 4-byte section tag delimiting one component's state. */
    void section(const char (&tag)[5]) { bytes_.append(tag, 4); }

    /** @p n values with no count prefix. */
    void u64s(const std::uint64_t *v, std::size_t n);

    void u64Vec(const std::vector<std::uint64_t> &v)
    {
        u64(v.size());
        u64s(v.data(), v.size());
    }

    const std::string &bytes() const { return bytes_; }

    /** Drop the payload but keep the buffer for the next snapshot. */
    void clear() { bytes_.clear(); }

  private:
    template <std::size_t N>
    void putLe(std::uint64_t v)
    {
        char buf[N];
        for (std::size_t i = 0; i < N; ++i)
            buf[i] = static_cast<char>(v >> (8 * i));
        bytes_.append(buf, N);
    }

    std::string bytes_;
};

/** Bounds-checked little-endian deserializer; throws SnapshotError. */
class StateReader
{
  public:
    explicit StateReader(std::string payload) : bytes_(std::move(payload)) {}

    std::uint8_t u8();
    bool b() { return u8() != 0; }
    std::uint32_t u32();
    std::uint64_t u64();
    std::int64_t i64() { return static_cast<std::int64_t>(u64()); }
    double d();
    std::string str();

    /** Read and verify a section tag; mismatch throws SnapshotError. */
    void section(const char (&tag)[5]);

    std::vector<std::uint64_t> u64Vec();

    bool atEnd() const { return pos_ == bytes_.size(); }

  private:
    const char *take(std::size_t n);

    std::string bytes_;
    std::size_t pos_ = 0;
};

/**
 * Persist @p payload to @p path with the snapshot header, atomically:
 * write `<path>.tmp`, fsync, rename over @p path. The tmp path is
 * registered with the stop-signal force-exit cleanup hook for the
 * duration of the write, so a second SIGINT mid-write unlinks the
 * partial tmp instead of leaving it behind (rename itself is atomic,
 * so a half-renamed snapshot can never be observed). Returns false
 * (with a warning) on I/O failure; a run never dies for its snapshot.
 */
bool writeSnapshotFile(const std::string &path, const std::string &payload);

/**
 * Load and validate a snapshot file. Returns the payload, or
 * std::nullopt when the file is missing, short, has a bad magic, an
 * unknown format version, or a checksum mismatch. Every rejection of
 * an *existing* file warns with the reason; none ever aborts —
 * unknown-version and corrupt snapshots mean "run from scratch".
 */
std::optional<std::string> readSnapshotFile(const std::string &path);

/**
 * Fault-drill helper (`snapshot-corrupt`): flip one byte inside the
 * payload region of the snapshot at @p path, at rest. The next
 * readSnapshotFile must reject it by checksum. Returns false if the
 * file cannot be rewritten.
 */
bool corruptSnapshotAtRest(const std::string &path);

/**
 * Where and how often a run writes snapshots. Threaded through
 * RunBudget; an empty path disables snapshotting entirely. The
 * cadence knobs are durability policy, not simulated behavior: they
 * are deliberately excluded from sweepJobKey and cannot change
 * simulation results (snapshot writes are passive).
 */
struct SnapshotPolicy
{
    /** Snapshot file; `<path>.tmp` is used for the atomic write. */
    std::string path;
    /** Write a snapshot every this many global cycles (0 = off). */
    Cycle everyCycles = 0;
    /** Write a snapshot every this many wall seconds (0 = off). */
    double everySeconds = 0;
    /** Also snapshot when a stop token cancels the run (first ^C). */
    bool onCancel = true;
    /** Remove the snapshot once the run completes successfully. */
    bool removeOnSuccess = true;

    // --- Fault-drill knobs (process-isolated workers only). ---
    /** Corrupt the Nth written snapshot at rest, then SIGKILL. */
    std::uint64_t corruptNth = 0;
    /** SIGKILL the process right after the Nth snapshot persists. */
    std::uint64_t killNth = 0;

    bool enabled() const { return !path.empty(); }
};

} // namespace mnpu

#endif // MNPU_COMMON_SNAPSHOT_HH
