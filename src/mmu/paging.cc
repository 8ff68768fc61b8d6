#include "mmu/paging.hh"

#include <algorithm>
#include <array>
#include <tuple>
#include <utility>

#include "common/logging.hh"

namespace mnpu
{

namespace
{

/**
 * Sort interleaved (key, value) pairs by their unique 64-bit key:
 * an LSD radix sort, one byte per pass, skipping every byte all keys
 * share (page keys differ only in the ASID and low VPN bytes).
 */
void
sortPairsByKey(std::vector<std::uint64_t> &pairs)
{
    const std::size_t n = pairs.size() / 2;
    if (n < 2)
        return;
    std::array<std::array<std::size_t, 256>, 8> counts{};
    for (std::size_t i = 0; i < n; ++i) {
        const std::uint64_t key = pairs[2 * i];
        for (std::size_t digit = 0; digit < 8; ++digit)
            ++counts[digit][(key >> (8 * digit)) & 0xff];
    }
    std::vector<std::uint64_t> scratch(pairs.size());
    for (std::size_t digit = 0; digit < 8; ++digit) {
        std::array<std::size_t, 256> &count = counts[digit];
        const unsigned shift = static_cast<unsigned>(8 * digit);
        if (count[(pairs[0] >> shift) & 0xff] == n)
            continue; // every key has this byte: order unchanged
        std::size_t offset = 0;
        for (std::size_t &bucket : count) {
            const std::size_t size = bucket;
            bucket = offset;
            offset += size;
        }
        for (std::size_t i = 0; i < n; ++i) {
            const std::size_t to =
                2 * count[(pairs[2 * i] >> shift) & 0xff]++;
            scratch[to] = pairs[2 * i];
            scratch[to + 1] = pairs[2 * i + 1];
        }
        pairs.swap(scratch);
    }
}

} // namespace

std::uint32_t
walkLevelsForPageSize(std::uint64_t page_bytes)
{
    if (!isPowerOfTwo(page_bytes) || page_bytes < 4096)
        fatal("page size must be a power of two >= 4 KB, got ", page_bytes);
    std::uint32_t page_shift = floorLog2(page_bytes);
    std::uint32_t index_bits = page_shift - 3; // 8-byte PTEs
    std::uint32_t va_bits = 48;
    std::uint32_t vpn_bits = va_bits - page_shift;
    return static_cast<std::uint32_t>(ceilDiv(vpn_bits, index_bits));
}

PageAllocator::PageAllocator(Addr phys_base, std::uint64_t phys_bytes,
                             std::uint64_t page_bytes)
    : physBase_(phys_base), pageBytes_(page_bytes)
{
    if (!isPowerOfTwo(page_bytes) || page_bytes < 4096)
        fatal("page size must be a power of two >= 4 KB, got ", page_bytes);
    if (phys_bytes < page_bytes)
        fatal("physical pool smaller than one page");
    if (phys_base % page_bytes != 0)
        fatal("physical base must be page aligned");
    totalFrames_ = phys_bytes / page_bytes;
}

Addr
PageAllocator::translate(Asid asid, Addr vaddr)
{
    Addr page = vaddr / pageBytes_;
    auto [it, inserted] = frames_.try_emplace(key(asid, page), 0);
    if (inserted)
        it->second = allocFrame();
    return it->second + (vaddr % pageBytes_);
}

bool
PageAllocator::isMapped(Asid asid, Addr vaddr) const
{
    return frames_.count(key(asid, vaddr / pageBytes_)) != 0;
}

Addr
PageAllocator::allocFrame()
{
    if (nextFrame_ >= totalFrames_)
        fatal("physical memory exhausted after ", nextFrame_, " frames");
    return physBase_ + (nextFrame_++) * pageBytes_;
}

PageTableModel::PageTableModel(PageAllocator &allocator)
    : allocator_(allocator),
      levels_(walkLevelsForPageSize(allocator.pageBytes())),
      indexBits_(floorLog2(allocator.pageBytes()) - 3)
{
}

Addr
PageTableModel::nodeFrame(const NodeKey &node_key)
{
    auto [it, inserted] = nodes_.try_emplace(node_key, 0);
    if (inserted)
        it->second = allocator_.allocFrame();
    return it->second;
}

std::vector<Addr>
PageTableModel::walkPath(Asid asid, Addr vaddr)
{
    Addr vpn = allocator_.vpn(vaddr);
    std::uint64_t index_mask = (1ULL << indexBits_) - 1;
    std::vector<Addr> path;
    path.reserve(levels_);
    for (std::uint32_t level = 0; level < levels_; ++level) {
        // Node at `level` is identified by the VPN bits above its index.
        std::uint32_t below = (levels_ - level) * indexBits_;
        Addr prefix = below >= 64 ? 0 : (vpn >> below);
        Addr node = nodeFrame(NodeKey{asid, level, prefix});
        std::uint32_t entry_shift = (levels_ - 1 - level) * indexBits_;
        std::uint64_t index = (vpn >> entry_shift) & index_mask;
        path.push_back(node + index * 8);
    }
    return path;
}

void
PageAllocator::saveState(StateWriter &out) const
{
    out.section("PALC");
    out.u64(pageBytes_);
    out.u64(nextFrame_);
    std::vector<std::uint64_t> pairs;
    pairs.reserve(2 * frames_.size());
    for (const auto &[frame_key, pa] : frames_) {
        pairs.push_back(frame_key);
        pairs.push_back(pa);
    }
    sortPairsByKey(pairs);
    out.u64(frames_.size());
    out.u64s(pairs.data(), pairs.size());
}

void
PageAllocator::loadState(StateReader &in)
{
    in.section("PALC");
    if (in.u64() != pageBytes_)
        throw SnapshotError("page allocator page-size mismatch");
    nextFrame_ = in.u64();
    if (nextFrame_ > totalFrames_)
        throw SnapshotError("page allocator frame count out of range");
    std::uint64_t n = in.u64();
    frames_.clear();
    frames_.reserve(static_cast<std::size_t>(n));
    for (std::uint64_t i = 0; i < n; ++i) {
        std::uint64_t frame_key = in.u64();
        frames_[frame_key] = in.u64();
    }
}

void
PageTableModel::saveState(StateWriter &out) const
{
    out.section("PTBL");
    out.u32(levels_);
    std::vector<std::pair<NodeKey, Addr>> entries(nodes_.begin(),
                                                  nodes_.end());
    std::sort(entries.begin(), entries.end(),
              [](const auto &a, const auto &b) {
                  return std::tie(a.first.asid, a.first.level,
                                  a.first.prefix) <
                         std::tie(b.first.asid, b.first.level,
                                  b.first.prefix);
              });
    out.u64(entries.size());
    for (const auto &[node_key, pa] : entries) {
        out.u32(node_key.asid);
        out.u32(node_key.level);
        out.u64(node_key.prefix);
        out.u64(pa);
    }
}

void
PageTableModel::loadState(StateReader &in)
{
    in.section("PTBL");
    if (in.u32() != levels_)
        throw SnapshotError("page table radix depth mismatch");
    std::uint64_t n = in.u64();
    nodes_.clear();
    nodes_.reserve(static_cast<std::size_t>(n));
    for (std::uint64_t i = 0; i < n; ++i) {
        NodeKey node_key{};
        node_key.asid = in.u32();
        node_key.level = in.u32();
        node_key.prefix = in.u64();
        nodes_[node_key] = in.u64();
    }
}

} // namespace mnpu
