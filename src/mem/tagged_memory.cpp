#include "mem/tagged_memory.h"

#include "util/bits.h"
#include "util/log.h"

#include <algorithm>
#include <cstring>

namespace cheriot::mem
{

TaggedMemory::TaggedMemory(uint32_t base, uint32_t size)
    : base_(base), size_(size), data_(size, 0),
      microTags_((size + 7) / 8, 0), stats_("sram")
{
    if (size % 8 != 0) {
        fatal("TaggedMemory size 0x%x is not a multiple of the 8-byte "
              "capability granule", size);
    }
    snapshot::registerStats(stats_, *this);
}

uint32_t
TaggedMemory::offsetOf(uint32_t addr, uint32_t bytes, uint32_t align) const
{
    if (!contains(addr, bytes)) {
        panic("SRAM access at 0x%08x (+%u) outside [0x%08x, 0x%08x)", addr,
              bytes, base_, base_ + size_);
    }
    if (addr % align != 0) {
        panic("SRAM access at 0x%08x not %u-byte aligned", addr, align);
    }
    return addr - base_;
}

uint8_t
TaggedMemory::read8(uint32_t addr) const
{
    const uint32_t off = offsetOf(addr, 1, 1);
    const_cast<Counter &>(reads)++;
    return data_[off];
}

uint16_t
TaggedMemory::read16(uint32_t addr) const
{
    const uint32_t off = offsetOf(addr, 2, 2);
    const_cast<Counter &>(reads)++;
    uint16_t value;
    std::memcpy(&value, &data_[off], sizeof(value));
    return value;
}

uint32_t
TaggedMemory::read32(uint32_t addr) const
{
    const uint32_t off = offsetOf(addr, 4, 4);
    const_cast<Counter &>(reads)++;
    uint32_t value;
    std::memcpy(&value, &data_[off], sizeof(value));
    return value;
}

uint32_t
TaggedMemory::peek32(uint32_t addr) const
{
    const uint32_t off = offsetOf(addr, 4, 4);
    uint32_t value;
    std::memcpy(&value, &data_[off], sizeof(value));
    return value;
}

uint8_t
TaggedMemory::peek8(uint32_t addr) const
{
    return data_[offsetOf(addr, 1, 1)];
}

void
TaggedMemory::debugWrite8(uint32_t addr, uint8_t value)
{
    const uint32_t off = offsetOf(addr, 1, 1);
    data_[off] = value;
    // The tag-clearing rule is architectural, not a counter: a
    // debugger poke still invalidates the half-granule it disturbs
    // (no back door for forging capabilities), but the access
    // counters stay untouched so a detach leaves the serialized
    // machine state bit-identical to an undebugged run.
    microTags_[off / 8] &= static_cast<uint8_t>(
        ~((off % 8) < 4 ? 0x1 : 0x2));
}

void
TaggedMemory::write8(uint32_t addr, uint8_t value)
{
    const uint32_t off = offsetOf(addr, 1, 1);
    writes++;
    data_[off] = value;
    const uint32_t granule = off / 8;
    const uint8_t halfMask = (off % 8) < 4 ? 0x1 : 0x2;
    if (microTags_[granule] & halfMask) {
        tagClears++;
    }
    microTags_[granule] &= ~halfMask;
}

void
TaggedMemory::write16(uint32_t addr, uint16_t value)
{
    const uint32_t off = offsetOf(addr, 2, 2);
    writes++;
    std::memcpy(&data_[off], &value, sizeof(value));
    const uint32_t granule = off / 8;
    const uint8_t halfMask = (off % 8) < 4 ? 0x1 : 0x2;
    if (microTags_[granule] & halfMask) {
        tagClears++;
    }
    microTags_[granule] &= ~halfMask;
}

void
TaggedMemory::write32(uint32_t addr, uint32_t value)
{
    const uint32_t off = offsetOf(addr, 4, 4);
    writes++;
    std::memcpy(&data_[off], &value, sizeof(value));
    const uint32_t granule = off / 8;
    const uint8_t halfMask = (off % 8) < 4 ? 0x1 : 0x2;
    if (microTags_[granule] & halfMask) {
        tagClears++;
    }
    microTags_[granule] &= ~halfMask;
}

RawCapBits
TaggedMemory::readCap(uint32_t addr) const
{
    const uint32_t off = offsetOf(addr, 8, 8);
    const_cast<Counter &>(capReads)++;
    return granuleAt(off);
}

RawCapBits
TaggedMemory::granuleAt(uint32_t off) const
{
    uint64_t bits;
    std::memcpy(&bits, &data_[off], sizeof(bits));
    const uint8_t tags = microTags_[off / 8];
    RawCapBits out;
    out.bits = bits;
    out.halfTag0 = (tags & 0x1) != 0;
    out.halfTag1 = (tags & 0x2) != 0;
    out.tag = out.halfTag0 && out.halfTag1;
    return out;
}

void
TaggedMemory::writeCap(uint32_t addr, uint64_t capBits, bool tag)
{
    const uint32_t off = offsetOf(addr, 8, 8);
    capWrites++;
    std::memcpy(&data_[off], &capBits, sizeof(capBits));
    microTags_[off / 8] = tag ? 0x3 : 0x0;
}

void
TaggedMemory::clearCapTag(uint32_t addr)
{
    const uint32_t off = offsetOf(addr, 8, 8);
    capWrites++;
    microTags_[off / 8] = 0;
}

bool
TaggedMemory::tagAt(uint32_t addr) const
{
    const uint32_t off = offsetOf(alignDown<uint32_t>(addr, 8), 8, 8);
    return microTags_[off / 8] == 0x3;
}

void
TaggedMemory::zeroRange(uint32_t addr, uint32_t bytes)
{
    if (bytes == 0) {
        return;
    }
    const uint32_t off = offsetOf(addr, bytes, 1);
    std::memset(&data_[off], 0, bytes);
    const uint32_t firstGranule = off / 8;
    const uint32_t lastGranule = (off + bytes - 1) / 8;
    for (uint32_t g = firstGranule; g <= lastGranule; ++g) {
        // Zeroing clears micro-tags for any half the range overlaps.
        const uint32_t granuleStart = g * 8;
        if (off < granuleStart + 4 && off + bytes > granuleStart) {
            microTags_[g] &= ~0x1;
        }
        if (off < granuleStart + 8 && off + bytes > granuleStart + 4) {
            microTags_[g] &= ~0x2;
        }
    }
}

void
TaggedMemory::injectDataFlip(uint32_t addr, uint32_t bit, bool failSafe)
{
    const uint32_t off = offsetOf(alignDown<uint32_t>(addr, 8), 8, 8);
    data_[off + (bit / 8) % 8] ^= static_cast<uint8_t>(1u << (bit % 8));
    if (failSafe) {
        const uint8_t halfMask = (bit % 64) < 32 ? 0x1 : 0x2;
        if (microTags_[off / 8] & halfMask) {
            tagClears++;
        }
        microTags_[off / 8] &= ~halfMask;
    }
}

void
TaggedMemory::injectTagClear(uint32_t addr)
{
    const uint32_t off = offsetOf(alignDown<uint32_t>(addr, 8), 8, 8);
    if (microTags_[off / 8] != 0) {
        tagClears++;
    }
    microTags_[off / 8] = 0;
}

std::optional<TaggedMemory::GranuleMismatch>
TaggedMemory::firstMismatch(const TaggedMemory &other) const
{
    if (other.base_ != base_ || other.size_ != size_) {
        panic("firstMismatch: SRAM geometries differ");
    }
    // Block compares first, so equal memories cost two memcmps.
    constexpr uint32_t kBlockBytes = 4096;
    for (uint32_t block = 0; block < size_; block += kBlockBytes) {
        const uint32_t bytes = std::min(kBlockBytes, size_ - block);
        if (std::memcmp(&data_[block], &other.data_[block], bytes) == 0 &&
            std::memcmp(&microTags_[block / 8], &other.microTags_[block / 8],
                        bytes / 8) == 0) {
            continue;
        }
        for (uint32_t off = block; off < block + bytes; off += 8) {
            if (std::memcmp(&data_[off], &other.data_[off], 8) != 0 ||
                microTags_[off / 8] != other.microTags_[off / 8]) {
                return GranuleMismatch{base_ + off, granuleAt(off),
                                       other.granuleAt(off)};
            }
        }
    }
    return std::nullopt;
}

} // namespace cheriot::mem
