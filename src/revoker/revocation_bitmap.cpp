#include "revoker/revocation_bitmap.h"

#include "util/bits.h"
#include "util/log.h"

namespace cheriot::revoker
{

RevocationBitmap::RevocationBitmap(uint32_t heapBase, uint32_t heapSize,
                                   uint32_t granule)
    : heapBase_(heapBase), heapSize_(heapSize), granule_(granule)
{
    if (!isPowerOfTwo(granule) || granule < 8) {
        fatal("revocation granule %u must be a power of two >= 8", granule);
    }
    if (heapBase % granule != 0 || heapSize % granule != 0) {
        fatal("heap window [0x%08x, +0x%x) not aligned to granule %u",
              heapBase, heapSize, granule);
    }
    const uint32_t bitCount = heapSize / granule;
    words_.assign((bitCount + 31) / 32, 0);
    snapshot::registerStats(stats_, *this);
}

uint32_t
RevocationBitmap::bitIndexOf(uint32_t addr) const
{
    return (addr - heapBase_) / granule_;
}

bool
RevocationBitmap::isRevoked(uint32_t addr) const
{
    lookups++;
    if (!covers(addr)) {
        return false;
    }
    const uint32_t index = bitIndexOf(addr);
    return bit(words_[index / 32], index % 32);
}

void
RevocationBitmap::setRange(uint32_t addr, uint32_t bytes)
{
    if (bytes == 0) {
        return;
    }
    if (!covers(addr) || !covers(addr + bytes - 1)) {
        panic("setRange [0x%08x, +%u) outside heap window", addr, bytes);
    }
    const uint32_t first = bitIndexOf(addr);
    const uint32_t last = bitIndexOf(addr + bytes - 1);
    for (uint32_t index = first; index <= last; ++index) {
        words_[index / 32] |= uint32_t{1} << (index % 32);
    }
}

void
RevocationBitmap::clearRange(uint32_t addr, uint32_t bytes)
{
    if (bytes == 0) {
        return;
    }
    if (!covers(addr) || !covers(addr + bytes - 1)) {
        panic("clearRange [0x%08x, +%u) outside heap window", addr, bytes);
    }
    const uint32_t first = bitIndexOf(addr);
    const uint32_t last = bitIndexOf(addr + bytes - 1);
    for (uint32_t index = first; index <= last; ++index) {
        words_[index / 32] &= ~(uint32_t{1} << (index % 32));
    }
}

uint32_t
RevocationBitmap::paintedBits() const
{
    uint32_t count = 0;
    for (uint32_t word : words_) {
        count += popcount(word);
    }
    return count;
}

uint32_t
RevocationBitmap::read32(uint32_t offset)
{
    const uint32_t index = offset / 4;
    if (index >= words_.size()) {
        panic("revocation bitmap read at offset 0x%x out of range", offset);
    }
    return words_[index];
}

void
RevocationBitmap::write32(uint32_t offset, uint32_t value)
{
    const uint32_t index = offset / 4;
    if (index >= words_.size()) {
        panic("revocation bitmap write at offset 0x%x out of range", offset);
    }
    words_[index] = value;
}

} // namespace cheriot::revoker
