/**
 * @file
 * Heap revocation bitmap (paper §3.3.1).
 *
 * Each heap allocation granule (8 bytes by default, matching
 * capability alignment; configurable for the granule-size ablation)
 * has one revocation bit indicating that the granule belongs to a
 * freed-but-not-yet-revoked chunk. The bitmap is memory-mapped and the
 * RTOS loader ensures that only the allocator compartment receives a
 * capability to the window. The SRAM overhead at 8-byte granules is
 * 1/(8*8) = 1.56% of *heap* memory only.
 */

#ifndef CHERIOT_REVOKER_REVOCATION_BITMAP_H
#define CHERIOT_REVOKER_REVOCATION_BITMAP_H

#include "mem/mmio.h"
#include "snapshot/serializer.h"
#include "util/stats.h"

#include <cstdint>
#include <vector>

namespace cheriot::revoker
{

class RevocationBitmap : public mem::MmioDevice
{
  public:
    /**
     * @param heapBase  architectural base of the covered heap window.
     * @param heapSize  bytes covered.
     * @param granule   bytes per revocation bit (power of two, ≥ 8).
     */
    RevocationBitmap(uint32_t heapBase, uint32_t heapSize,
                     uint32_t granule = 8);

    uint32_t heapBase() const { return heapBase_; }
    uint32_t heapSize() const { return heapSize_; }
    uint32_t granule() const { return granule_; }

    /** Size of the MMIO window in bytes (the bitmap itself). */
    uint32_t mmioSize() const
    {
        return static_cast<uint32_t>(words_.size() * 4);
    }

    /** True iff @p addr lies inside the covered heap window. */
    bool covers(uint32_t addr) const
    {
        return addr >= heapBase_ && addr < heapBase_ + heapSize_;
    }

    /** Revocation bit for the granule containing @p addr.
     * Addresses outside the window are never revoked. */
    bool isRevoked(uint32_t addr) const;

    /** Paint revocation bits over [addr, addr+bytes). */
    void setRange(uint32_t addr, uint32_t bytes);

    /** Clear revocation bits over [addr, addr+bytes) (after a
     * completed sweep, before reuse). */
    void clearRange(uint32_t addr, uint32_t bytes);

    /** Count of currently painted bits (diagnostics). */
    uint32_t paintedBits() const;

    /** Snapshot state: the window geometry (checked) and the bits. */
    template <class V>
    void fields(V &v)
    {
        v.expect(heapBase_);
        v.expect(heapSize_);
        v.expect(granule_);
        v(snapshot::fixed(words_));
        v.stat("lookups", lookups);
    }

    /** @name MmioDevice (the allocator's architectural window) @{ */
    std::string name() const override { return "revocation-bitmap"; }
    uint32_t read32(uint32_t offset) override;
    void write32(uint32_t offset, uint32_t value) override;
    /** @} */

    /** Revocation-bit lookups (load filter + revoker sweeps). */
    mutable Counter lookups;

    StatGroup &stats() { return stats_; }

  private:
    uint32_t bitIndexOf(uint32_t addr) const;

    uint32_t heapBase_;
    uint32_t heapSize_;
    uint32_t granule_;
    std::vector<uint32_t> words_;
    StatGroup stats_{"bitmap"};
};

} // namespace cheriot::revoker

#endif // CHERIOT_REVOKER_REVOCATION_BITMAP_H
