/**
 * @file
 * Segregated free lists over boundary-tagged chunks.
 *
 * Small chunks (24..256 bytes) live in exact-size bins; everything
 * larger lives on one list kept sorted by size, so first-fit is
 * best-fit. List heads are allocator-compartment globals (charged as
 * such); the links themselves are capabilities inside the free
 * chunks' payloads.
 */

#ifndef CHERIOT_ALLOC_FREE_LIST_H
#define CHERIOT_ALLOC_FREE_LIST_H

#include "alloc/chunk.h"

#include <array>

namespace cheriot::alloc
{

class FreeList
{
  public:
    explicit FreeList(ChunkView &view) : view_(&view) {}

    /** Insert a free chunk (head flags must already be correct). */
    void insert(uint32_t chunk, uint32_t size);

    /** Remove a specific chunk (for coalescing). */
    void remove(uint32_t chunk, uint32_t size);

    /**
     * Find and remove a chunk of at least @p size whose payload can
     * hold an aligned block: the chunk must be able to provide
     * @p size usable bytes at an address where
     * (payload & alignMask) == payload, possibly after a leading
     * split of at least kMinChunkSize. Returns 0 if none.
     */
    uint32_t takeFit(uint32_t size, uint32_t alignMask);

    /** Total free bytes tracked (diagnostics). */
    uint64_t freeBytes() const { return freeBytes_; }
    uint32_t chunkCount() const { return chunks_; }

    /** Snapshot state (bin heads; links live in guest SRAM). */
    template <class V>
    void fields(V &v)
    {
        v(smallBins_, largeHead_, freeBytes_, chunks_);
    }

  private:
    static constexpr uint32_t kSmallBinCount = 30; // 24..256 step 8
    static constexpr uint32_t kMaxSmallSize = 24 + (kSmallBinCount - 1) * 8;

    static bool isSmall(uint32_t size) { return size <= kMaxSmallSize; }
    static uint32_t binIndex(uint32_t size) { return (size - 24) / 8; }

    /** Leading padding needed to align @p chunk's payload. */
    static uint32_t alignPad(uint32_t chunk, uint32_t alignMask);

    bool fits(uint32_t chunk, uint32_t chunkSize, uint32_t need,
              uint32_t alignMask) const;

    void unlink(uint32_t chunk, uint32_t *head);

    ChunkView *view_;
    /** Bin heads: chunk addresses, 0 = empty (compartment globals). */
    std::array<uint32_t, kSmallBinCount> smallBins_ = {};
    uint32_t largeHead_ = 0;
    uint64_t freeBytes_ = 0;
    uint32_t chunks_ = 0;
};

} // namespace cheriot::alloc

#endif // CHERIOT_ALLOC_FREE_LIST_H
