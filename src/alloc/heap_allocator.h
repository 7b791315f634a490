/**
 * @file
 * The shared heap allocator compartment (paper §5.1).
 *
 * A dlmalloc-flavoured boundary-tag allocator augmented for CHERIoT:
 *
 *  - malloc() returns a capability with *exact* bounds over the
 *    allocation; sizes are rounded with CRRL and bases aligned with
 *    CRAM so the bounds always encode precisely (§3.2.3).
 *  - free() paints the payload's revocation bits (through the
 *    memory-mapped bitmap window only this compartment can reach),
 *    zeroes the payload, and places the chunk on an epoch-stamped
 *    quarantine list. From that instant the hardware load filter
 *    makes any use-after-free impossible (§3.3.2).
 *  - Chunks leave quarantine only after a full revocation sweep, so
 *    allocations can never temporally alias.
 *
 * Four temporal-safety modes reproduce the paper's Table 4
 * configurations: Baseline (spatial only), MetadataOnly (bitmap
 * maintained, no sweeps), SoftwareRevocation (synchronous sweep
 * loop) and HardwareRevocation (background engine).
 */

#ifndef CHERIOT_ALLOC_HEAP_ALLOCATOR_H
#define CHERIOT_ALLOC_HEAP_ALLOCATOR_H

#include "alloc/alloc_result.h"
#include "alloc/chunk.h"
#include "alloc/free_list.h"
#include "alloc/quarantine.h"
#include "alloc/quota.h"
#include "revoker/revocation_bitmap.h"
#include "revoker/revoker.h"
#include "snapshot/serializer.h"
#include "util/stats.h"

#include <functional>
#include <map>
#include <vector>

namespace cheriot::alloc
{

/** Table 4's four temporal-safety configurations. */
enum class TemporalMode : uint8_t
{
    None,               ///< Baseline: spatial safety only.
    MetadataOnly,       ///< Revocation bits updated, no sweeping.
    SoftwareRevocation, ///< Sweeps run in the software loop.
    HardwareRevocation, ///< Sweeps run on the background engine.
};

const char *temporalModeName(TemporalMode mode);

struct AllocatorConfig
{
    TemporalMode mode = TemporalMode::SoftwareRevocation;
    /** Quarantined bytes that trigger a sweep (0 = heapSize/2). */
    uint64_t quarantineThreshold = 0;

    /** @name Blocking-malloc backoff (the backpressure loop)
     * On exhaustion malloc kicks the revoker and waits with capped
     * exponential backoff for quarantine to become releasable. The
     * attempt budget is charged only to waits during which the
     * revocation epoch made *no* progress — a healthy engine always
     * advances and eventually empties quarantine, so the loop exits
     * for a reason (memory found, or nothing left to reclaim); only
     * a stalled engine burns the budget and forces OutOfMemory. @{ */
    uint32_t backoffMaxAttempts = 16;
    uint64_t backoffInitialCycles = 256;
    uint64_t backoffCapCycles = 16384;
    /** No-progress waits with a sweep stuck in flight before the
     * loop escalates to the synchronous waiter (whose timeout kick
     * is the engine-reset path for a wedged revoker). */
    uint32_t backoffStallEscalation = 4;
    /** @} */
};

class HeapAllocator
{
  public:
    /**
     * @param guest      charged memory access.
     * @param heapCap    capability over [heapBase, heapEnd), LD/SD/MC,
     *                   no SL (heap memory must not hold locals).
     * @param bitmapCap  capability over the revocation bitmap MMIO
     *                   window (only the allocator compartment gets
     *                   one, enforced by the loader).
     * @param bitmap     bitmap geometry (base/granule).
     * @param revoker    sweep engine; may be null for None/Metadata.
     */
    HeapAllocator(rtos::GuestContext &guest, cap::Capability heapCap,
                  cap::Capability bitmapCap,
                  const revoker::RevocationBitmap &bitmap,
                  revoker::Revoker *revoker, AllocatorConfig config);

    /**
     * Allocate @p size bytes; returns an exactly bounded, unsealed,
     * global capability, or an untagged null on exhaustion. Unmetered
     * (kernel-account) variant of mallocCharged.
     */
    cap::Capability malloc(uint32_t size);

    /**
     * Allocate @p size bytes charged against quota entry @p owner.
     * The chunk's full footprint (payload plus boundary-tag overhead
     * after representability rounding) is charged at admission and
     * credited back only when the memory really returns to the free
     * lists — for the revocation modes, when it leaves quarantine, so
     * quarantined bytes keep counting against their owner.
     *
     * Never aborts on resource exhaustion: on failure the returned
     * capability is untagged and @p result (if non-null) explains
     * why with a recoverable, typed code.
     */
    cap::Capability mallocCharged(QuotaId owner, uint32_t size,
                                  AllocResult *result);

    /** Allocate @p count × @p size zeroed bytes (overflow-checked). */
    cap::Capability calloc(uint32_t count, uint32_t size);

    /**
     * Resize @p ptr to @p size bytes: allocate-copy-free (bounds are
     * immutable, so growth can never be in place). Returns the new
     * capability; on failure returns untagged and leaves @p ptr
     * live. realloc(valid, 0) frees and returns untagged.
     */
    cap::Capability realloc(const cap::Capability &ptr, uint32_t size);

    /** Error codes returned by free(). */
    enum class FreeResult : uint8_t
    {
        Ok,
        InvalidCap,    ///< Untagged, sealed, or not a heap pointer.
        NotAllocated,  ///< Header is not a live allocation (double
                       ///< free or interior pointer).
        AlreadyFreed,  ///< Revocation bits already painted.
    };

    FreeResult free(const cap::Capability &ptr);

    /**
     * Claim: keep @p ptr's allocation alive until a matching free()
     * (the CHERIoT RTOS heap_claim API). A compartment that receives
     * a heap buffer from an untrusting peer claims it so the peer's
     * free() cannot revoke it mid-use; each free() releases one
     * claim and the memory is quarantined only when the last claim
     * (including the allocator's implicit one from malloc) drops.
     * Claim records live in allocator-private heap memory.
     */
    FreeResult claim(const cap::Capability &ptr);

    /** Outstanding explicit claims on @p ptr's allocation. */
    uint32_t claimCount(const cap::Capability &ptr);

    /** @name Introspection @{ */
    uint64_t freeBytes() const { return freeList_.freeBytes(); }
    /**
     * Bytes of placement slack currently held by live chunks: a
     * split remainder below kMinChunkSize cannot stand as its own
     * free chunk, so it stays attached to the allocation and leaves
     * the free lists until that chunk is released. Heal audits that
     * compare freeBytes() against a baseline must add this, or a
     * live long-lived buffer that landed on a slacked chunk reads as
     * a (phantom) 8- or 16-byte leak.
     */
    uint64_t slackBytes() const { return slackBytes_; }
    /**
     * Walk every chunk's boundary tag from the heap base to the top
     * sentinel, calling @p cb(addr, size, inUse, internal) for each.
     * `internal` marks allocator-private chunks (claim records).
     * Diagnostics: leak audits use it to name what is still live.
     * Stops early on a corrupt tag rather than looping.
     */
    void forEachChunk(
        const std::function<void(uint32_t addr, uint32_t size,
                                 bool inUse, bool internal)> &cb);
    uint64_t quarantinedBytes() const { return quarantine_.bytes(); }
    uint32_t quarantinedChunks() const
    {
        return quarantine_.chunkCount();
    }
    uint32_t heapBase() const { return heapBase_; }
    uint32_t heapEnd() const { return heapEnd_; }
    TemporalMode mode() const { return config_.mode; }
    /** Current revocation epoch (0 without a revoker). */
    uint32_t epoch() const { return currentEpoch(); }
    /** Epochs the oldest quarantined chunk has waited (0 if empty). */
    uint32_t oldestEpochAge() const;
    /** @} */

    /** @name Quota accounting @{ */
    QuotaLedger &quota() { return quota_; }
    const QuotaLedger &quota() const { return quota_; }
    /** @} */

    /**
     * Install the wait primitive for the backoff loop (the kernel
     * routes it through the scheduler so the idle thread — and with
     * it the background revoker — owns the memory port while the
     * blocked malloc sleeps). Default: raw machine idle.
     */
    void setBackoffWait(std::function<void(uint64_t)> wait)
    {
        backoffWait_ = std::move(wait);
    }

    /** Force a sweep + quarantine drain now (used by idle logic). */
    void synchronise();

    /** @name Snapshot state
     * Host-side metadata mirrors (free lists, quarantine, claim list
     * head, allocation-start bitmaps, counters). Chunk headers and
     * list links live in guest SRAM and are covered by the machine
     * image; restoring both sides re-establishes consistency. @{ */
    template <class V>
    void fields(V &v)
    {
        v(freeList_, quarantine_, claimsHead_,
          snapshot::fixed(allocStartBits_), snapshot::fixed(internalBits_));
        v.counter("mallocs", mallocs);
        v.counter("frees", frees);
        v.counter("failedMallocs", failedMallocs);
        v.counter("rejectedFrees", rejectedFrees);
        v.counter("sweeps", sweepsTriggered);
        v.counter("released", chunksReleased);
        v(quota_, chunkOwners_, chunkSlack_, slackBytes_);
        v.counter("quotaDenials", quotaDenials);
        v.counter("blockedMallocs", blockedMallocs);
        v.counter("backoffWaitCycles", backoffWaitCycles);
        v.counter("backoffTimeouts", backoffTimeouts);
        v.counter("oomReturns", oomReturns);
    }
    /** @} */

    Counter mallocs;
    Counter frees;
    Counter failedMallocs;
    Counter rejectedFrees;
    Counter sweepsTriggered;
    Counter chunksReleased;
    /** @name Overload observability (heap-pressure registers) @{ */
    Counter quotaDenials;     ///< Mallocs refused at admission.
    Counter blockedMallocs;   ///< Mallocs that entered the backoff loop.
    Counter backoffWaitCycles;///< Cycles spent waiting in backoff.
    Counter backoffTimeouts;  ///< Backoff budgets exhausted.
    Counter oomReturns;       ///< OutOfMemory results surfaced.
    /** @} */

    StatGroup &stats() { return stats_; }

  private:
    /** Paint or clear revocation bits over [addr, addr+bytes). */
    void paintBits(uint32_t addr, uint32_t bytes, bool set);

    /** Clear bits, coalesce, and return a chunk to the free lists. */
    void releaseChunk(uint32_t chunk, uint32_t size, bool clearBits);

    /** Drain quarantine lists whose sweep has completed. */
    void drainQuarantine();

    /**
     * The backpressure loop shared by the memory and quota
     * exhaustion paths: kick the revoker and sleep in growing slices,
     * re-trying @p satisfied after each quarantine drain. Returns
     * true when it held; false when quarantine emptied without it
     * holding (revocation has nothing more to give) or the budget
     * expired with the epoch frozen (stalled engine). The attempt
     * budget burns only on no-progress waits, so a healthy engine
     * can never time the loop out.
     */
    bool backoffUntil(const std::function<bool()> &satisfied);

    /**
     * Exhaustion path: drain what a completed sweep already made
     * safe, then wait through backoffUntil for quarantine to become
     * releasable. Returns a chunk fitting @p need, or 0 when the
     * heap is exhausted for real — never blocks unboundedly.
     */
    uint32_t reclaimWithBackoff(uint32_t need, uint32_t alignMask);

    /**
     * Quota admission with the same backpressure: a charge that
     * fails while the owner's own frees sit in quarantine (still
     * charged) waits for revocation to credit them back before the
     * denial becomes final. A live working set over the limit drains
     * quarantine and is then denied fast.
     */
    bool chargeWithBackoff(QuotaId owner, uint32_t need);

    /** Kick (and for the software engine, run) a sweep. */
    void triggerSweep(bool waitForCompletion);

    uint32_t currentEpoch() const;

    /** Validate that @p ptr names a live allocation; yields its
     * chunk address. */
    FreeResult checkLive(const cap::Capability &ptr, uint32_t *chunk);

    /** Find the claim record for @p chunk; returns the record
     * payload address (0 if none) and the predecessor record (0 if
     * it is the list head). */
    uint32_t findClaimRecord(uint32_t chunk, uint32_t *prev);

    /** Unlink and release a claim record. */
    void removeClaimRecord(uint32_t record, uint32_t prev);

    rtos::GuestContext &guest_;
    ChunkView view_;
    FreeList freeList_;
    Quarantine quarantine_;
    cap::Capability bitmapCap_;
    uint32_t bitmapGranule_;
    uint32_t heapBase_;
    uint32_t heapEnd_;
    revoker::Revoker *revoker_;
    AllocatorConfig config_;
    QuotaLedger quota_;
    /**
     * Chunk address → quota entry paying for it. Entries persist
     * through quarantine and are settled (credited and erased) only
     * when releaseChunk returns the memory to the free lists.
     * Ordered map: snapshot serialization must be canonical.
     */
    std::map<uint32_t, QuotaId> chunkOwners_;
    /**
     * Chunk address → absorbed split remainder (bytes). Settled at
     * releaseChunk like chunkOwners_; the sum is slackBytes_.
     * Ordered map: snapshot serialization must be canonical.
     */
    std::map<uint32_t, uint32_t> chunkSlack_;
    uint64_t slackBytes_ = 0;
    std::function<void(uint64_t)> backoffWait_;
    /** Head of the claim-record list (payload address; 0 = empty). */
    uint32_t claimsHead_ = 0;
    /**
     * Allocation-start bitmap (allocator-private globals): one bit
     * per granule, set while a live allocation's payload begins
     * there. free()/claim() accept a pointer only if its base is a
     * recorded allocation start — so an attacker who writes a fake
     * chunk header into their own buffer and derives an interior
     * capability still cannot confuse the allocator.
     */
    std::vector<uint8_t> allocStartBits_;
    bool isAllocStart(uint32_t base) const;
    void setAllocStart(uint32_t base, bool value);
    /** Allocator-internal allocations (claim records): rejected by
     * checkLive so no caller-supplied capability can free them. */
    std::vector<uint8_t> internalBits_;
    bool isInternal(uint32_t base) const;
    void setInternal(uint32_t base, bool value);
    StatGroup stats_{"allocator"};
};

/** Human-readable free() result name for diagnostics and logs. */
const char *freeResultName(HeapAllocator::FreeResult result);

} // namespace cheriot::alloc

#endif // CHERIOT_ALLOC_HEAP_ALLOCATOR_H
