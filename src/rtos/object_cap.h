/**
 * @file
 * Kernel object capabilities: revocable, derivable authority over
 * kernel objects, generalizing the sealed AllocatorCapability pattern
 * (paper §3.2.2) from heap memory to every delegable kernel resource.
 *
 * Three typed capabilities live in one kernel table:
 *
 *  - Time: a slice [begin, end) of the hart's schedule in scheduler
 *    slots. Children are carved out with s3k-style begin/mark/end
 *    semantics: deriving [b, e) requires mark <= b < e <= end and
 *    advances the parent's mark to e, so siblings can never overlap
 *    and a child can never exceed its parent's bounds.
 *  - Channel: send/receive endpoint authority over a
 *    MessageQueueService queue. The sealed queue handle stays inside
 *    the table entry; holders of a Channel cap can only reach the
 *    queue through the service, and derivation can only shed
 *    permissions, never add them.
 *  - Monitor: authority over another compartment's quarantine and
 *    restart, consumed by the Watchdog. Restart authority becomes a
 *    delegable, revocable token instead of ambient kernel privilege.
 *
 * Every capability is minted as a sealed token via the token library
 * (virtualized sealing) and tracked in a derivation tree. Revocation
 * is recursive in the PoisonCap style: revoking any node kills its
 * entire subtree, and a revoked token degrades to a typed refusal —
 * never a trap — at the consumer (scheduler slot gate, queue wait
 * loop, watchdog admission). Table entries carry a validate-on-use
 * canary (the FlowManager idiom): a scrambled entry is refused typed
 * and its subtree is killed fail-safe, so corruption can delete
 * authority but never forge it.
 */

#ifndef CHERIOT_RTOS_OBJECT_CAP_H
#define CHERIOT_RTOS_OBJECT_CAP_H

#include "alloc/heap_allocator.h"
#include "rtos/guest_context.h"
#include "rtos/token_library.h"
#include "snapshot/serializer.h"
#include "util/stats.h"

#include <cstdint>
#include <vector>

namespace cheriot::fault
{
class FaultInjector;
}
namespace cheriot::rtos
{

/** The kernel object a capability grants authority over. */
enum class ObjectCapType : uint8_t
{
    Time = 0,    ///< A [begin, end) slice of the schedule.
    Channel = 1, ///< Send/receive authority over one message queue.
    Monitor = 2, ///< Quarantine/restart authority over a compartment.
};

const char *objectCapTypeName(ObjectCapType type);

/** Typed outcome of every object-capability operation. Degradation
 * is always one of these values — never a trap. */
enum class CapResult : uint8_t
{
    Ok = 0,
    InvalidCap,      ///< Not a live object capability (bad token,
                     ///< reclaimed slot, or corrupt entry).
    Revoked,         ///< The entry exists but its authority is dead.
    BoundsViolation, ///< Requested slice escapes the parent's bounds.
    PermViolation,   ///< Wrong type, or permissions not a subset.
    Exhausted,       ///< Heap exhausted minting the record or token.
};

const char *capResultName(CapResult result);

/** Resolved Channel authority: the service routes through the queue
 * handle held inside the table, which never escapes to callers. */
struct ChannelGrant
{
    CapResult status = CapResult::InvalidCap;
    cap::Capability queue;
    bool canSend = false;
    bool canReceive = false;
};

/** @name Consumer-facing authority interfaces
 * Narrow views of the table, injected into the scheduler, queue
 * service and watchdog so those modules depend on the check they
 * need, not on the whole table. @{ */
class TimeAuthority
{
  public:
    virtual ~TimeAuthority() = default;
    /** Does @p token grant the current scheduler slot @p slot? */
    virtual CapResult checkTime(const cap::Capability &token,
                                uint64_t slot) = 0;
};

class ChannelAuthority
{
  public:
    virtual ~ChannelAuthority() = default;
    virtual ChannelGrant checkChannel(const cap::Capability &token) = 0;
};

class MonitorAuthority
{
  public:
    virtual ~MonitorAuthority() = default;
    /** Does @p token grant monitor authority over compartment index
     * @p targetIndex? */
    virtual CapResult checkMonitor(const cap::Capability &token,
                                   uint32_t targetIndex) = 0;
};
/** @} */

class ObjectCapTable final : public TimeAuthority,
                             public ChannelAuthority,
                             public MonitorAuthority
{
  public:
    static constexpr uint32_t kNoParent = 0xffffffffu;

    /** Record discriminator ('ocap'); layout: magic@0, id@4. */
    static constexpr uint32_t kRecordMagic = 0x6f636170;
    static constexpr uint32_t kRecordSize = 8;

    /**
     * @param guest     charged memory access (records live in heap).
     * @param tokens    virtualized sealing for the minted tokens.
     * @param allocator backing store for the per-cap records.
     */
    ObjectCapTable(GuestContext &guest, TokenLibrary &tokens,
                   alloc::HeapAllocator &allocator);

    /** @name Minting root capabilities (boot-time kernel API) @{ */
    cap::Capability mintTime(uint32_t ownerIndex, uint64_t beginSlot,
                             uint64_t endSlot);
    cap::Capability mintChannel(uint32_t ownerIndex,
                                const cap::Capability &queueHandle,
                                bool canSend, bool canReceive);
    cap::Capability mintMonitor(uint32_t ownerIndex,
                                uint32_t targetIndex);
    /** @} */

    /** @name Derivation (the tree grows)
     * Each returns the child token (untagged on refusal) and reports
     * why through @p why when non-null. @{ */

    /** Carve [beginSlot, endSlot) out of @p parent: requires
     * mark <= begin < end <= parent.end, advances parent's mark to
     * endSlot (s3k cap_util semantics). */
    cap::Capability deriveTime(const cap::Capability &parent,
                               uint64_t beginSlot, uint64_t endSlot,
                               CapResult *why = nullptr);
    /** Derive with a (non-empty) subset of the parent's send/receive
     * permissions. */
    cap::Capability deriveChannel(const cap::Capability &parent,
                                  bool canSend, bool canReceive,
                                  CapResult *why = nullptr);
    /** Delegate monitor authority over the same target. */
    cap::Capability deriveMonitor(const cap::Capability &parent,
                                  CapResult *why = nullptr);
    /** @} */

    /** Move @p token to a new owning compartment (the token itself is
     * unchanged; ownership is a table attribute the audit reads). */
    CapResult transfer(const cap::Capability &token,
                       uint32_t newOwnerIndex);

    /**
     * Revoke @p token and, transitively, every descendant (recursive
     * revoke). Idempotent: revoking an already-dead capability is Ok.
     */
    CapResult revoke(const cap::Capability &token);

    /**
     * Schedule @p token's revocation at machine cycle @p atCycle.
     * Delivery is lazy — applied at the next table access at or after
     * the deadline — which is exactly the next scheduling point /
     * backoff retry of every consumer, so "revoked mid-wait" and
     * "revoked mid-slice" land where the paper's model says they
     * must: at a check, never inside one.
     */
    CapResult scheduleRevoke(const cap::Capability &token,
                             uint64_t atCycle);

    /**
     * Free the records and token boxes of dead entries, returning
     * their heap memory. A reclaimed token thereafter fails unseal
     * and degrades from Revoked to InvalidCap — still typed. Returns
     * the number of entries reclaimed.
     */
    uint32_t reclaim();

    /** @name Authority checks (consumer interfaces) @{ */
    CapResult checkTime(const cap::Capability &token,
                        uint64_t slot) override;
    ChannelGrant checkChannel(const cap::Capability &token) override;
    CapResult checkMonitor(const cap::Capability &token,
                           uint32_t targetIndex) override;
    /** @} */

    /** @name Introspection (tests, audit, bench oracles) @{ */
    size_t size() const { return entries_.size(); }
    bool aliveAt(uint32_t id) const;
    ObjectCapType typeAt(uint32_t id) const;
    uint32_t parentOf(uint32_t id) const;
    uint32_t ownerOf(uint32_t id) const;
    /** Time-slice bounds; zeros for non-Time entries. */
    void timeBoundsAt(uint32_t id, uint64_t *begin, uint64_t *mark,
                      uint64_t *end) const;
    /** Resolve a token to its table id without consuming fault
     * injections (oracle use); kNoParent on failure. */
    uint32_t idOf(const cap::Capability &token);
    /** True iff no live descendant of @p id remains (the recursive
     * revoke postcondition the chaos bench asserts). */
    bool subtreeDead(uint32_t id) const;
    /** @} */

    /** Wire the fault injector (CapTableCorrupt site). */
    void attachInjector(fault::FaultInjector *injector)
    {
        injector_ = injector;
    }

    /** Snapshot state (entries, tree links, pending revocations and
     * counters; record/token boxes ride the machine image). */
    template <class V>
    void fields(V &v)
    {
        v(key_, entries_, pending_);
        v.counter("capsMinted", capsMinted);
        v.counter("capsDerived", capsDerived);
        v.counter("capsTransferred", capsTransferred);
        v.counter("revocations", revocations);
        v.counter("descendantsRevoked", descendantsRevoked);
        v.counter("scheduledRevocations", scheduledRevocations);
        v.counter("staleTokensRefused", staleTokensRefused);
        v.counter("invalidTokensRefused", invalidTokensRefused);
        v.counter("corruptEntriesRefused", corruptEntriesRefused);
    }

    Counter capsMinted;          ///< Root capabilities minted.
    Counter capsDerived;         ///< Children derived.
    Counter capsTransferred;     ///< Ownership transfers.
    Counter revocations;         ///< revoke() calls that killed a node.
    Counter descendantsRevoked;  ///< Nodes killed transitively.
    Counter scheduledRevocations;///< Deadline revocations delivered.
    Counter staleTokensRefused;  ///< Dead-entry presentations refused.
    Counter invalidTokensRefused;///< Unseal/record failures refused.
    Counter corruptEntriesRefused;///< Canary mismatches refused.

    StatGroup &stats() { return stats_; }

  private:
    struct Entry
    {
        ObjectCapType type = ObjectCapType::Time;
        bool alive = false;
        bool reclaimed = false;
        uint32_t parent = kNoParent;
        uint32_t ownerIndex = 0;
        std::vector<uint32_t> children;
        /** Time: slot bounds + derivation mark. */
        uint64_t begin = 0;
        uint64_t mark = 0;
        uint64_t end = 0;
        /** Channel: the wrapped (sealed) queue handle + permissions. */
        cap::Capability queue;
        bool canSend = false;
        bool canReceive = false;
        /** Monitor: target compartment index. */
        uint32_t target = 0;
        /** Validate-on-use canary over the identity fields. */
        uint32_t canary = 0;
        /** Heap record backing the sealed token. */
        cap::Capability record;
        /** The sealed token itself (kept for reclaim()). */
        cap::Capability token;

        template <class V>
        void fields(V &v)
        {
            v(snapshot::as<uint8_t>(type), alive, reclaimed, parent,
              ownerIndex, children, begin, mark, end, queue, canSend,
              canReceive, target, canary, record, token);
        }
    };

    struct PendingRevoke
    {
        uint64_t atCycle = 0;
        uint32_t id = 0;

        template <class V>
        void fields(V &v)
        {
            v(atCycle, id);
        }
    };

    uint32_t canaryOf(const Entry &entry, uint32_t id) const;
    void resealCanary(uint32_t id);
    /** Apply a CapTableCorrupt scramble pattern to @p entry. */
    void scramble(Entry &entry, uint32_t pattern);

    /**
     * Resolve a token to a validated live-or-dead entry id; applies
     * due revocations, consumes fault injections, checks the canary.
     * Returns kNoParent and sets @p why on refusal.
     */
    uint32_t entryFor(const cap::Capability &token, CapResult *why);

    /** Kill @p id and its whole subtree (parent-pointer scan: robust
     * even when an entry's children list was scrambled). */
    void killSubtree(uint32_t id);
    void processDueRevocations();

    /** Allocate record + token for a fully-initialised prototype;
     * returns the sealed token (untagged on heap exhaustion). */
    cap::Capability commit(Entry proto, Counter &counter);

    GuestContext &guest_;
    TokenLibrary &tokens_;
    alloc::HeapAllocator &allocator_;
    cap::Capability key_; ///< Sealing key for object-cap tokens.
    std::vector<Entry> entries_;
    std::vector<PendingRevoke> pending_;
    fault::FaultInjector *injector_ = nullptr;

    StatGroup stats_{"object_caps"};
};

} // namespace cheriot::rtos

#endif // CHERIOT_RTOS_OBJECT_CAP_H
