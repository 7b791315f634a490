/**
 * @file
 * Virtualized sealing (paper §3.2.2, footnote 5).
 *
 * CHERIoT's otype field is only three bits, which "may seem like a
 * severe limitation, given our goal of fine-grained
 * compartmentalization", but "the RTOS is able to bootstrap a
 * virtualized sealing mechanism that ... suffices in all cases we
 * have encountered so far". This module is that mechanism:
 *
 *  - The token library is a privileged service holding exactly one
 *    hardware data otype (kOtypeToken) and private heap authority.
 *  - Compartments mint *software sealing keys* — opaque handles, each
 *    naming a fresh 32-bit key id. The supply is effectively
 *    unbounded.
 *  - seal(key, payload) boxes the payload capability together with
 *    the key id in token-library-owned heap memory and returns a
 *    capability to the box sealed with the hardware otype. The box is
 *    architecturally opaque: it cannot be dereferenced, modified, or
 *    forged by anyone but the library.
 *  - unseal(key, token) is the inverse, gated on the key id match.
 *
 * Like every RTOS service here, all state lives in simulated memory
 * and every access is capability-checked and cycle-charged.
 */

#ifndef CHERIOT_RTOS_TOKEN_LIBRARY_H
#define CHERIOT_RTOS_TOKEN_LIBRARY_H

#include "alloc/heap_allocator.h"
#include "rtos/guest_context.h"

namespace cheriot::rtos
{

class TokenLibrary
{
  public:
    /**
     * @param guest     charged memory access.
     * @param allocator backing store for token boxes.
     * @param sealer    sealing authority over the kOtypeToken data
     *                  otype (minted by the loader for this library
     *                  alone).
     */
    TokenLibrary(GuestContext &guest, alloc::HeapAllocator &allocator,
                 cap::Capability sealer);

    /**
     * Mint a new software sealing key. The returned capability is
     * itself sealed (opaque): holders can present it but not inspect
     * or alter it.
     */
    cap::Capability createKey();

    /**
     * Box @p payload under @p key. Returns the sealed token, or an
     * untagged capability if @p key is not a valid key or the heap
     * is exhausted.
     */
    cap::Capability seal(const cap::Capability &key,
                         const cap::Capability &payload);

    /**
     * Unbox @p token with @p key. Returns the original payload, or
     * an untagged capability on any mismatch (wrong key, not a
     * token, tampered).
     */
    cap::Capability unseal(const cap::Capability &key,
                           const cap::Capability &token);

    /**
     * Destroy a token, releasing its box back to the heap (the
     * payload itself is unaffected). Requires the matching key.
     */
    bool destroy(const cap::Capability &key,
                 const cap::Capability &token);

    uint32_t keysMinted() const { return nextKeyId_ - 1; }

    /** @name Snapshot state (box contents live in simulated heap
     * memory and ride the machine image; only the id counter is
     * host-side) @{ */
    template <class V>
    void fields(V &v)
    {
        v(nextKeyId_);
        v.require(nextKeyId_ >= 1);
    }
    /** @} */

  private:
    /** Box layout in heap memory. @{ */
    static constexpr uint32_t kKeyIdOffset = 0;
    static constexpr uint32_t kPayloadOffset = 8;
    static constexpr uint32_t kBoxSize = 16;
    /** @} */

    /** Validate and read the key id out of a key handle. */
    bool keyIdOf(const cap::Capability &key, uint32_t *keyId);

    GuestContext &guest_;
    alloc::HeapAllocator &allocator_;
    cap::Capability sealer_;
    uint32_t nextKeyId_ = 1;
};

} // namespace cheriot::rtos

#endif // CHERIOT_RTOS_TOKEN_LIBRARY_H
