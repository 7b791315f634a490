/**
 * @file
 * The CHERIoT architectural capability (paper Fig. 1).
 *
 * A capability is a 64-bit value — a 32-bit metadata word holding a
 * reserved bit, 6-bit compressed permissions, 3-bit otype and the
 * E/B/T bounds fields, plus a 32-bit address — guarded by an
 * out-of-band validity tag. All manipulation is *monotone*: bounds may
 * narrow but never widen or move, permissions may be shed but never
 * regained, and the tag may be cleared but never set. Operations that
 * would violate monotonicity or representability yield an untagged
 * (invalid) result rather than trapping, matching guarded-manipulation
 * semantics; the instruction layer decides when an untagged value is a
 * trap.
 *
 * Metadata word layout (bit boundaries from Fig. 1):
 *   [31]    R    reserved
 *   [30:25] p'6  compressed permissions
 *   [24:22] o'3  otype
 *   [21:18] E'4  bounds exponent
 *   [17:9]  B'9  bounds base
 *   [8:0]   T'9  bounds top
 *
 * Next to the packed fields every value carries its decoded bounds
 * and permission set, tagged or not. Invariant: base()/top() equal
 * decodeBounds(encodedBounds(), address()) and perms() equals
 * decompressPerms(permsField()). The decode depends on the address
 * only through which 2^(e+9) window around the base it falls in, so
 * an address move inside [base, base + 2^(e+9)) (compared without
 * wrapping), or any move when E = 0xF, keeps the cache; only a move
 * out of that window re-decodes. The packed image (toBits) is the
 * architectural value; the cache never reaches memory or snapshots.
 */

#ifndef CHERIOT_CAP_CAPABILITY_H
#define CHERIOT_CAP_CAPABILITY_H

#include "cap/bounds.h"
#include "cap/permissions.h"
#include "cap/sealing.h"

#include <cstdint>
#include <optional>
#include <string>

namespace cheriot::cap
{

/** Size and alignment of a capability in memory. */
constexpr uint32_t kCapabilitySize = 8;

class Capability
{
  public:
    /** The null capability: untagged, all fields zero. */
    constexpr Capability() = default;

    /** @name Root construction (§3.1.1)
     * On CPU reset three roots are present in registers: one for
     * read/write memory, one for executable memory, and one for
     * sealing. Early boot derives everything from these and erases
     * them.
     * @{ */
    static Capability memoryRoot();
    static Capability executableRoot();
    static Capability sealingRoot();
    /** @} */

    /** Reconstruct a capability from its packed memory image. */
    static Capability fromBits(uint64_t bits, bool tag);

    /**
     * An integer in a capability register: untagged, null metadata,
     * address @p value. Same value as Capability().withAddress(value),
     * whose bounds decode to base = top = value & ~0x1ff.
     */
    static constexpr Capability fromInt(uint32_t value)
    {
        Capability c;
        c.address_ = value;
        c.base_ = value & ~uint32_t{0x1ff};
        c.top_ = c.base_;
        return c;
    }

    /** Pack into the 64-bit memory image (tag carried out of band). */
    uint64_t toBits() const;

    /** @name Field accessors @{ */
    bool tag() const { return tag_; }
    uint32_t address() const { return address_; }
    PermSet perms() const { return perms_; }
    uint8_t permsField() const { return permsField_; }
    uint8_t otype() const { return otype_; }
    bool isSealed() const { return otype_ != kOtypeUnsealed; }
    const EncodedBounds &encodedBounds() const { return bounds_; }
    uint32_t base() const { return base_; }
    uint64_t top() const { return top_; }
    uint64_t length() const { return top_ - base_; }
    /** @} */

    /** True iff the permissions use the executable format (and thus
     * the otype, if any, lives in the executable namespace). */
    bool isExecutable() const { return perms().has(PermExecute); }

    /** A capability is local iff it lacks the Global permission. */
    bool isLocal() const { return !perms().has(PermGlobal); }

    /** Forward sentry: sealed executable with a sentry otype. */
    bool isForwardSentry() const
    {
        return isExecutable() && cap::isForwardSentry(otype_);
    }

    /** Return sentry: sealed executable with a return-sentry otype. */
    bool isReturnSentry() const
    {
        return isExecutable() && cap::isReturnSentry(otype_);
    }

    /** @name In-bounds checks for memory access @{ */
    bool inBounds(uint32_t addr, uint32_t size) const
    {
        return addr >= base_ && static_cast<uint64_t>(addr) + size <= top_;
    }
    /** @} */

    /** @name Guarded manipulation (monotone; may clear the tag) @{ */

    /** Replace the address; untag if sealed or unrepresentable. */
    Capability withAddress(uint32_t newAddress) const
    {
        if (!keepsDecode(address_) || !keepsDecode(newAddress)) {
            return withAddressRedecoded(newAddress);
        }
        Capability c = *this;
        c.address_ = newAddress;
        if (isSealed()) {
            c.tag_ = false;
        }
        return c;
    }

    /** Add a (signed) offset to the address. */
    Capability withAddressOffset(int64_t offset) const
    {
        return withAddress(static_cast<uint32_t>(address_ + offset));
    }

    /**
     * Narrow bounds to [address, address + length). Untag if the
     * request is not fully inside the current bounds or the
     * capability is sealed/untagged. If the encoding must round, the
     * result covers the rounded window, still within the original
     * bounds when possible (rounding may *grow* the window; if growth
     * escapes the original bounds, untag). @p exactOut reports
     * whether rounding occurred.
     */
    Capability withBounds(uint64_t length, bool *exactOut = nullptr) const;

    /** As withBounds but untag unless exactly representable. */
    Capability withBoundsExact(uint64_t length) const;

    /** Intersect permissions with @p mask (CAndPerm). */
    Capability withPermsAnd(uint16_t mask) const;

    /** Clear the validity tag. */
    Capability withTagCleared() const;

    /**
     * Apply the recursive load side effects of §3.1.1: when loaded
     * through an authority lacking LG, the result loses GL and LG;
     * when loaded through an authority lacking LM (and the result is
     * not executable), it loses SD and LM.
     */
    Capability attenuatedForLoad(PermSet authorityPerms) const;

    /** @} */

    /** @name Sealing (raw field edits; authority checks live in the
     * instruction layer) @{ */
    Capability sealedWith(uint8_t otype) const;
    Capability unsealedCopy() const;
    /** @} */

    /** Structural equality including tag (CSetEqualExact). */
    bool operator==(const Capability &other) const;

    /** Diagnostic rendering. */
    std::string toString() const;

  private:
    /** True when @p addr lies in the cached base's decode window, so
     * decoding at @p addr is known to give the cached bounds. */
    bool keepsDecode(uint32_t addr) const
    {
        return bounds_.exponent == 0xf ||
               static_cast<uint64_t>(addr) - base_ <
                   (uint64_t{1} << (bounds_.exponent + 9));
    }

    /** withAddress for a move that may leave the decode window. */
    Capability withAddressRedecoded(uint32_t newAddress) const;

    /** Refill the decoded cache from the packed fields. */
    void decodeFields();

    uint32_t address_ = 0;
    uint32_t base_ = 0;  ///< Cached decodeBounds(bounds_, address_).base.
    uint64_t top_ = 0;   ///< Cached decodeBounds(bounds_, address_).top.
    EncodedBounds bounds_ = {0, 0, 0};
    PermSet perms_;      ///< Cached decompressPerms(permsField_).
    uint8_t permsField_ = 0;
    uint8_t otype_ = 0;
    bool reserved_ = false;
    bool tag_ = false;
};

/**
 * CSeal: seal @p target with the otype addressed by @p authority.
 * Returns nullopt (meaning the instruction must produce an untagged
 * or trapping result) unless: both caps are tagged, neither is
 * sealed, @p authority has SE, its address is in bounds and maps to a
 * valid otype for @p target's namespace.
 */
std::optional<Capability> seal(const Capability &target,
                               const Capability &authority);

/** CUnseal: the inverse, requiring US and a matching otype address. */
std::optional<Capability> unseal(const Capability &target,
                                 const Capability &authority);

/**
 * Make a forward sentry from an unsealed executable capability.
 * This models the RTOS loader/switcher minting entry points; it
 * requires an unsealed, tagged, executable input.
 */
std::optional<Capability> makeSentry(const Capability &target,
                                     InterruptPosture posture);

/** CTestSubset: is @p child's authority a subset of @p parent's? */
bool isSubsetOf(const Capability &child, const Capability &parent);

} // namespace cheriot::cap

#endif // CHERIOT_CAP_CAPABILITY_H
