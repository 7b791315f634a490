#include "cap/capability.h"

#include "util/bits.h"
#include "util/log.h"

#include <cinttypes>
#include <cstdio>

namespace cheriot::cap
{

namespace
{

/** Full-address-space bounds: base 0, top 2^32 (E = 0xF ⇒ 24). */
constexpr EncodedBounds kFullBounds = {0xf, 0, 256};

} // namespace

Capability
Capability::memoryRoot()
{
    Capability c;
    c.tag_ = true;
    c.address_ = 0;
    c.bounds_ = kFullBounds;
    c.permsField_ = compressPerms(PermSet(
        PermGlobal | PermLoad | PermStore | PermMemCap | PermStoreLocal |
        PermLoadMutable | PermLoadGlobal));
    c.decodeFields();
    return c;
}

Capability
Capability::executableRoot()
{
    Capability c;
    c.tag_ = true;
    c.address_ = 0;
    c.bounds_ = kFullBounds;
    c.permsField_ = compressPerms(PermSet(
        PermGlobal | PermExecute | PermLoad | PermMemCap | PermSystemRegs |
        PermLoadMutable | PermLoadGlobal));
    c.decodeFields();
    return c;
}

Capability
Capability::sealingRoot()
{
    Capability c;
    c.tag_ = true;
    c.address_ = 0;
    // Bounds cover the small otype address space only.
    const auto enc = encodeBounds(0, kOtypeAddressSpaceSize);
    c.bounds_ = enc.encoded;
    c.permsField_ = compressPerms(
        PermSet(PermGlobal | PermSeal | PermUnseal | PermUser0));
    c.decodeFields();
    return c;
}

Capability
Capability::fromBits(uint64_t rawBits, bool tag)
{
    const uint32_t meta = static_cast<uint32_t>(rawBits >> 32);
    Capability c;
    c.address_ = static_cast<uint32_t>(rawBits);
    c.reserved_ = bit(meta, 31);
    c.permsField_ = static_cast<uint8_t>(bits(meta, 25u, 6u));
    c.otype_ = static_cast<uint8_t>(bits(meta, 22u, 3u));
    c.bounds_.exponent = static_cast<uint8_t>(bits(meta, 18u, 4u));
    c.bounds_.base9 = static_cast<uint16_t>(bits(meta, 9u, 9u));
    c.bounds_.top9 = static_cast<uint16_t>(bits(meta, 0u, 9u));
    c.tag_ = tag;
    c.decodeFields();
    return c;
}

void
Capability::decodeFields()
{
    const DecodedBounds decoded = decodeBounds(bounds_, address_);
    base_ = decoded.base;
    top_ = decoded.top;
    perms_ = decompressPerms(permsField_);
}

uint64_t
Capability::toBits() const
{
    uint32_t meta = 0;
    meta = insertBits(meta, 31u, 1u, uint32_t{reserved_});
    meta = insertBits(meta, 25u, 6u, uint32_t{permsField_});
    meta = insertBits(meta, 22u, 3u, uint32_t{otype_});
    meta = insertBits(meta, 18u, 4u, uint32_t{bounds_.exponent});
    meta = insertBits(meta, 9u, 9u, uint32_t{bounds_.base9});
    meta = insertBits(meta, 0u, 9u, uint32_t{bounds_.top9});
    return (static_cast<uint64_t>(meta) << 32) | address_;
}

Capability
Capability::withAddressRedecoded(uint32_t newAddress) const
{
    Capability c = *this;
    c.address_ = newAddress;
    const DecodedBounds decoded = decodeBounds(bounds_, newAddress);
    c.base_ = decoded.base;
    c.top_ = decoded.top;
    if (isSealed() || decoded.base != base_ || decoded.top != top_) {
        c.tag_ = false;
    }
    return c;
}

Capability
Capability::withBounds(uint64_t length, bool *exactOut) const
{
    if (exactOut != nullptr) {
        *exactOut = true;
    }
    Capability c = *this;
    if (!tag_ || isSealed()) {
        c.tag_ = false;
        return c;
    }

    const uint32_t newBase = address_;
    const uint64_t newTop = static_cast<uint64_t>(newBase) + length;
    if (newBase < base_ || newTop > top_ || newTop > (uint64_t{1} << 32)) {
        c.tag_ = false;
        return c;
    }

    const auto enc = encodeBounds(newBase, length);
    if (exactOut != nullptr) {
        *exactOut = enc.exact;
    }
    // Rounding can only grow the window; growth that escapes the
    // original authority must not produce a tagged capability.
    if (enc.decoded.base < base_ || enc.decoded.top > top_) {
        c.tag_ = false;
        return c;
    }
    // encodeBounds decodes at requestedBase, which is this address.
    c.bounds_ = enc.encoded;
    c.base_ = enc.decoded.base;
    c.top_ = enc.decoded.top;
    return c;
}

Capability
Capability::withBoundsExact(uint64_t length) const
{
    bool exact = false;
    Capability c = withBounds(length, &exact);
    if (!exact) {
        c.tag_ = false;
    }
    return c;
}

Capability
Capability::withPermsAnd(uint16_t mask) const
{
    Capability c = *this;
    if (tag_ && isSealed()) {
        c.tag_ = false;
        return c;
    }
    c.permsField_ = compressPerms(perms_.intersect(PermSet(mask)));
    c.perms_ = decompressPerms(c.permsField_);
    return c;
}

Capability
Capability::withTagCleared() const
{
    Capability c = *this;
    c.tag_ = false;
    return c;
}

Capability
Capability::attenuatedForLoad(PermSet authorityPerms) const
{
    if (!tag_) {
        return *this;
    }
    PermSet p = perms_;
    if (!authorityPerms.has(PermLoadGlobal)) {
        p = p.without(PermGlobal | PermLoadGlobal);
    }
    if (!authorityPerms.has(PermLoadMutable) && !p.has(PermExecute)) {
        p = p.without(PermStore | PermLoadMutable);
    }
    if (p == perms_) {
        // Every 6-bit field is the canonical encoding of its set, so
        // recompressing an unchanged set would give the same field.
        return *this;
    }
    Capability c = *this;
    c.permsField_ = compressPerms(p);
    c.perms_ = decompressPerms(c.permsField_);
    return c;
}

Capability
Capability::sealedWith(uint8_t otype)
    const
{
    Capability c = *this;
    c.otype_ = otype & 0x7;
    return c;
}

Capability
Capability::unsealedCopy() const
{
    Capability c = *this;
    c.otype_ = kOtypeUnsealed;
    return c;
}

bool
Capability::operator==(const Capability &other) const
{
    return tag_ == other.tag_ && toBits() == other.toBits();
}

std::string
Capability::toString() const
{
    char buffer[160];
    std::snprintf(buffer, sizeof(buffer),
                  "%c 0x%08" PRIx32 " [0x%08" PRIx32 ", 0x%09" PRIx64
                  ") perms=%s otype=%u",
                  tag_ ? 'v' : '-', address_, base(), top(),
                  permsToString(perms()).c_str(), otype_);
    return buffer;
}

std::optional<Capability>
seal(const Capability &target, const Capability &authority)
{
    if (!target.tag() || !authority.tag() || target.isSealed() ||
        authority.isSealed() || !authority.perms().has(PermSeal)) {
        return std::nullopt;
    }
    const uint32_t addr = authority.address();
    if (!authority.inBounds(addr, 1)) {
        return std::nullopt;
    }
    const uint32_t namespaceBase =
        target.isExecutable() ? kExecOtypeAddressBase : kDataOtypeAddressBase;
    if (addr < namespaceBase + 1 || addr >= namespaceBase + kOtypeCount) {
        return std::nullopt;
    }
    return target.sealedWith(static_cast<uint8_t>(addr - namespaceBase));
}

std::optional<Capability>
unseal(const Capability &target, const Capability &authority)
{
    if (!target.tag() || !authority.tag() || !target.isSealed() ||
        authority.isSealed() || !authority.perms().has(PermUnseal)) {
        return std::nullopt;
    }
    const uint32_t addr = authority.address();
    if (!authority.inBounds(addr, 1)) {
        return std::nullopt;
    }
    const uint32_t namespaceBase =
        target.isExecutable() ? kExecOtypeAddressBase : kDataOtypeAddressBase;
    if (addr != namespaceBase + target.otype()) {
        return std::nullopt;
    }
    return target.unsealedCopy();
}

std::optional<Capability>
makeSentry(const Capability &target, InterruptPosture posture)
{
    if (!target.tag() || target.isSealed() ||
        !target.perms().has(PermExecute)) {
        return std::nullopt;
    }
    return target.sealedWith(forwardSentryFor(posture));
}

bool
isSubsetOf(const Capability &child, const Capability &parent)
{
    if (!child.tag() || !parent.tag()) {
        return false;
    }
    return child.base() >= parent.base() && child.top() <= parent.top() &&
           child.perms().subsetOf(parent.perms());
}

} // namespace cheriot::cap
