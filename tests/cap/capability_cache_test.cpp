/**
 * @file
 * Oracle for the decoded fields a Capability keeps next to its packed
 * image. Every value, tagged or not, must report base()/top()/perms()
 * and answer inBounds() exactly as a fresh decode of its toBits()
 * image does, and address moves must clear the tag exactly when
 * addressPreservesBounds says the bounds changed (or the value is
 * sealed). Values come from random packed images and from every
 * derivation the instruction layer uses.
 */

#include "cap/capability.h"

#include "util/rng.h"

#include <gtest/gtest.h>

#include <vector>

namespace cheriot::cap
{
namespace
{

EncodedBounds
boundsOf(uint64_t bits)
{
    const uint32_t meta = static_cast<uint32_t>(bits >> 32);
    return {static_cast<uint8_t>((meta >> 18) & 0xf),
            static_cast<uint16_t>((meta >> 9) & 0x1ff),
            static_cast<uint16_t>(meta & 0x1ff)};
}

/** Packed image of an unsealed read/write capability (perms field
 * 0x3f) with the given bounds fields. */
uint64_t
packBits(uint8_t exponent, uint16_t base9, uint16_t top9, uint32_t address)
{
    const uint32_t meta = (uint32_t{0x3f} << 25) |
                          (uint32_t{exponent} << 18) |
                          (uint32_t{base9} << 9) | top9;
    return (uint64_t{meta} << 32) | address;
}

/** The cached fields of @p c against a decode of its packed image. */
::testing::AssertionResult
matchesDecode(const Capability &c)
{
    const uint64_t bits = c.toBits();
    const uint32_t address = static_cast<uint32_t>(bits);
    const DecodedBounds ref = decodeBounds(boundsOf(bits), address);
    const PermSet refPerms =
        decompressPerms(static_cast<uint8_t>((bits >> 57) & 0x3f));
    if (c.base() != ref.base || c.top() != ref.top ||
        c.length() != ref.top - ref.base || !(c.perms() == refPerms)) {
        return ::testing::AssertionFailure()
               << c.toString() << " decodes to [0x" << std::hex
               << ref.base << ", 0x" << ref.top << ") perms 0x"
               << refPerms.mask();
    }
    const uint32_t probes[] = {
        address,           ref.base,
        ref.base - 1,      static_cast<uint32_t>(ref.top),
        static_cast<uint32_t>(ref.top - 1),
        static_cast<uint32_t>(ref.top - 4),
    };
    for (const uint32_t addr : probes) {
        for (const uint32_t size : {1u, 4u, 8u}) {
            const bool expected =
                addr >= ref.base && uint64_t{addr} + size <= ref.top;
            if (c.inBounds(addr, size) != expected) {
                return ::testing::AssertionFailure()
                       << c.toString() << " inBounds(0x" << std::hex
                       << addr << ", " << std::dec << size << ") != "
                       << expected;
            }
        }
    }
    return ::testing::AssertionSuccess();
}

/** withAddress result against the packed-image reference. */
::testing::AssertionResult
movedCorrectly(const Capability &from, uint32_t to, const Capability &got)
{
    const uint64_t expectedBits =
        (from.toBits() & ~uint64_t{0xffffffff}) | to;
    const bool expectedTag =
        from.tag() && !from.isSealed() &&
        addressPreservesBounds(from.encodedBounds(), from.address(), to);
    if (got.toBits() != expectedBits || got.tag() != expectedTag) {
        return ::testing::AssertionFailure()
               << from.toString() << " -> 0x" << std::hex << to
               << " gave " << got.toString() << ", expected tag "
               << expectedTag;
    }
    return matchesDecode(got);
}

/** Addresses that probe the edges of @p c's decode window. */
std::vector<uint32_t>
edgeAddresses(Rng &rng, const Capability &c)
{
    const unsigned e = effectiveExponent(c.encodedBounds().exponent);
    const uint64_t span = uint64_t{1} << (e + 9);
    const uint32_t base = c.base();
    return {base,
            base - 1,
            static_cast<uint32_t>(base + span - 1),
            static_cast<uint32_t>(base + span),
            static_cast<uint32_t>(c.top()),
            c.address() + 1,
            c.address() - 1,
            c.address() + (uint32_t{1} << e),
            base + rng.below(static_cast<uint32_t>(
                       span > 0xffffffffu ? 0xffffffffu : span)),
            rng.next()};
}

/** Every derivation of @p c must keep the cache; moves also keep the
 * tag rule. */
void
checkDerivations(Rng &rng, const Capability &c, const Capability &sealer)
{
    ASSERT_TRUE(matchesDecode(c));
    for (const uint32_t to : edgeAddresses(rng, c)) {
        const Capability moved = c.withAddress(to);
        ASSERT_TRUE(movedCorrectly(c, to, moved));
        const auto offset = static_cast<int64_t>(to) - c.address();
        ASSERT_TRUE(movedCorrectly(c, to, c.withAddressOffset(offset)));
        // A second move from the moved value starts from an address
        // that may sit outside its own window.
        const uint32_t back = c.address();
        ASSERT_TRUE(movedCorrectly(moved, back, moved.withAddress(back)));
    }
    const uint64_t length = rng.chance(1, 2) ? rng.below(0x400)
                                             : rng.next() & 0xfffff;
    ASSERT_TRUE(matchesDecode(c.withBounds(length)));
    ASSERT_TRUE(matchesDecode(c.withBoundsExact(length)));
    ASSERT_TRUE(matchesDecode(c.withPermsAnd(
        static_cast<uint16_t>(rng.next()))));
    ASSERT_TRUE(matchesDecode(
        c.attenuatedForLoad(PermSet(static_cast<uint16_t>(rng.next())))));
    ASSERT_TRUE(matchesDecode(c.withTagCleared()));
    if (const auto sealed = seal(c, sealer)) {
        ASSERT_TRUE(matchesDecode(*sealed));
        const uint32_t to = sealed->address() + 4;
        ASSERT_TRUE(movedCorrectly(*sealed, to, sealed->withAddress(to)));
        if (const auto unsealed = unseal(*sealed, sealer)) {
            ASSERT_TRUE(matchesDecode(*unsealed));
        }
    }
}

TEST(CapabilityCache, RandomPackedImagesAndDerivations)
{
    Rng rng(0xcac4e);
    const Capability sealer =
        Capability::sealingRoot().withAddress(kOtypeToken);
    for (int i = 0; i < 20000; ++i) {
        const Capability c =
            Capability::fromBits(rng.next64(), rng.chance(1, 2));
        ASSERT_NO_FATAL_FAILURE(checkDerivations(rng, c, sealer));
    }
}

TEST(CapabilityCache, DerivedFromRootsAndRoundTrips)
{
    Rng rng(0xde71);
    const Capability sealer =
        Capability::sealingRoot().withAddress(kOtypeToken);
    const Capability roots[] = {Capability::memoryRoot(),
                                Capability::executableRoot(),
                                Capability::sealingRoot()};
    for (const Capability &root : roots) {
        ASSERT_TRUE(matchesDecode(root));
        for (int i = 0; i < 2000; ++i) {
            const Capability c = root.withAddress(rng.next())
                                     .withBounds(rng.next() & 0x3ffff)
                                     .withPermsAnd(static_cast<uint16_t>(
                                         rng.next() | PermMemCap));
            ASSERT_NO_FATAL_FAILURE(checkDerivations(rng, c, sealer));
            ASSERT_TRUE(matchesDecode(
                Capability::fromBits(c.toBits(), c.tag())));
        }
    }
}

TEST(CapabilityCache, FromIntIsNullWithAddress)
{
    Rng rng(0x1e7);
    for (int i = 0; i < 20000; ++i) {
        const uint32_t v = i < 16 ? 0xffffffffu - i : rng.next();
        const Capability c = Capability::fromInt(v);
        ASSERT_EQ(c, Capability().withAddress(v));
        ASSERT_TRUE(matchesDecode(c));
        EXPECT_FALSE(c.tag());
        EXPECT_EQ(c.base(), v & ~uint32_t{0x1ff});
        EXPECT_EQ(c.top(), v & ~uint32_t{0x1ff});
    }
}

TEST(CapabilityCache, EveryPermsFieldIsCanonical)
{
    // attenuatedForLoad returns an unchanged permission set without
    // recompressing it; that is bit-identical only while every field
    // value is the encoding compressPerms picks for its set.
    for (unsigned field = 0; field < 64; ++field) {
        EXPECT_EQ(compressPerms(decompressPerms(static_cast<uint8_t>(field))),
                  field);
    }
}

TEST(CapabilityCache, EscapeExponentIgnoresTheAddress)
{
    // E = 0xF with B != 0: the decode does not depend on the address,
    // even for addresses below the decoded base.
    const uint64_t bits = packBits(0xf, 5, 200, 0x00100000);
    const Capability c = Capability::fromBits(bits, true);
    ASSERT_TRUE(matchesDecode(c));
    EXPECT_EQ(c.base(), 5u << 24);
    EXPECT_EQ(c.top(), uint64_t{200} << 24);
    for (const uint32_t to :
         {0u, 0x04ffffffu, 0x05000000u, 0xc7ffffffu, 0xffffffffu}) {
        const Capability moved = c.withAddress(to);
        ASSERT_TRUE(movedCorrectly(c, to, moved));
        EXPECT_TRUE(moved.tag());
    }
}

TEST(CapabilityCache, WindowCrossingTwoToThe32)
{
    // Bounds [0xFFFFFF00, 0xFFFFFF80) with E = 0: decoded at 0x10 the
    // same fields give a 33-bit top (different bounds), so a move
    // between the two ends of the address space must untag.
    const Capability c =
        Capability::memoryRoot().withAddress(0xffffff00).withBounds(0x80);
    ASSERT_TRUE(c.tag());
    ASSERT_EQ(c.encodedBounds().exponent, 0);
    ASSERT_EQ(c.base(), 0xffffff00u);

    const Capability inside = c.withAddress(0xffffff10);
    ASSERT_TRUE(movedCorrectly(c, 0xffffff10, inside));
    EXPECT_TRUE(inside.tag());

    const Capability low = inside.withAddress(0x10);
    ASSERT_TRUE(movedCorrectly(inside, 0x10, low));
    EXPECT_FALSE(low.tag());
    EXPECT_EQ(low.base(), 0xffffff00u);
    EXPECT_NE(low.top(), c.top());

    // From the low alias back into the cached base's window: the old
    // address lies outside its own window, so the move re-decodes.
    const Capability back = low.withAddress(0xffffff10);
    ASSERT_TRUE(movedCorrectly(low, 0xffffff10, back));
    EXPECT_EQ(back.top(), c.top());

    // The same crossing for a window whose top is exactly 2^32.
    const Capability full =
        Capability::memoryRoot().withAddress(0xffffff00).withBounds(0x100);
    ASSERT_TRUE(full.tag());
    ASSERT_EQ(full.top(), uint64_t{1} << 32);
    ASSERT_TRUE(movedCorrectly(full, 0x10, full.withAddress(0x10)));
    EXPECT_FALSE(full.withAddress(0x10).tag());
}

TEST(CapabilityCache, TaggedValueOutsideItsOwnWindow)
{
    // E = 4, B = 0x1F0 at address 0x100: the address sits below B in
    // the first region, so the decoded base wraps to 0xFFFFFF00 and
    // the address is outside [base, base + 2^13).
    const uint64_t bits = packBits(4, 0x1f0, 0x1f8, 0x100);
    const Capability c = Capability::fromBits(bits, true);
    ASSERT_TRUE(matchesDecode(c));
    ASSERT_EQ(c.base(), 0xffffff00u);

    // Staying in the low alias keeps the bounds (and the tag).
    const Capability near = c.withAddress(0x104);
    ASSERT_TRUE(movedCorrectly(c, 0x104, near));
    EXPECT_TRUE(near.tag());

    // Moving into the cached base's window changes the decoded top.
    const Capability high = c.withAddress(0xffffff10);
    ASSERT_TRUE(movedCorrectly(c, 0xffffff10, high));
    EXPECT_FALSE(high.tag());

    // The same image untagged: the cache still tracks every move.
    const Capability untagged = Capability::fromBits(bits, false);
    for (const uint32_t to : {0x104u, 0xffffff10u, 0x2000u, 0x0u}) {
        ASSERT_TRUE(movedCorrectly(untagged, to, untagged.withAddress(to)));
    }
}

TEST(CapabilityCache, SealedValuesLoseTheTagOnAnyMove)
{
    const Capability sealer =
        Capability::sealingRoot().withAddress(kOtypeToken);
    const Capability target =
        Capability::memoryRoot().withAddress(0x20001000).withBounds(256);
    const auto sealed = seal(target, sealer);
    ASSERT_TRUE(sealed.has_value());
    ASSERT_TRUE(matchesDecode(*sealed));
    for (const uint32_t to : {0x20001000u, 0x20001004u, 0x30000000u}) {
        const Capability moved = sealed->withAddress(to);
        ASSERT_TRUE(movedCorrectly(*sealed, to, moved));
        EXPECT_FALSE(moved.tag());
    }
    const auto unsealed = unseal(*sealed, sealer);
    ASSERT_TRUE(unsealed.has_value());
    EXPECT_EQ(*unsealed, target);
    ASSERT_TRUE(matchesDecode(*unsealed));
}

} // namespace
} // namespace cheriot::cap
