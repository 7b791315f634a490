/**
 * @file
 * The snapshot CRC-32 folds eight bytes per step; these tests hold it
 * to the plain byte-at-a-time definition (kept here only as the
 * oracle) across lengths, unaligned starts and chained seeds, and
 * hold crc32Combine to the one-shot CRC of the concatenation.
 */

#include "snapshot/serializer.h"
#include "util/rng.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <vector>

namespace cheriot::snapshot
{
namespace
{

uint32_t
referenceCrc32(const uint8_t *data, size_t size, uint32_t seed = 0)
{
    uint32_t c = seed ^ 0xffffffffu;
    for (size_t i = 0; i < size; ++i) {
        c ^= data[i];
        for (int k = 0; k < 8; ++k) {
            c = (c & 1) ? 0xedb88320u ^ (c >> 1) : c >> 1;
        }
    }
    return c ^ 0xffffffffu;
}

std::vector<uint8_t>
seededBytes(size_t size, uint64_t seed)
{
    Rng rng(seed);
    std::vector<uint8_t> bytes(size);
    for (uint8_t &b : bytes) {
        b = static_cast<uint8_t>(rng.next());
    }
    return bytes;
}

TEST(Crc32, CheckValue)
{
    const char *check = "123456789";
    EXPECT_EQ(crc32(reinterpret_cast<const uint8_t *>(check),
                    std::strlen(check)),
              0xCBF43926u);
    EXPECT_EQ(crc32(nullptr, 0), 0u);
}

TEST(Crc32, MatchesByteWiseReferenceAtEveryLengthAndOffset)
{
    const std::vector<uint8_t> buffer = seededBytes(4096 + 8, 42);
    for (size_t offset = 0; offset < 8; ++offset) {
        const uint8_t *data = buffer.data() + offset;
        // The reference over each prefix, extended one byte at a time.
        uint32_t expected = 0;
        for (size_t size = 0; size <= 4096; ++size) {
            ASSERT_EQ(crc32(data, size), expected)
                << "offset " << offset << " size " << size;
            expected = referenceCrc32(data + size, 1, expected);
        }
    }
}

TEST(Crc32, ChainedSeedsMatchReference)
{
    for (uint64_t round = 0; round < 64; ++round) {
        Rng rng(round);
        const std::vector<uint8_t> data = seededBytes(rng.below(4097), round);
        const std::vector<uint8_t> tags =
            seededBytes(rng.below(600), round + 1000);
        const uint32_t seed = rng.next();

        const uint32_t dataCrc = crc32(data.data(), data.size(), seed);
        ASSERT_EQ(dataCrc, referenceCrc32(data.data(), data.size(), seed));
        ASSERT_EQ(crc32(tags.data(), tags.size(), dataCrc),
                  referenceCrc32(tags.data(), tags.size(), dataCrc))
            << "round " << round;
    }
}

TEST(Crc32, ChainingEqualsOneShot)
{
    const std::vector<uint8_t> buffer = seededBytes(3001, 7);
    const uint32_t whole = crc32(buffer.data(), buffer.size());
    for (const size_t split : {size_t{0}, size_t{1}, size_t{7}, size_t{8},
                               size_t{1500}, size_t{3001}}) {
        const uint32_t head = crc32(buffer.data(), split);
        EXPECT_EQ(crc32(buffer.data() + split, buffer.size() - split, head),
                  whole)
            << "split " << split;
    }
}

/** crc32Combine(crc32(A), crc32(B), |B|) == crc32(A‖B), split at
 * @p split. */
void
expectCombineMatches(const std::vector<uint8_t> &buffer, size_t split)
{
    const size_t lengthB = buffer.size() - split;
    const uint32_t crcA = crc32(buffer.data(), split);
    const uint32_t crcB = crc32(buffer.data() + split, lengthB);
    EXPECT_EQ(crc32Combine(crcA, crcB, lengthB),
              crc32(buffer.data(), buffer.size()))
        << "|A| " << split << " |B| " << lengthB;
}

TEST(Crc32Combine, MatchesConcatenationAtEdgeLengths)
{
    for (const size_t lengthB : {size_t{0}, size_t{1}, size_t{7}, size_t{8},
                                 size_t{9}, size_t{4096}}) {
        for (const size_t lengthA : {size_t{0}, size_t{1}, size_t{13}}) {
            expectCombineMatches(
                seededBytes(lengthA + lengthB, lengthA * 7919 + lengthB),
                lengthA);
        }
    }
}

TEST(Crc32Combine, MatchesConcatenationAtSeededSplits)
{
    for (uint64_t round = 0; round < 64; ++round) {
        Rng rng(round + 500);
        const std::vector<uint8_t> buffer =
            seededBytes(rng.below(5000), round);
        const size_t split =
            rng.below(static_cast<uint32_t>(buffer.size()) + 1);
        expectCombineMatches(buffer, split);
    }
}

TEST(Crc32Combine, LargeBufferFoldsFromPieces)
{
    // The size of an SRAM payload: fold 300 KiB back together from
    // seeded pieces, left to right, as the image CRC folds sections.
    const std::vector<uint8_t> buffer = seededBytes(300u << 10, 99);
    expectCombineMatches(buffer, 4096);
    expectCombineMatches(buffer, buffer.size() - 9);

    Rng rng(17);
    uint32_t folded = 0;
    for (size_t offset = 0; offset < buffer.size();) {
        const size_t piece =
            std::min<size_t>(rng.below(40000), buffer.size() - offset);
        folded = crc32Combine(folded, crc32(buffer.data() + offset, piece),
                              piece);
        offset += piece;
    }
    EXPECT_EQ(folded, crc32(buffer.data(), buffer.size()));
}

} // namespace
} // namespace cheriot::snapshot
