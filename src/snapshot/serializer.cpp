#include "snapshot/serializer.h"

#include <array>
#include <cstring>

namespace cheriot::snapshot
{

namespace
{

using CrcTables = std::array<std::array<uint32_t, 256>, 8>;

/**
 * Slice-by-8 tables for the reflected IEEE polynomial: tables[0] is
 * the classic byte-at-a-time table, and tables[k][i] is the CRC of
 * byte i followed by k zero bytes, so eight table lookups fold eight
 * input bytes at once.
 */
CrcTables
buildCrcTables()
{
    CrcTables tables{};
    for (uint32_t i = 0; i < 256; ++i) {
        uint32_t c = i;
        for (int k = 0; k < 8; ++k) {
            c = (c & 1) ? 0xedb88320u ^ (c >> 1) : c >> 1;
        }
        tables[0][i] = c;
    }
    for (size_t k = 1; k < tables.size(); ++k) {
        for (uint32_t i = 0; i < 256; ++i) {
            const uint32_t prev = tables[k - 1][i];
            tables[k][i] = tables[0][prev & 0xffu] ^ (prev >> 8);
        }
    }
    return tables;
}

uint32_t
loadLe32(const uint8_t *p)
{
    return static_cast<uint32_t>(p[0]) |
           static_cast<uint32_t>(p[1]) << 8 |
           static_cast<uint32_t>(p[2]) << 16 |
           static_cast<uint32_t>(p[3]) << 24;
}

} // namespace

uint32_t
crc32(const uint8_t *data, size_t size, uint32_t seed)
{
    static const CrcTables t = buildCrcTables();
    uint32_t c = seed ^ 0xffffffffu;
    for (; size >= 8; data += 8, size -= 8) {
        const uint32_t lo = c ^ loadLe32(data);
        const uint32_t hi = loadLe32(data + 4);
        c = t[7][lo & 0xffu] ^ t[6][(lo >> 8) & 0xffu] ^
            t[5][(lo >> 16) & 0xffu] ^ t[4][lo >> 24] ^
            t[3][hi & 0xffu] ^ t[2][(hi >> 8) & 0xffu] ^
            t[1][(hi >> 16) & 0xffu] ^ t[0][hi >> 24];
    }
    for (; size > 0; ++data, --size) {
        c = t[0][(c ^ *data) & 0xffu] ^ (c >> 8);
    }
    return c ^ 0xffffffffu;
}

namespace
{

/** a(x)·b(x) mod P(x), both reflected (x^0 in the top bit). */
uint32_t
multiplyModP(uint32_t a, uint32_t b)
{
    uint32_t product = 0;
    for (uint32_t m = 1u << 31; m != 0; m >>= 1) {
        if ((a & m) != 0) {
            product ^= b;
        }
        b = (b & 1) ? 0xedb88320u ^ (b >> 1) : b >> 1;
    }
    return product;
}

/** x^(8n) mod P(x): the shift that appends n zero bytes. */
uint32_t
shiftBytesModP(size_t n)
{
    // powers[k] = x^(2^k · 8) mod P(x).
    static const std::array<uint32_t, 64> powers = [] {
        std::array<uint32_t, 64> p{};
        uint32_t x = 1u << 30; // x^1
        for (int k = 0; k < 3; ++k) {
            x = multiplyModP(x, x);
        }
        for (uint32_t &power : p) {
            power = x;
            x = multiplyModP(x, x);
        }
        return p;
    }();
    uint32_t shift = 1u << 31; // x^0
    for (size_t k = 0; n != 0; n >>= 1, ++k) {
        if ((n & 1) != 0) {
            shift = multiplyModP(powers[k], shift);
        }
    }
    return shift;
}

} // namespace

uint32_t
crc32Combine(uint32_t crcA, uint32_t crcB, size_t lengthB)
{
    return multiplyModP(shiftBytesModP(lengthB), crcA) ^ crcB;
}

void
Writer::u16(uint16_t value)
{
    u8(static_cast<uint8_t>(value));
    u8(static_cast<uint8_t>(value >> 8));
}

void
Writer::u32(uint32_t value)
{
    u16(static_cast<uint16_t>(value));
    u16(static_cast<uint16_t>(value >> 16));
}

void
Writer::u64(uint64_t value)
{
    u32(static_cast<uint32_t>(value));
    u32(static_cast<uint32_t>(value >> 32));
}

void
Writer::bytes(const uint8_t *data, size_t size)
{
    if (digesting_) {
        foldedCrc_ = crc32(data, size, crc());
        foldedSize_ += buffer_.size() + size;
        buffer_.clear();
        return;
    }
    buffer_.insert(buffer_.end(), data, data + size);
}

void
Writer::str(const std::string &value)
{
    u32(static_cast<uint32_t>(value.size()));
    bytes(reinterpret_cast<const uint8_t *>(value.data()), value.size());
}

bool
Reader::take(size_t count)
{
    if (!ok_ || size_ - offset_ < count) {
        ok_ = false;
        return false;
    }
    return true;
}

uint8_t
Reader::u8()
{
    if (!take(1)) {
        return 0;
    }
    return data_[offset_++];
}

uint16_t
Reader::u16()
{
    const uint16_t lo = u8();
    const uint16_t hi = u8();
    return static_cast<uint16_t>(lo | (hi << 8));
}

uint32_t
Reader::u32()
{
    const uint32_t lo = u16();
    const uint32_t hi = u16();
    return lo | (hi << 16);
}

uint64_t
Reader::u64()
{
    const uint64_t lo = u32();
    const uint64_t hi = u32();
    return lo | (hi << 32);
}

void
Reader::bytes(uint8_t *out, size_t size)
{
    if (!take(size)) {
        std::memset(out, 0, size);
        return;
    }
    std::memcpy(out, data_ + offset_, size);
    offset_ += size;
}

void
Reader::skip(size_t size)
{
    if (take(size)) {
        offset_ += size;
    }
}

uint32_t
Reader::count(size_t minBytes)
{
    const uint32_t n = u32();
    if (n > remaining() / minBytes) {
        ok_ = false;
        return 0;
    }
    return n;
}

std::string
Reader::str()
{
    const uint32_t size = count(1);
    if (!ok_) {
        return {};
    }
    std::string value(reinterpret_cast<const char *>(data_ + offset_),
                      size);
    offset_ += size;
    return value;
}

} // namespace cheriot::snapshot
