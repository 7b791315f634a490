/**
 * @file
 * Versioned, checksummed system-snapshot images.
 *
 * An image is a manifest of named *sections*, one per stateful
 * component ("machine", "sram", "revoker", "kernel", …), each
 * independently CRC-protected, followed by a whole-image CRC:
 *
 *   u32 magic 'CHSN'   u32 version   u32 sectionCount
 *   sectionCount × { str name, u32 payloadSize, u32 payloadCrc,
 *                    payload bytes }
 *   u32 imageCrc       (over everything above)
 *
 * The component manifest makes partial restores and forward
 * compatibility explicit: a reader knows exactly which components an
 * image carries before touching any state, and a version bump or a
 * flipped bit is rejected up front rather than surfacing as a
 * half-restored machine.
 *
 * File writes are crash-consistent: the image is written to a
 * temporary sibling and atomically renamed over the target, so a
 * checkpoint file is either the complete old image or the complete
 * new one, never a tear.
 */

#ifndef CHERIOT_SNAPSHOT_SNAPSHOT_H
#define CHERIOT_SNAPSHOT_SNAPSHOT_H

#include "snapshot/serializer.h"

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace cheriot::snapshot
{

/** Current image format version.
 * v2: quota ledger + chunk-owner map + heap-pressure counters in the
 * allocator stream; alloc-failure budget in FaultRecoveryState.
 * v3: refill-timeout counter + ARQ peer state (sequence/retransmit/
 * dedup queues) in the net-stack stream.
 * v4: object-capability table (entries, derivation tree, pending
 * revocations, counters) in the kernel stream; time-cap deferral
 * counter + slot width in the scheduler stream; monitor-action
 * counters in the watchdog stream. */
constexpr uint32_t kSnapshotVersion = 4;
/** 'CHSN' little-endian. */
constexpr uint32_t kSnapshotMagic = 0x4e534843;

/** A complete serialized system image. */
struct SnapshotImage
{
    std::vector<uint8_t> data;

    bool empty() const { return data.empty(); }
    /**
     * Digest of the image contents; state-equality when canonical.
     * The image's own trailing CRC is excluded: CRC-32 over a message
     * with its CRC appended is the fixed residue 0x2144df1c for
     * *every* valid image, which would make the digest constant. The
     * trailing CRC already covers all preceding bytes, so it *is* the
     * content digest.
     */
    uint32_t digest() const
    {
        if (data.size() < 4) {
            return crc32(data.data(), data.size());
        }
        const size_t n = data.size();
        return static_cast<uint32_t>(data[n - 4]) |
               (static_cast<uint32_t>(data[n - 3]) << 8) |
               (static_cast<uint32_t>(data[n - 2]) << 16) |
               (static_cast<uint32_t>(data[n - 1]) << 24);
    }
};

/** A section as the image manifest records it. */
struct SectionEntry
{
    std::string name;
    uint32_t size; ///< Payload bytes.
    uint32_t crc;  ///< CRC-32 of the payload.
};

/**
 * The whole-image CRC (the trailer, and so SnapshotImage::digest()) of
 * an image holding @p sections in order. The header and manifest bytes
 * are CRC'd and each payload is folded in by its own CRC
 * (crc32Combine), so no payload byte is read.
 */
uint32_t imageCrc(const std::vector<SectionEntry> &sections);

/** Builds an image section by section. */
class SnapshotWriter
{
  public:
    /** Start a named section; returns the Writer for its payload. */
    Writer &beginSection(const std::string &name);

    /** Finish the current section (computes its CRC). */
    void endSection();

    /** Start section @p name holding @p fields (components, values or
     * field-group callables, see Writer). */
    template <class... T>
    void saveSection(const std::string &name, const T &...fields)
    {
        beginSection(name)(fields...);
    }

    /** Seal the image (appends the whole-image CRC). */
    SnapshotImage finish();

  private:
    std::vector<SectionEntry> manifest_;
    std::vector<std::vector<uint8_t>> payloads_;
    Writer current_;
    std::string currentName_;
    bool open_ = false;
};

/**
 * Parses and validates an image: magic, version, manifest geometry,
 * per-section CRCs and the image CRC are all checked on construction;
 * valid() gates everything else.
 */
class SnapshotReader
{
  public:
    explicit SnapshotReader(const SnapshotImage &image);

    bool valid() const { return valid_; }
    /** Why validation failed (diagnostics). */
    const std::string &error() const { return error_; }

    /** Component manifest, in image order. */
    const std::vector<std::string> &sectionNames() const
    {
        return names_;
    }
    bool hasSection(const std::string &name) const;

    /** Reader over a section's payload; overruns latch on a missing
     * section so callers can check Reader::ok() uniformly. */
    Reader section(const std::string &name) const;

    /** Restore @p fields from section @p name: true only when the
     * section is present and the fields consume it exactly. */
    template <class... T>
    bool restoreSection(const std::string &name, T &&...fields) const
    {
        Reader r = section(name);
        r(std::forward<T>(fields)...);
        return r.exhausted();
    }

  private:
    struct Entry
    {
        std::string name;
        size_t offset;
        size_t size;
    };

    const SnapshotImage &image_;
    std::vector<Entry> entries_;
    std::vector<std::string> names_;
    bool valid_ = false;
    std::string error_;
};

/** @name Crash-consistent file I/O (write-temp + atomic rename) @{ */
bool saveImageToFile(const SnapshotImage &image, const std::string &path);
/** Loads and fully validates; false on I/O error or corruption. */
bool loadImageFromFile(const std::string &path, SnapshotImage *out);
/** @} */

} // namespace cheriot::snapshot

#endif // CHERIOT_SNAPSHOT_SNAPSHOT_H
