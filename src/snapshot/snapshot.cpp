#include "snapshot/snapshot.h"

#include <cstdio>
#include <cstring>

namespace cheriot::snapshot
{

namespace
{

void
putHeader(Writer &out, size_t sectionCount)
{
    out.u32(kSnapshotMagic);
    out.u32(kSnapshotVersion);
    out.u32(static_cast<uint32_t>(sectionCount));
}

void
putEntry(Writer &out, const SectionEntry &entry)
{
    out.str(entry.name);
    out.u32(entry.size);
    out.u32(entry.crc);
}

} // namespace

uint32_t
imageCrc(const std::vector<SectionEntry> &sections)
{
    Writer header;
    putHeader(header, sections.size());
    uint32_t crc = header.crc();
    for (const SectionEntry &entry : sections) {
        Writer manifest;
        putEntry(manifest, entry);
        crc = crc32(manifest.buffer().data(), manifest.size(), crc);
        crc = crc32Combine(crc, entry.crc, entry.size);
    }
    return crc;
}

Writer &
SnapshotWriter::beginSection(const std::string &name)
{
    if (open_) {
        endSection();
    }
    currentName_ = name;
    current_ = Writer{};
    open_ = true;
    return current_;
}

void
SnapshotWriter::endSection()
{
    if (!open_) {
        return;
    }
    manifest_.push_back({currentName_, static_cast<uint32_t>(current_.size()),
                         current_.crc()});
    payloads_.push_back(current_.take());
    open_ = false;
}

SnapshotImage
SnapshotWriter::finish()
{
    endSection();
    size_t imageSize = 12 + 4; // Header and trailer.
    for (size_t i = 0; i < manifest_.size(); ++i) {
        imageSize += 4 + manifest_[i].name.size() + 8 + payloads_[i].size();
    }
    Writer out;
    out.reserve(imageSize);
    putHeader(out, manifest_.size());
    for (size_t i = 0; i < manifest_.size(); ++i) {
        putEntry(out, manifest_[i]);
        out.bytes(payloads_[i].data(), payloads_[i].size());
    }
    out.u32(imageCrc(manifest_));
    SnapshotImage image;
    image.data = out.take();
    manifest_.clear();
    payloads_.clear();
    return image;
}

SnapshotReader::SnapshotReader(const SnapshotImage &image) : image_(image)
{
    const size_t size = image.data.size();
    // Smallest possible image: header (12) + image CRC (4).
    if (size < 16) {
        error_ = "image too small";
        return;
    }
    Reader trailer(image.data.data() + size - 4, 4);
    const uint32_t storedCrc = trailer.u32();
    if (crc32(image.data.data(), size - 4) != storedCrc) {
        error_ = "image CRC mismatch";
        return;
    }
    Reader r(image.data.data(), size - 4);
    if (r.u32() != kSnapshotMagic) {
        error_ = "bad magic";
        return;
    }
    const uint32_t version = r.u32();
    if (version != kSnapshotVersion) {
        error_ = "unsupported version " + std::to_string(version);
        return;
    }
    const uint32_t count = r.u32();
    for (uint32_t i = 0; i < count; ++i) {
        Entry entry;
        entry.name = r.str();
        entry.size = r.u32();
        const uint32_t sectionCrc = r.u32();
        if (!r.ok() || r.remaining() < entry.size) {
            error_ = "truncated manifest";
            return;
        }
        entry.offset = (size - 4) - r.remaining();
        if (crc32(image.data.data() + entry.offset, entry.size) !=
            sectionCrc) {
            error_ = "section '" + entry.name + "' CRC mismatch";
            return;
        }
        r.skip(entry.size);
        entries_.push_back(entry);
        names_.push_back(entry.name);
    }
    if (!r.exhausted()) {
        error_ = "trailing bytes after manifest";
        return;
    }
    valid_ = true;
}

bool
SnapshotReader::hasSection(const std::string &name) const
{
    for (const Entry &entry : entries_) {
        if (entry.name == name) {
            return true;
        }
    }
    return false;
}

Reader
SnapshotReader::section(const std::string &name) const
{
    if (valid_) {
        for (const Entry &entry : entries_) {
            if (entry.name == name) {
                return Reader(image_.data.data() + entry.offset,
                              entry.size);
            }
        }
    }
    // Missing section: an empty reader whose first read latches !ok().
    return Reader(nullptr, 0);
}

bool
saveImageToFile(const SnapshotImage &image, const std::string &path)
{
    const std::string tmp = path + ".tmp";
    std::FILE *f = std::fopen(tmp.c_str(), "wb");
    if (f == nullptr) {
        return false;
    }
    const size_t written =
        image.data.empty()
            ? 0
            : std::fwrite(image.data.data(), 1, image.data.size(), f);
    const bool flushed = std::fflush(f) == 0;
    const bool closed = std::fclose(f) == 0;
    if (written != image.data.size() || !flushed || !closed) {
        std::remove(tmp.c_str());
        return false;
    }
    if (std::rename(tmp.c_str(), path.c_str()) != 0) {
        std::remove(tmp.c_str());
        return false;
    }
    return true;
}

bool
loadImageFromFile(const std::string &path, SnapshotImage *out)
{
    std::FILE *f = std::fopen(path.c_str(), "rb");
    if (f == nullptr) {
        return false;
    }
    std::vector<uint8_t> data;
    uint8_t chunk[4096];
    size_t got;
    while ((got = std::fread(chunk, 1, sizeof(chunk), f)) > 0) {
        data.insert(data.end(), chunk, chunk + got);
    }
    const bool readOk = std::ferror(f) == 0;
    std::fclose(f);
    if (!readOk) {
        return false;
    }
    SnapshotImage image;
    image.data = std::move(data);
    SnapshotReader reader(image);
    if (!reader.valid()) {
        return false;
    }
    *out = std::move(image);
    return true;
}

} // namespace cheriot::snapshot
