/**
 * @file
 * Binary serialization for system snapshots, and the field visitors
 * every snapshotted component's state declaration is walked by.
 *
 * Writer appends fixed-width little-endian fields to a growable byte
 * buffer; Reader consumes them with bounds checking. Serialization is
 * *canonical*: a given logical state always produces the same bytes,
 * so byte-equality of two images is state-equality — the property the
 * snapshot round-trip invariant (save → restore → save is the
 * identity on images) and the lockstep digest comparison both rest
 * on. A CRC-32 over every section makes torn or corrupted images
 * detectable before any state is overwritten.
 *
 * Each component lists its state once, in image order:
 *
 *     template <class V> void fields(V &v)
 *     {
 *         v(epoch_, cursor_, snapshot::as<uint8_t>(mode_));
 *         v.counter("sweeps", sweeps);        // image + StatGroup
 *         v.stat("lookups", lookups);         // StatGroup only
 *     }
 *
 * Writer saves the fields, Reader restores them, and StatRegistrar
 * registers the named counters with the component's StatGroup, so the
 * image layout, the restore and the stats names cannot drift apart.
 */

#ifndef CHERIOT_SNAPSHOT_SERIALIZER_H
#define CHERIOT_SNAPSHOT_SERIALIZER_H

#include "cap/capability.h"
#include "util/stats.h"

#include <array>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <iterator>
#include <map>
#include <set>
#include <string>
#include <type_traits>
#include <vector>

namespace cheriot::snapshot
{

/** CRC-32 (IEEE, reflected) over @p size bytes. */
uint32_t crc32(const uint8_t *data, size_t size, uint32_t seed = 0);

class Writer;

/** @name Field adaptors for fields() declarations @{ */

/** @p field stored in the image as a U: enums, and integers whose
 * image width differs from their in-memory type. */
template <class U, class T>
struct As
{
    T &field;
};

template <class U, class T>
As<U, T>
as(T &field)
{
    return {field};
}

/** A sequence whose length is set by the configuration rather than by
 * the image: no length prefix, and a restore fills the elements that
 * already exist. */
template <class C>
struct Fixed
{
    C &seq;
};

template <class C>
Fixed<C>
fixed(C &seq)
{
    return {seq};
}
/** @} */

namespace detail
{

template <class T> struct IsAs : std::false_type {};
template <class U, class T> struct IsAs<As<U, T>> : std::true_type
{
    using Wire = U;
    using Field = T;
};

template <class T> struct IsFixed : std::false_type {};
template <class C> struct IsFixed<Fixed<C>> : std::true_type {};

template <class T> struct IsStdArray : std::false_type {};
template <class T, size_t N>
struct IsStdArray<std::array<T, N>> : std::true_type {};

/** Length-prefixed sequences. */
template <class T> struct IsSequence : std::false_type {};
template <class T, class A>
struct IsSequence<std::vector<T, A>> : std::true_type {};
template <class T, class A>
struct IsSequence<std::deque<T, A>> : std::true_type {};

template <class T> struct IsSet : std::false_type {};
template <class K, class C, class A>
struct IsSet<std::set<K, C, A>> : std::true_type {};

template <class T> struct IsMap : std::false_type {};
template <class K, class V, class C, class A>
struct IsMap<std::map<K, V, C, A>> : std::true_type {};

/** A component or struct with a fields() declaration. */
template <class T>
concept Record = requires(T &t, Writer &w) { t.fields(w); };

/** Fewest image bytes one T can occupy: the length-prefix rule
 * divides what is left of a section by it. */
template <class T>
constexpr size_t
minWireBytes()
{
    if constexpr (std::is_same_v<T, bool>) {
        return 1;
    } else if constexpr (std::is_integral_v<T>) {
        return sizeof(T);
    } else if constexpr (std::is_same_v<T, cap::Capability>) {
        return 9;
    } else if constexpr (std::is_same_v<T, Counter>) {
        return 8;
    } else if constexpr (IsAs<T>::value) {
        return sizeof(typename IsAs<T>::Wire);
    } else if constexpr (std::is_same_v<T, std::string> ||
                         IsSequence<T>::value || IsSet<T>::value ||
                         IsMap<T>::value) {
        return 4;
    } else {
        return 1;
    }
}

template <class C>
using ElementOf =
    std::remove_cvref_t<decltype(*std::begin(std::declval<C &>()))>;

/** Contiguous byte sequences move as one block. */
template <class C>
constexpr bool kIsByteBlock =
    std::is_same_v<ElementOf<C>, uint8_t> &&
    requires(C &c) { std::data(c); };

} // namespace detail

class Writer
{
  public:
    static constexpr bool kRestoring = false;

    void u8(uint8_t value) { buffer_.push_back(value); }
    void u16(uint16_t value);
    void u32(uint32_t value);
    void u64(uint64_t value);
    void b(bool value) { u8(value ? 1 : 0); }
    void bytes(const uint8_t *data, size_t size);
    void str(const std::string &value);

    /** A capability: packed 64-bit image plus the out-of-band tag.
     * toBits()/fromBits() are exact inverses, so this is lossless. */
    void cap(const cap::Capability &value)
    {
        u64(value.toBits());
        b(value.tag());
    }

    /** @name Field visitor @{ */
    template <class... T>
    void operator()(const T &...fields)
    {
        (put(fields), ...);
    }
    /** A counter that is image state and a named stat. */
    void counter(const char *, const Counter &value) { u64(value.value()); }
    /** A measurement-only counter: a named stat, not in the image. */
    void stat(const char *, const Counter &) {}
    /** A value the restoring side must already hold (configuration,
     * geometry, boot-time structure). */
    template <class T>
    void expect(const T &value)
    {
        put(value);
    }
    /** A restore-time validity condition. */
    void require(bool) {}
    /** A sub-component that may be absent: a presence flag, then its
     * fields. A restore requires the same presence on both sides. */
    template <class T>
    void optional(const T *part)
    {
        b(part != nullptr);
        if (part != nullptr) {
            put(*part);
        }
    }
    /** @} */

    const std::vector<uint8_t> &buffer() const { return buffer_; }
    std::vector<uint8_t> take() { return std::move(buffer_); }
    size_t size() const { return buffer_.size(); }

  private:
    template <class T>
    void put(const T &value);
    template <class C>
    void putElements(const C &seq);

    std::vector<uint8_t> buffer_;
};

/**
 * Bounds-checked reader over a byte span. Overruns latch the error
 * flag and yield zeros rather than touching out-of-range memory, so
 * restore paths can run to completion and check ok() once. Once the
 * flag is latched the field visitor leaves every further field as it
 * was.
 */
class Reader
{
  public:
    static constexpr bool kRestoring = true;

    Reader(const uint8_t *data, size_t size) : data_(data), size_(size) {}

    uint8_t u8();
    uint16_t u16();
    uint32_t u32();
    uint64_t u64();
    bool b() { return u8() != 0; }
    void bytes(uint8_t *out, size_t size);
    void skip(size_t size);
    std::string str();

    cap::Capability cap()
    {
        const uint64_t bits = u64();
        const bool tag = b();
        return cap::Capability::fromBits(bits, tag);
    }

    /**
     * Read a length prefix counting elements of at least @p minBytes
     * image bytes each. This is the one rule for every count in an
     * image: a count that cannot fit in what is left of the section
     * fails the restore (and yields 0) before anything is allocated.
     */
    uint32_t count(size_t minBytes);

    /** @name Field visitor (see Writer) @{ */
    template <class... T>
    void operator()(T &&...fields)
    {
        (get(fields), ...);
    }
    void counter(const char *, Counter &value) { get(value); }
    void stat(const char *, Counter &) {}
    template <class T>
    void expect(const T &value)
    {
        T seen{};
        get(seen);
        require(seen == value);
    }
    void require(bool condition)
    {
        if (!condition) {
            ok_ = false;
        }
    }
    template <class T>
    void optional(T *part)
    {
        require(b() == (part != nullptr));
        if (part != nullptr) {
            get(*part);
        }
    }
    /** @} */

    /** False once any read has run past the end of the span. */
    bool ok() const { return ok_; }
    /** True when every byte has been consumed (and no overrun). */
    bool exhausted() const { return ok_ && offset_ == size_; }
    size_t remaining() const { return size_ - offset_; }

  private:
    bool take(size_t count);
    template <class T>
    void get(T &value);
    template <class C>
    void getElements(C &seq);

    const uint8_t *data_;
    size_t size_;
    size_t offset_ = 0;
    bool ok_ = true;
};

/**
 * Registers a component's named counters with its StatGroup. Unnamed
 * fields register nothing, and neither do nested components: each
 * registers its own group.
 */
class StatRegistrar
{
  public:
    static constexpr bool kRestoring = false;

    explicit StatRegistrar(StatGroup &group) : group_(group) {}

    template <class... T>
    void operator()(const T &...)
    {
    }
    void counter(const char *name, Counter &value)
    {
        group_.registerCounter(name, value);
    }
    void stat(const char *name, Counter &value)
    {
        group_.registerCounter(name, value);
    }
    template <class T>
    void expect(const T &)
    {
    }
    void require(bool) {}
    template <class T>
    void optional(T *)
    {
    }

  private:
    StatGroup &group_;
};

/** Register the counters @p fields names (a component, or a callable
 * taking the visitor) with @p group. */
template <class T>
void
registerStats(StatGroup &group, T &&fields)
{
    StatRegistrar registrar(group);
    if constexpr (detail::Record<std::remove_cvref_t<T>>) {
        fields.fields(registrar);
    } else {
        fields(registrar);
    }
}

/** serialize()/deserialize() over Derived::fields(), for components
 * saved or restored on their own (a whole section, or a test). */
template <class Derived>
class Serializable
{
  public:
    void serialize(Writer &w) const { w(static_cast<const Derived &>(*this)); }
    bool deserialize(Reader &r)
    {
        r(static_cast<Derived &>(*this));
        return r.ok();
    }
};

// --- Visitor dispatch ------------------------------------------------

template <class T>
void
Writer::put(const T &value)
{
    static_assert(!std::is_enum_v<T>,
                  "give enum fields an image width with snapshot::as<U>()");
    if constexpr (std::is_same_v<T, bool>) {
        b(value);
    } else if constexpr (std::is_integral_v<T>) {
        using U = std::make_unsigned_t<T>;
        const U bits = static_cast<U>(value);
        if constexpr (sizeof(T) == 1) {
            u8(bits);
        } else if constexpr (sizeof(T) == 2) {
            u16(bits);
        } else if constexpr (sizeof(T) == 4) {
            u32(bits);
        } else {
            u64(bits);
        }
    } else if constexpr (std::is_same_v<T, cap::Capability>) {
        cap(value);
    } else if constexpr (std::is_same_v<T, Counter>) {
        u64(value.value());
    } else if constexpr (std::is_same_v<T, std::string>) {
        str(value);
    } else if constexpr (detail::IsAs<T>::value) {
        put(static_cast<typename detail::IsAs<T>::Wire>(value.field));
    } else if constexpr (detail::IsFixed<T>::value) {
        putElements(value.seq);
    } else if constexpr (std::is_array_v<T> || detail::IsStdArray<T>::value) {
        putElements(value);
    } else if constexpr (detail::IsSequence<T>::value ||
                         detail::IsSet<T>::value) {
        u32(static_cast<uint32_t>(value.size()));
        putElements(value);
    } else if constexpr (detail::IsMap<T>::value) {
        u32(static_cast<uint32_t>(value.size()));
        for (const auto &[key, mapped] : value) {
            put(key);
            put(mapped);
        }
    } else if constexpr (detail::Record<T>) {
        // Visiting never mutates; fields() is non-const only so the
        // Reader can share it.
        const_cast<T &>(value).fields(*this);
    } else {
        value(*this); // A field group: a callable taking the visitor.
    }
}

template <class C>
void
Writer::putElements(const C &seq)
{
    if constexpr (detail::kIsByteBlock<const C>) {
        bytes(std::data(seq), std::size(seq));
    } else {
        for (const auto &element : seq) {
            put(element);
        }
    }
}

template <class T>
void
Reader::get(T &value)
{
    using D = std::remove_cv_t<T>;
    static_assert(!std::is_enum_v<D>,
                  "give enum fields an image width with snapshot::as<U>()");
    if (!ok_) {
        return;
    }
    if constexpr (std::is_same_v<D, bool>) {
        value = b();
    } else if constexpr (std::is_integral_v<D>) {
        if constexpr (sizeof(D) == 1) {
            value = static_cast<D>(u8());
        } else if constexpr (sizeof(D) == 2) {
            value = static_cast<D>(u16());
        } else if constexpr (sizeof(D) == 4) {
            value = static_cast<D>(u32());
        } else {
            value = static_cast<D>(u64());
        }
    } else if constexpr (std::is_same_v<D, cap::Capability>) {
        value = cap();
    } else if constexpr (std::is_same_v<D, Counter>) {
        value.set(u64());
    } else if constexpr (std::is_same_v<D, std::string>) {
        value = str();
    } else if constexpr (detail::IsAs<D>::value) {
        typename detail::IsAs<D>::Wire wire{};
        get(wire);
        if (ok_) {
            value.field = static_cast<typename detail::IsAs<D>::Field>(wire);
        }
    } else if constexpr (detail::IsFixed<D>::value) {
        getElements(value.seq);
    } else if constexpr (std::is_array_v<D> || detail::IsStdArray<D>::value) {
        getElements(value);
    } else if constexpr (detail::IsSequence<D>::value) {
        const uint32_t n =
            count(detail::minWireBytes<typename D::value_type>());
        value.clear();
        if constexpr (detail::kIsByteBlock<D>) {
            value.resize(n);
            bytes(value.data(), n);
        } else {
            for (uint32_t i = 0; i < n && ok_; ++i) {
                get(value.emplace_back());
            }
        }
    } else if constexpr (detail::IsSet<D>::value) {
        const uint32_t n = count(detail::minWireBytes<typename D::key_type>());
        value.clear();
        for (uint32_t i = 0; i < n && ok_; ++i) {
            typename D::key_type key{};
            get(key);
            value.insert(key);
        }
    } else if constexpr (detail::IsMap<D>::value) {
        const uint32_t n =
            count(detail::minWireBytes<typename D::key_type>() +
                  detail::minWireBytes<typename D::mapped_type>());
        value.clear();
        for (uint32_t i = 0; i < n && ok_; ++i) {
            typename D::key_type key{};
            typename D::mapped_type mapped{};
            get(key);
            get(mapped);
            value.insert_or_assign(key, std::move(mapped));
        }
    } else if constexpr (detail::Record<D>) {
        value.fields(*this);
    } else {
        value(*this); // A field group: a callable taking the visitor.
    }
}

template <class C>
void
Reader::getElements(C &seq)
{
    if constexpr (detail::kIsByteBlock<C>) {
        bytes(std::data(seq), std::size(seq));
    } else {
        for (auto &element : seq) {
            get(element);
        }
    }
}

} // namespace cheriot::snapshot

#endif // CHERIOT_SNAPSHOT_SERIALIZER_H
