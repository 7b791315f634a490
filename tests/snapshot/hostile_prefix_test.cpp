/**
 * @file
 * Hostile length prefixes: restores of crafted sections whose CRCs are
 * valid but whose counts claim more elements than the section holds.
 *
 * Every length prefix in the state of the object-capability table, the
 * kernel, the net stack (peer map, ARQ queues), the flow manager, the
 * telemetry broker (subscriber queues) and the MicroVM (live object
 * capabilities) is patched in turn, to 0xFFFFFFFF and to one more
 * element than the rest of the section could hold. Each restore must
 * return false without throwing and without an allocation sized by the
 * count; the unpatched section must still restore.
 *
 * This binary replaces the global allocation functions to record the
 * largest single request made during a restore, so it is built on its
 * own.
 */

#include "rtos/kernel.h"
#include "rtos/object_cap.h"
#include "sim/fleet.h"
#include "sim/machine.h"
#include "snapshot/snapshot.h"
#include "workloads/iot/microvm.h"

#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <new>

namespace
{

std::atomic<bool> gTracking{false};
std::atomic<size_t> gLargestRequest{0};

void *
allocate(size_t size)
{
    if (gTracking.load(std::memory_order_relaxed)) {
        size_t seen = gLargestRequest.load(std::memory_order_relaxed);
        while (size > seen &&
               !gLargestRequest.compare_exchange_weak(seen, size)) {
        }
    }
    if (void *p = std::malloc(size == 0 ? 1 : size)) {
        return p;
    }
    throw std::bad_alloc();
}

} // namespace

void *operator new(size_t size) { return allocate(size); }
void *operator new[](size_t size) { return allocate(size); }
void operator delete(void *p) noexcept { std::free(p); }
void operator delete[](void *p) noexcept { std::free(p); }
void operator delete(void *p, size_t) noexcept { std::free(p); }
void operator delete[](void *p, size_t) noexcept { std::free(p); }

namespace cheriot::snapshot
{
namespace
{

using cap::Capability;

/**
 * A Writer twin that also records the offset of every length prefix
 * (strings, sequences, sets and maps) in visit order. Its bytes must
 * equal the Writer's, which keeps the twin honest.
 */
class PrefixProbe
{
  public:
    static constexpr bool kRestoring = false;

    template <class... T>
    void operator()(const T &...fields)
    {
        (visit(fields), ...);
    }
    void counter(const char *name, const Counter &value)
    {
        out_.counter(name, value);
    }
    void stat(const char *, const Counter &) {}
    template <class T>
    void expect(const T &value)
    {
        visit(value);
    }
    void require(bool) {}
    template <class T>
    void optional(const T *part)
    {
        out_.b(part != nullptr);
        if (part != nullptr) {
            visit(*part);
        }
    }

    const std::vector<uint8_t> &bytes() const { return out_.buffer(); }
    const std::vector<size_t> &prefixes() const { return prefixes_; }

  private:
    template <class T>
    void visit(const T &value)
    {
        using namespace snapshot::detail;
        if constexpr (std::is_same_v<T, std::string>) {
            prefixes_.push_back(out_.size());
            out_(value);
        } else if constexpr (IsSequence<T>::value || IsSet<T>::value) {
            prefixes_.push_back(out_.size());
            out_.u32(static_cast<uint32_t>(value.size()));
            for (const auto &element : value) {
                visit(element);
            }
        } else if constexpr (IsMap<T>::value) {
            prefixes_.push_back(out_.size());
            out_.u32(static_cast<uint32_t>(value.size()));
            for (const auto &[key, mapped] : value) {
                visit(key);
                visit(mapped);
            }
        } else if constexpr (IsFixed<T>::value) {
            for (const auto &element : value.seq) {
                visit(element);
            }
        } else if constexpr (std::is_array_v<T> || IsStdArray<T>::value) {
            for (const auto &element : value) {
                visit(element);
            }
        } else if constexpr (Record<T>) {
            const_cast<T &>(value).fields(*this);
        } else if constexpr (std::is_invocable_v<const T &, PrefixProbe &>) {
            value(*this);
        } else {
            out_(value);
        }
    }

    Writer out_;
    std::vector<size_t> prefixes_;
};

SnapshotImage
imageWith(const std::vector<uint8_t> &payload)
{
    SnapshotWriter out;
    out.beginSection("part").bytes(payload.data(), payload.size());
    return out.finish();
}

void
patch(std::vector<uint8_t> &bytes, size_t at, uint32_t value)
{
    for (int i = 0; i < 4; ++i) {
        bytes[at + i] = static_cast<uint8_t>(value >> (8 * i));
    }
}

/**
 * Patch every length prefix of @p part's image, restore, and expect a
 * clean refusal; then restore the unpatched image. Returns the number
 * of prefixes checked.
 */
template <class T>
size_t
expectEveryPrefixGuarded(T &part, const char *what)
{
    PrefixProbe probe;
    probe(part);
    Writer writer;
    writer(part);
    EXPECT_EQ(probe.bytes(), writer.buffer()) << what;
    const std::vector<uint8_t> &clean = writer.buffer();

    for (const size_t at : probe.prefixes()) {
        const uint32_t pastEnd =
            static_cast<uint32_t>(clean.size() - (at + 4) + 1);
        for (const uint32_t count : {0xffffffffu, pastEnd}) {
            std::vector<uint8_t> bytes = clean;
            patch(bytes, at, count);
            const SnapshotImage image = imageWith(bytes);
            const SnapshotReader in(image);
            EXPECT_TRUE(in.valid()) << in.error();
            bool restored = true;
            gLargestRequest = 0;
            gTracking = true;
            EXPECT_NO_THROW(restored = in.restoreSection("part", part))
                << what << ": prefix at byte " << at;
            gTracking = false;
            EXPECT_FALSE(restored)
                << what << ": count " << count << " at byte " << at;
            EXPECT_LE(gLargestRequest.load(), 4 * clean.size() + 4096)
                << what << ": count " << count << " at byte " << at;
        }
    }

    const SnapshotImage image = imageWith(clean);
    EXPECT_TRUE(SnapshotReader(image).restoreSection("part", part)) << what;
    Writer again;
    again(part);
    EXPECT_EQ(again.buffer(), clean) << what;
    return probe.prefixes().size();
}

TEST(HostilePrefix, ObjectCapTableAndKernel)
{
    sim::MachineConfig mc;
    mc.sramSize = 192u << 10;
    mc.heapOffset = 128u << 10;
    mc.heapSize = 64u << 10;
    sim::Machine machine(mc);
    rtos::Kernel kernel(machine);
    kernel.initHeap(alloc::TemporalMode::SoftwareRevocation);
    kernel.activate(kernel.createThread("main", 1, 4096));
    rtos::Compartment &app = kernel.createCompartment("app");
    rtos::ObjectCapTable &caps = kernel.objectCaps();
    const Capability root = kernel.mintTimeCap(app, 0, 1u << 20);
    const Capability kid = caps.deriveTime(root, 0, 100);
    caps.deriveTime(kid, 0, 10);
    caps.scheduleRevoke(kid, machine.cycles() + 1000);

    // The entry count leads the table's image, right after the key.
    EXPECT_GE(expectEveryPrefixGuarded(caps, "object-cap table"), 5u);
    EXPECT_GE(expectEveryPrefixGuarded(kernel, "kernel"), 10u);
}

TEST(HostilePrefix, NetStackFlowsAndBroker)
{
    sim::FleetConfig fc;
    fc.nodes = 3;
    fc.seed = 0x40571e;
    fc.threads = 1;
    fc.appTier = true;
    sim::Fleet fleet(fc);
    sim::FleetTraffic traffic;
    traffic.sendPermille = 900;
    // Run until some node holds live ARQ queues and a non-empty
    // broker queue, so their length prefixes are in the image.
    sim::FleetNode *busy = nullptr;
    for (int round = 0; round < 64 && busy == nullptr; ++round) {
        fleet.run(1, traffic);
        for (uint32_t id = 0; id < fleet.size(); ++id) {
            sim::FleetNode &node = fleet.node(id);
            if (!node.stack().arqIdle() &&
                node.broker()->queueDepth(node.brokerSubscriber()) > 0) {
                busy = &node;
                break;
            }
        }
    }
    ASSERT_NE(busy, nullptr) << "no node with live ARQ and broker queues";
    sim::FleetNode &node = *busy;
    EXPECT_GE(expectEveryPrefixGuarded(node.stack(), "net stack"), 5u);
    EXPECT_GE(expectEveryPrefixGuarded(*node.flowManager(), "flows"), 4u);
    EXPECT_GE(expectEveryPrefixGuarded(*node.broker(), "broker"), 2u);
}

TEST(HostilePrefix, MicroVm)
{
    workloads::MicroVm vm(workloads::MicroVm::ledAnimationProgram());
    EXPECT_EQ(expectEveryPrefixGuarded(vm, "microvm"), 1u);
}

TEST(HostilePrefix, CountRuleRejectsBeforeReading)
{
    Writer w;
    w.u32(3); // Three 9-byte capabilities claimed...
    w.cap(Capability());
    w.cap(Capability()); // ...but only 18 bytes follow.
    Reader r(w.buffer().data(), w.size());
    EXPECT_EQ(r.count(9), 0u);
    EXPECT_FALSE(r.ok());
    EXPECT_EQ(r.remaining(), 18u) << "nothing read past the prefix";
}

} // namespace
} // namespace cheriot::snapshot
