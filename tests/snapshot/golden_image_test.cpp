/**
 * @file
 * Golden image gate: the CRC-32 of every snapshot section and the full
 * SimStats map (names and values) of a set of small deterministic runs,
 * compared with tests/snapshot/golden_image.txt.
 *
 * A change to the snapshot or stats plumbing (layout refactors, host
 * performance work) must leave every entry identical. A deliberate
 * behaviour change updates the file and says why in CHANGES.md. A
 * failure names each section or counter that moved, printed as the
 * golden line it would need ("<run> <key> <value>").
 */

#include "debug/stats.h"
#include "fault/fault_injector.h"
#include "net/net_stack.h"
#include "net/nic_device.h"
#include "rtos/kernel.h"
#include "rtos/object_cap.h"
#include "sim/machine.h"
#include "snapshot/snapshot.h"
#include "util/rng.h"
#include "workloads/coremark/coremark.h"
#include "workloads/iot/iot_app.h"

#include <gtest/gtest.h>

#include <cinttypes>
#include <fstream>
#include <map>
#include <sstream>
#include <string>

namespace cheriot::snapshot
{
namespace
{

using cap::Capability;
using Observed = std::map<std::string, uint64_t>;

/** Golden entries of @p run, read from the data file. */
Observed
goldenFor(const std::string &run)
{
    Observed golden;
    std::ifstream in(CHERIOT_GOLDEN_IMAGE_FILE);
    std::string line;
    while (std::getline(in, line)) {
        std::istringstream fields(line);
        std::string name, key;
        uint64_t value = 0;
        if (line.empty() || line[0] == '#' ||
            !(fields >> name >> key >> value)) {
            continue;
        }
        if (name == run) {
            golden[key] = value;
        }
    }
    return golden;
}

/** Compare @p observed against the golden entries of @p run, one
 * failure per key that moved, appeared or disappeared. */
void
expectGolden(const std::string &run, const Observed &observed)
{
    const Observed golden = goldenFor(run);
    for (const auto &[key, value] : observed) {
        const auto it = golden.find(key);
        if (it == golden.end()) {
            ADD_FAILURE() << "new entry: " << run << " " << key << " "
                          << value;
        } else if (it->second != value) {
            ADD_FAILURE() << "moved: " << run << " " << key << " "
                          << value << " (golden " << it->second << ")";
        }
    }
    for (const auto &[key, value] : golden) {
        if (observed.count(key) == 0) {
            ADD_FAILURE() << "missing: " << run << " " << key
                          << " (golden " << value << ")";
        }
    }
}

/** CRC-32 of every section of @p image, as "<prefix><name>" keys. */
void
addSections(Observed &out, const std::string &prefix,
            const SnapshotImage &image)
{
    const SnapshotReader reader(image);
    ASSERT_TRUE(reader.valid()) << reader.error();
    for (const std::string &name : reader.sectionNames()) {
        Reader r = reader.section(name);
        std::vector<uint8_t> payload(r.remaining());
        r.bytes(payload.data(), payload.size());
        out[prefix + name] = crc32(payload.data(), payload.size());
    }
}

void
addStats(Observed &out, const debug::SimStats &stats)
{
    for (const auto &[name, value] : stats.snapshot()) {
        out["stat." + name] = value;
    }
}

/** The machine image plus the kernel's section, as a checkpoint lays
 * them out. */
SnapshotImage
systemImage(const sim::Machine &machine, const rtos::Kernel &kernel)
{
    SnapshotWriter out;
    machine.save(out);
    kernel.serialize(out.beginSection("kernel"));
    return out.finish();
}

// --- CoreMark: the six Table 3 configurations --------------------------

void
coreMarkGolden(sim::CoreConfig core, bool cheri, bool filter,
               const std::string &run)
{
    workloads::CoreMarkConfig config;
    config.iterations = 2;
    config.core = core;
    config.core.cheriEnabled = cheri;
    config.core.loadFilterEnabled = filter;

    sim::MachineConfig mc;
    mc.core = config.core;
    mc.sramSize = 256u << 10;
    mc.heapOffset = 192u << 10;
    mc.heapSize = 32u << 10;
    sim::Machine machine(mc);
    workloads::CoreMarkBuilder builder(config);
    machine.loadProgram(builder.build(), builder.entry());
    machine.resetCpu(builder.entry());
    while (!machine.halted()) {
        machine.run(1'000'000);
    }
    ASSERT_EQ(machine.haltReason(), sim::HaltReason::ConsoleExit);

    Observed observed;
    addSections(observed, "section.", machine.saveImage());
    addStats(observed, machine.simStats());
    expectGolden(run, observed);
}

TEST(GoldenImage, CoreMarkIbex)
{
    const sim::CoreConfig core = sim::CoreConfig::ibex();
    coreMarkGolden(core, false, false, "coremark/ibex/rv32e");
    coreMarkGolden(core, true, false, "coremark/ibex/caps");
    coreMarkGolden(core, true, true, "coremark/ibex/caps+filter");
}

TEST(GoldenImage, CoreMarkFlute)
{
    const sim::CoreConfig core = sim::CoreConfig::flute();
    coreMarkGolden(core, false, false, "coremark/flute/rv32e");
    coreMarkGolden(core, true, false, "coremark/flute/caps");
    coreMarkGolden(core, true, true, "coremark/flute/caps+filter");
}

// --- IoT app (plain, and with one campaign-style injection) ------------

/**
 * Run @p config, pinning the full system image at the start of the
 * measured window ("pre." keys) and, at the last debug poll, the
 * machine + kernel image and the SimStats map.
 */
void
iotGolden(workloads::IotAppConfig config, const std::string &run)
{
    SnapshotImage pre;
    config.preRunSnapshotOut = &pre;
    const uint64_t horizon =
        static_cast<uint64_t>(config.simSeconds * config.clockHz);
    uint64_t windowStart = 0;
    bool started = false;
    Observed observed;
    config.debugPoll = [&](sim::Machine &machine, rtos::Kernel &kernel) {
        if (!started) {
            started = true;
            windowStart = machine.cycles();
        }
        if (machine.cycles() - windowStart >= horizon) {
            observed.clear();
            addSections(observed, "section.",
                        systemImage(machine, kernel));
            addStats(observed, machine.simStats());
        }
    };
    const workloads::IotAppResult result = workloads::runIotApp(config);
    ASSERT_FALSE(observed.empty()) << "no poll at the end of the window";
    addSections(observed, "pre.section.", pre);
    observed["result.packets"] = result.packetsProcessed;
    observed["result.finalDigest"] = result.finalDigest;
    expectGolden(run, observed);
}

TEST(GoldenImage, IotApp)
{
    workloads::IotAppConfig config;
    config.simSeconds = 1.5;
    config.packetsPerSec = 200;
    iotGolden(config, "iot");
}

TEST(GoldenImage, FaultCampaignInjection)
{
    // The campaign's IoT configuration with one planned injection.
    fault::FaultInjector injector(0x60d1e5);
    workloads::IotAppConfig config;
    config.simSeconds = 0.25;
    config.packetsPerSec = 50;
    config.injector = &injector;
    config.installErrorHandlers = true;
    config.watchdogFaultBudget = 4;
    config.watchdogRestartDelayCycles = 2048;
    injector.arm(injector.planNext(
        static_cast<uint64_t>(config.simSeconds * config.clockHz),
        mem::kSramBase, 160u << 10));
    iotGolden(config, "fault_iot");
    EXPECT_TRUE(injector.fired());
}

// --- Net RX: NIC -> net_driver -> firewall -> app ----------------------

void
netRxGolden(sim::CoreConfig core, const std::string &run)
{
    sim::MachineConfig mc;
    mc.core = core;
    mc.sramSize = 320u << 10;
    mc.heapOffset = 64u << 10;
    mc.heapSize = 256u << 10;
    sim::Machine machine(mc);
    rtos::Kernel kernel(machine);
    kernel.initHeap(alloc::TemporalMode::HardwareRevocation);
    net::NicDevice nic(machine.memory().sram());
    machine.memory().mmio().map(mem::kNicMmioBase, mem::kNicMmioSize, &nic);
    net::NetCompartments parts = net::addNetCompartments(kernel);
    rtos::Compartment &app = kernel.createCompartment("app");
    rtos::Thread &thread = kernel.createThread("net", 2, 4096);
    ASSERT_TRUE(kernel.finalizeBoot());
    kernel.activate(thread);
    const uint32_t handle = app.addExport(
        {"handle",
         [](rtos::CompartmentContext &ctx, rtos::ArgVec &args) {
             const Capability payload = args[0];
             return rtos::CallResult::ofInt(
                 ctx.mem.loadWord(payload, payload.base()) | 1u);
         },
         false});
    net::NetStackConfig cfg;
    cfg.rxRingEntries = 16;
    cfg.txRingEntries = 8;
    cfg.bufBytes = 256;
    cfg.ackEveryN = 64;
    net::NetStack stack(kernel, nic, parts, cfg);
    stack.connect({{kernel.importOf(app, handle), /*mutates=*/false}});
    stack.start(thread);

    Rng rng(0x6e6574);
    uint32_t seq = 0;
    while (seq < 200) {
        const std::vector<uint8_t> frame =
            net::buildFrame(seq, rng.range(64, 191));
        if (nic.deliver(frame.data(),
                        static_cast<uint32_t>(frame.size()))) {
            ++seq;
            if ((seq & 7u) != 0) {
                continue;
            }
        }
        stack.pump(thread);
    }
    stack.pump(thread);
    kernel.allocator().synchronise();

    SnapshotWriter out;
    machine.save(out);
    kernel.serialize(out.beginSection("kernel"));
    nic.serialize(out.beginSection("nic"));
    stack.serialize(out.beginSection("stack"));
    Observed observed;
    addSections(observed, "section.", out.finish());
    addStats(observed, machine.simStats());
    observed["result.packets"] = stack.packetsAccepted();
    expectGolden(run, observed);
}

TEST(GoldenImage, NetRxIbex)
{
    netRxGolden(sim::CoreConfig::ibex(), "net_rx/ibex");
}

TEST(GoldenImage, NetRxFlute)
{
    netRxGolden(sim::CoreConfig::flute(), "net_rx/flute");
}

// --- Object-capability revocation storm -------------------------------

TEST(GoldenImage, ObjectCapStorm)
{
    sim::MachineConfig mc;
    mc.core = sim::CoreConfig::ibex();
    mc.sramSize = 192u << 10;
    mc.heapOffset = 128u << 10;
    mc.heapSize = 64u << 10;
    sim::Machine machine(mc);
    rtos::Kernel kernel(machine);
    kernel.initHeap(alloc::TemporalMode::SoftwareRevocation);
    kernel.activate(kernel.createThread("main", 1, 4096));
    rtos::Compartment &app = kernel.createCompartment("app");
    kernel.createCompartment("peer");
    rtos::ObjectCapTable &caps = kernel.objectCaps();

    Rng rng(0x5707);
    std::vector<Capability> tokens{kernel.mintTimeCap(app, 0, 1ull << 40)};
    for (int op = 0; op < 600; ++op) {
        if (op % 40 == 0) {
            tokens.push_back(kernel.mintTimeCap(app, 0, 1ull << 40));
        }
        const Capability pick =
            tokens[rng.below(static_cast<uint32_t>(tokens.size()))];
        switch (rng.below(6)) {
          case 0:
          case 1:
          case 2: {
            const uint32_t id = caps.idOf(pick);
            uint64_t begin = 0, mark = 0, end = 0;
            if (id != rtos::ObjectCapTable::kNoParent) {
                caps.timeBoundsAt(id, &begin, &mark, &end);
            }
            if (mark + 2 < end) {
                const Capability kid =
                    caps.deriveTime(pick, mark, mark + 1 + rng.below(4096));
                if (kid.tag()) {
                    tokens.push_back(kid);
                }
            }
            break;
          }
          case 3:
            caps.transfer(pick, rng.below(2));
            break;
          case 4:
            caps.revoke(pick);
            break;
          default:
            caps.scheduleRevoke(pick,
                                machine.cycles() + 1000 + rng.below(30'000));
            caps.checkTime(pick, 0);
            machine.idle(500 + rng.below(2000));
            break;
        }
    }
    caps.reclaim();

    Observed observed;
    addSections(observed, "section.", systemImage(machine, kernel));
    addStats(observed, machine.simStats());
    observed["result.entries"] = caps.size();
    expectGolden("ocap_storm", observed);
}

} // namespace
} // namespace cheriot::snapshot
