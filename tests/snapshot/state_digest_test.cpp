/**
 * @file
 * Machine::stateDigest() streams each section through a digesting
 * Writer and folds the section CRCs into the image CRC without
 * building an image. These tests hold it to saveImage().digest() —
 * itself checked against a plain CRC over the image bytes — on fresh,
 * running, halted, restored, injected and kernel-booted machines.
 */

#include "fault/fault_injector.h"
#include "sim/machine.h"
#include "snapshot/snapshot.h"
#include "workloads/coremark/coremark.h"
#include "workloads/iot/iot_app.h"

#include <gtest/gtest.h>

#include <memory>
#include <string>

namespace cheriot::snapshot
{
namespace
{

/** stateDigest() equals the image digest, and the image digest is the
 * CRC of every image byte before the trailer. */
void
expectDigestMatchesImage(const sim::Machine &machine,
                         const std::string &what)
{
    const SnapshotImage image = machine.saveImage();
    ASSERT_GE(image.data.size(), 4u) << what;
    EXPECT_EQ(image.digest(), crc32(image.data.data(), image.data.size() - 4))
        << what;
    EXPECT_EQ(machine.stateDigest(), image.digest()) << what;
}

sim::MachineConfig
coreMarkMachineConfig(uint32_t sramSize)
{
    sim::MachineConfig mc;
    mc.sramSize = sramSize;
    mc.heapOffset = sramSize - (32u << 10);
    mc.heapSize = 32u << 10;
    return mc;
}

/** A CoreMark machine loaded and reset, ready to run. */
struct CoreMarkRig
{
    explicit CoreMarkRig(uint32_t sramSize,
                         fault::FaultInjector *injector = nullptr)
    {
        workloads::CoreMarkConfig config;
        config.iterations = 2;
        sim::MachineConfig mc = coreMarkMachineConfig(sramSize);
        mc.core = config.core;
        mc.injector = injector;
        machine = std::make_unique<sim::Machine>(mc);
        workloads::CoreMarkBuilder builder(config);
        machine->loadProgram(builder.build(), builder.entry());
        machine->resetCpu(builder.entry());
    }

    std::unique_ptr<sim::Machine> machine;
};

TEST(StateDigest, FreshMachine)
{
    for (const uint32_t sram : {160u << 10, 256u << 10}) {
        const sim::Machine machine(coreMarkMachineConfig(sram));
        expectDigestMatchesImage(machine,
                                 "fresh " + std::to_string(sram >> 10));
    }
}

TEST(StateDigest, MidRunAndHaltedCoreMark)
{
    for (const uint32_t sram : {160u << 10, 256u << 10}) {
        const std::string size = std::to_string(sram >> 10) + " KiB";
        CoreMarkRig rig(sram);
        sim::Machine &machine = *rig.machine;
        expectDigestMatchesImage(machine, "loaded " + size);
        machine.run(20'000);
        ASSERT_FALSE(machine.halted());
        expectDigestMatchesImage(machine, "mid-run " + size);
        while (!machine.halted()) {
            machine.run(1'000'000);
        }
        ASSERT_EQ(machine.haltReason(), sim::HaltReason::ConsoleExit);
        expectDigestMatchesImage(machine, "halted " + size);
    }
}

TEST(StateDigest, AfterRestoreImage)
{
    CoreMarkRig source(256u << 10);
    source.machine->run(50'000);
    const SnapshotImage image = source.machine->saveImage();

    // Restore over a machine that has already run somewhere else.
    CoreMarkRig target(256u << 10);
    target.machine->run(5'000);
    ASSERT_TRUE(target.machine->restoreImage(image));
    EXPECT_EQ(target.machine->stateDigest(), image.digest());
    expectDigestMatchesImage(*target.machine, "restored");

    target.machine->run(10'000);
    source.machine->run(10'000);
    EXPECT_EQ(target.machine->stateDigest(), source.machine->stateDigest());
    expectDigestMatchesImage(*target.machine, "restored, run on");
}

TEST(StateDigest, InjectorAttached)
{
    fault::FaultInjector injector(0x5eed);
    CoreMarkRig rig(256u << 10, &injector);
    injector.arm(injector.planNext(200'000, mem::kSramBase, 256u << 10));
    sim::Machine &machine = *rig.machine;
    for (int slice = 0; slice < 8 && !machine.halted(); ++slice) {
        machine.run(25'000);
        expectDigestMatchesImage(machine,
                                 "injected slice " + std::to_string(slice));
    }
}

TEST(StateDigest, KernelBootedIotMachine)
{
    fault::FaultInjector injector(0x60d1e5);
    workloads::IotAppConfig config;
    config.simSeconds = 0.25;
    config.packetsPerSec = 50;
    config.injector = &injector;
    config.installErrorHandlers = true;
    injector.arm(injector.planNext(
        static_cast<uint64_t>(config.simSeconds * config.clockHz),
        mem::kSramBase, 160u << 10));
    int polls = 0;
    config.debugPoll = [&](sim::Machine &machine, rtos::Kernel &) {
        if (polls++ % 16 == 0) {
            expectDigestMatchesImage(machine,
                                     "iot poll " + std::to_string(polls));
        }
    };
    workloads::runIotApp(config);
    EXPECT_GT(polls, 16);
}

TEST(StateDigest, DigestingWriterMatchesBufferingWriter)
{
    CoreMarkRig rig(160u << 10);
    rig.machine->run(10'000);
    const mem::TaggedMemory &sram = rig.machine->memory().sram();
    Writer buffered;
    buffered(sram);
    Writer digesting = Writer::digesting();
    digesting(sram);
    EXPECT_EQ(digesting.size(), buffered.size());
    EXPECT_EQ(digesting.crc(), buffered.crc());
    EXPECT_EQ(buffered.crc(),
              crc32(buffered.buffer().data(), buffered.buffer().size()));
    // Only the counters after the last block stay buffered.
    EXPECT_LT(digesting.buffer().size(), 64u);
}

} // namespace
} // namespace cheriot::snapshot
