/**
 * @file
 * The decode cache must never serve a stale instruction: a word that
 * has run (so its decode is cached) and is then rewritten through the
 * debugger back door, a new loadProgram, or a restoreImage must run
 * as its new contents on the next fetch.
 */

#include "isa/assembler.h"
#include "sim/machine.h"
#include "snapshot/snapshot.h"

#include <gtest/gtest.h>

#include <vector>

namespace cheriot::sim
{
namespace
{

using namespace cheriot::isa;

constexpr uint32_t kEntry = mem::kSramBase + 0x1000;

MachineConfig
smallConfig()
{
    MachineConfig config;
    config.sramSize = 256u << 10;
    config.heapOffset = 128u << 10;
    config.heapSize = 64u << 10;
    return config;
}

/** `addi a2, zero, value; ebreak` at kEntry. */
std::vector<uint32_t>
setA2(int32_t value)
{
    Assembler a(kEntry);
    a.addi(A2, Zero, value);
    a.ebreak();
    return a.finish();
}

/** Reset to kEntry, run to EBREAK, and return a2. */
uint32_t
runFromEntry(Machine &machine)
{
    machine.resetCpu(kEntry);
    machine.run(1000);
    EXPECT_EQ(machine.haltReason(), HaltReason::Breakpoint);
    return machine.readRegInt(A2);
}

TEST(DecodeCache, DebugWriteMemInvalidatesACachedInstruction)
{
    Machine machine(smallConfig());
    machine.loadProgram(setA2(1), kEntry);
    ASSERT_EQ(runFromEntry(machine), 1u);
    const uint64_t fills = machine.decodeFills.value();

    // Patch only the first word, byte by byte, little-endian.
    const uint32_t patched = setA2(2)[0];
    const std::vector<uint8_t> bytes = {
        static_cast<uint8_t>(patched), static_cast<uint8_t>(patched >> 8),
        static_cast<uint8_t>(patched >> 16),
        static_cast<uint8_t>(patched >> 24)};
    ASSERT_TRUE(machine.debugWriteMem(kEntry, bytes));
    EXPECT_EQ(runFromEntry(machine), 2u);
    // The patched word was decoded again; the EBREAK was not.
    EXPECT_EQ(machine.decodeFills.value(), fills + 1);
}

TEST(DecodeCache, PartialDebugWriteInvalidatesTheCoveringWord)
{
    Machine machine(smallConfig());
    machine.loadProgram(setA2(1), kEntry);
    ASSERT_EQ(runFromEntry(machine), 1u);

    // The immediate sits in the top 12 bits: rewrite the last byte
    // alone, which leaves a2's new value at 1 + (0x10 << 4) = 0x101.
    std::vector<uint8_t> word;
    ASSERT_TRUE(machine.debugReadMem(kEntry, 4, &word));
    ASSERT_TRUE(machine.debugWriteMem(
        kEntry + 3, {static_cast<uint8_t>(word[3] | 0x10)}));
    EXPECT_EQ(runFromEntry(machine), 0x101u);
}

TEST(DecodeCache, LoadProgramOverARunProgram)
{
    Machine machine(smallConfig());
    machine.loadProgram(setA2(1), kEntry);
    ASSERT_EQ(runFromEntry(machine), 1u);

    machine.loadProgram(setA2(3), kEntry);
    EXPECT_EQ(runFromEntry(machine), 3u);
}

TEST(DecodeCache, RestoreImageOverARunProgram)
{
    // The image holds program 4, reset but not yet run.
    Machine source(smallConfig());
    source.loadProgram(setA2(4), kEntry);
    source.resetCpu(kEntry);
    const snapshot::SnapshotImage image = source.saveImage();

    // A machine that has run program 1 at the same address.
    Machine machine(smallConfig());
    machine.loadProgram(setA2(1), kEntry);
    ASSERT_EQ(runFromEntry(machine), 1u);

    ASSERT_TRUE(machine.restoreImage(image));
    machine.run(1000);
    EXPECT_EQ(machine.haltReason(), HaltReason::Breakpoint);
    EXPECT_EQ(machine.readRegInt(A2), 4u);
}

} // namespace
} // namespace cheriot::sim
