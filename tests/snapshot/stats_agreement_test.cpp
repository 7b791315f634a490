/**
 * @file
 * Stats–snapshot agreement: after an injected IoT run (the fault
 * campaign's configuration), save, restore into a freshly booted twin
 * and compare the two SimStats maps. Every counter that is snapshot
 * state must read equal on both sides; only the measurement-only
 * counters listed here may differ. A component whose stats registrar
 * visits a different Counter from the one its image holds fails here.
 */

#include "debug/stats.h"
#include "fault/fault_injector.h"
#include "mem/memory_map.h"
#include "snapshot/checkpoint.h"
#include "workloads/iot/iot_app.h"

#include <gtest/gtest.h>

#include <filesystem>
#include <map>
#include <set>
#include <string>

namespace cheriot::snapshot
{
namespace
{

/** SimStats counters that are not part of the image. */
const std::set<std::string> kStatOnly = {
    "machine.decodeFills",          "bus.beats",
    "bitmap.lookups",               "hw_revoker.sweepsCompleted",
    "switcher.compartmentSwitches",
};

/** Per-compartment cycle attribution ("compartment.<name>.cycles") is
 * measurement only as well. */
bool
isStatOnly(const std::string &name)
{
    return kStatOnly.count(name) != 0 || name.rfind("compartment.", 0) == 0;
}

workloads::IotAppConfig
campaignIot()
{
    workloads::IotAppConfig config;
    config.simSeconds = 0.25;
    config.packetsPerSec = 50;
    config.installErrorHandlers = true;
    config.watchdogFaultBudget = 4;
    config.watchdogRestartDelayCycles = 2048;
    return config;
}

TEST(StatsSnapshotAgreement, RestoredTwinReadsEveryImageCounterEqual)
{
    const std::filesystem::path dir =
        std::filesystem::path(::testing::TempDir()) / "cheriot-stats-agree";
    std::filesystem::remove_all(dir);
    std::filesystem::create_directories(dir);

    // The injected run, stopped 60 simulated ms in. A checkpoint is
    // stored after every slice; the final poll sees the state of the
    // last one.
    fault::FaultInjector injector(0x5747);
    workloads::IotAppConfig original = campaignIot();
    original.injector = &injector;
    original.maxRunCycles = 60 * (original.clockHz / 1000);
    injector.arm(injector.planNext(original.maxRunCycles, mem::kSramBase,
                                   160u << 10));
    CheckpointManager checkpoints(dir.string(), "agree");
    original.checkpoints = &checkpoints;
    std::map<std::string, uint64_t> saved;
    original.debugPoll = [&saved](sim::Machine &machine, rtos::Kernel &) {
        saved = machine.simStats().snapshot();
    };
    workloads::runIotApp(original);
    EXPECT_TRUE(injector.fired());

    SnapshotImage image;
    ASSERT_GE(checkpoints.loadLatest(&image), 0);

    // The twin boots identically, restores, and is read at its first
    // poll, before it runs a cycle.
    workloads::IotAppConfig twin = campaignIot();
    twin.resumeImage = &image;
    twin.maxRunCycles = 1;
    std::map<std::string, uint64_t> restored;
    twin.debugPoll = [&restored](sim::Machine &machine, rtos::Kernel &) {
        if (restored.empty()) {
            restored = machine.simStats().snapshot();
        }
    };
    workloads::runIotApp(twin);
    std::filesystem::remove_all(dir);

    ASSERT_FALSE(saved.empty());
    size_t compared = 0;
    for (const auto &[name, value] : saved) {
        if (!isStatOnly(name)) {
            ASSERT_EQ(restored.count(name), 1u) << name;
            EXPECT_EQ(restored.at(name), value) << name;
            ++compared;
        }
    }
    for (const auto &[name, value] : restored) {
        EXPECT_TRUE(isStatOnly(name) || saved.count(name) == 1) << name;
    }
    for (const std::string &name : kStatOnly) {
        EXPECT_EQ(saved.count(name), 1u) << "stale stat-only name " << name;
    }
    EXPECT_GT(compared, 20u);
    EXPECT_GT(saved.at("switcher.calls"), 0u);
}

} // namespace
} // namespace cheriot::snapshot
