#include "workloads.h"

#include "trace.h"

#include "fault/campaign.h"
#include "fault/fault_injector.h"
#include "mem/memory_map.h"
#include "net/net_stack.h"
#include "net/nic_device.h"
#include "rtos/kernel.h"
#include "sim/machine.h"
#include "util/log.h"
#include "util/rng.h"
#include "workloads/coremark/coremark.h"
#include "workloads/iot/iot_app.h"

#include <cmath>
#include <cstdio>
#include <functional>

namespace perfbench
{

using namespace cheriot;
using cap::Capability;
using rtos::ArgVec;
using rtos::CallResult;
using rtos::CompartmentContext;

void
CoreCounts::add(const CoreCounts &other)
{
    ops += other.ops;
    cycles += other.cycles;
    instructions += other.instructions;
    idleCycles += other.idleCycles;
    mallocs += other.mallocs;
    for (const auto &[name, value] : other.stats) {
        stats[name] += value;
    }
}

namespace
{

/**
 * Mean |overhead − paper| over the four Table 3 cells (Flute and
 * Ibex, +capabilities and +load filter), from one fresh run of the
 * six CoreMark configurations. Failed runs are recorded in
 * @p checker.
 */
double table3ModelErrPp(Checker &checker);

/** Seed streams: one per seeded workload, so the two never share
 * draws. */
constexpr uint64_t kNetStream = 1;
constexpr uint64_t kFaultStream = 2;

constexpr uint32_t kCoreMarkChecksum = 0x933471ba;
constexpr uint64_t kCoreMarkBudget = 2'000'000'000ull;
/** Machine::run slice: one sim.run span and one timed slice each. */
constexpr uint64_t kRunSlice = 1u << 18;
constexpr uint64_t kWarmupInstructions = 200'000;

/** The §7.2.3 measurement window behind fault_inject's model_err_pp. */
constexpr double kIotPaperSimSeconds = 60.0;
constexpr double kPaperIotCpuLoadPercent = 17.5;

constexpr uint32_t kNetPacketsPerCore = 16384;
constexpr uint32_t kNetWarmupPackets = 2048;
/** Frames per timed slice. */
constexpr uint32_t kNetChunk = 1024;
constexpr uint32_t kNetMinFrame = 64;
constexpr uint32_t kNetMaxFrame = 191;

constexpr uint32_t kFaultBatch = 64;
/** Memory-fault target windows, as in the fault campaign. */
constexpr uint32_t kIotSramSize = 160u << 10;
constexpr uint32_t kCmMemSize = 0x20000;

/** Absolute counter readings of one machine (and its kernel). */
CoreCounts
sample(sim::Machine &machine, rtos::Kernel *kernel)
{
    CoreCounts c;
    c.cycles = machine.cycles();
    c.instructions = machine.instructions();
    c.stats = machine.simStats().snapshot();
    if (kernel != nullptr) {
        c.idleCycles = kernel->scheduler().idleCycles();
        c.mallocs = kernel->allocator().mallocs.value();
    }
    return c;
}

CoreCounts
delta(const CoreCounts &after, const CoreCounts &before, uint64_t ops)
{
    CoreCounts d;
    d.ops = ops;
    d.cycles = after.cycles - before.cycles;
    d.instructions = after.instructions - before.instructions;
    d.idleCycles = after.idleCycles - before.idleCycles;
    d.mallocs = after.mallocs - before.mallocs;
    for (const auto &[name, value] : after.stats) {
        const auto it = before.stats.find(name);
        d.stats[name] = value - (it == before.stats.end() ? 0 : it->second);
    }
    return d;
}

// ---------------------------------------------------------------------
// CoreMark
// ---------------------------------------------------------------------

struct CoreMarkRun
{
    uint64_t cycles = 0;
    uint64_t instructions = 0;
    uint64_t traps = 0;
    uint64_t busRetries = 0;
    uint32_t checksum = 0;
    uint32_t digest = 0;
    bool valid = false;
    Batch slices; ///< One per Machine::run slice.
    CoreCounts counts;
};

/**
 * The library's runCoreMark, with the image built once by the caller
 * and spans around the machine's own calls: the same machine layout,
 * instruction budget and halt handling, so the results are identical
 * (crossCheck() holds the two against each other).
 */
CoreMarkRun
runCoreMarkImage(const workloads::CoreMarkConfig &config,
                 const std::vector<uint32_t> &image, uint64_t budget)
{
    sim::MachineConfig mc;
    mc.core = config.core;
    mc.sramSize = 256u << 10;
    mc.heapOffset = 192u << 10;
    mc.heapSize = 32u << 10;
    mc.injector = config.injector;
    std::unique_ptr<sim::Machine> machine;
    {
        Span span(SpanName::SimConstruct);
        machine = std::make_unique<sim::Machine>(mc);
    }
    const uint32_t entry = workloads::CoreMarkBuilder::kProgramBase;
    machine->loadProgram(image, entry);
    machine->resetCpu(entry);
    const CoreCounts before = sample(*machine, nullptr);

    sim::HaltReason reason = sim::HaltReason::InstrLimit;
    CoreMarkRun run;
    while (!machine->halted() && machine->instructions() < budget) {
        const uint64_t slice =
            std::min(budget - machine->instructions(), kRunSlice);
        const int64_t start = nowNs();
        Span span(SpanName::SimRun);
        const sim::RunResult result = machine->run(slice);
        tracer().addUnits(SpanName::SimRun, result.instructions);
        run.slices.push_back(
            {result.instructions,
             static_cast<double>(nowNs() - start) * 1e-9});
        reason = result.reason;
    }
    if (machine->halted()) {
        reason = machine->haltReason();
    }
    run.cycles = machine->cycles();
    run.instructions = machine->instructions();
    run.checksum = machine->console().exitCode();
    run.valid = reason == sim::HaltReason::ConsoleExit;
    run.traps = machine->trapCount();
    run.busRetries = machine->bus().retries.value();
    {
        Span span(SpanName::SnapshotDigest);
        run.digest = machine->stateDigest();
    }
    run.counts = delta(sample(*machine, nullptr), before, run.instructions);
    return run;
}

std::vector<uint32_t>
buildCoreMark(const workloads::CoreMarkConfig &config)
{
    Span span(SpanName::IsaBuild);
    workloads::CoreMarkBuilder builder(config);
    return builder.build();
}

struct Table3Config
{
    std::string name;
    workloads::CoreMarkConfig config;
};

/** The six Table 3 configurations: Flute then Ibex, each as RV32E,
 * +capabilities and +load filter. */
std::vector<Table3Config>
table3Configs()
{
    std::vector<Table3Config> out;
    for (const sim::CoreConfig &core :
         {sim::CoreConfig::flute(), sim::CoreConfig::ibex()}) {
        for (int variant = 0; variant < 3; ++variant) {
            Table3Config c;
            c.config.core = core;
            c.config.core.cheriEnabled = variant > 0;
            c.config.core.loadFilterEnabled = variant > 1;
            c.name = core.name + (variant == 0   ? "/rv32e"
                                  : variant == 1 ? "/caps"
                                                 : "/caps+filter");
            out.push_back(c);
        }
    }
    return out;
}

class CoreMarkWorkload : public Workload
{
  public:
    CoreMarkWorkload() : configs_(table3Configs()) {}

    void setup() override
    {
        images_.clear();
        for (const Table3Config &c : configs_) {
            images_.push_back(buildCoreMark(c.config));
        }
        for (size_t i = 0; i < configs_.size(); ++i) {
            runCoreMarkImage(configs_[i].config, images_[i],
                             kWarmupInstructions);
        }
    }

    Batch runBatch(Checker &checker, bool traced) override
    {
        const bool first = cycles_.empty();
        const bool capture = traced && !countsCaptured_;
        Batch batch;
        for (size_t i = 0; i < configs_.size(); ++i) {
            tracer().setOp(nextOp_++);
            Span op(SpanName::Op);
            CoreMarkRun run = runCoreMarkImage(configs_[i].config,
                                               images_[i], kCoreMarkBudget);
            if (checker.nextUnit()) {
                run.checksum ^= 1;
            }
            if (first) {
                cycles_.push_back(run.cycles);
                instructions_.push_back(run.instructions);
                digests_.push_back(run.digest);
            }
            const bool ok = run.valid && run.checksum == kCoreMarkChecksum &&
                            run.digest == digests_[i];
            char what[160];
            std::snprintf(what, sizeof(what),
                          "coremark %s: valid=%d checksum=0x%08x "
                          "digest=0x%08x (first 0x%08x)",
                          configs_[i].name.c_str(), run.valid ? 1 : 0,
                          run.checksum, run.digest, digests_[i]);
            checker.record(ok, run.instructions, what);
            batch.insert(batch.end(), run.slices.begin(), run.slices.end());
            if (capture) {
                counts_[configs_[i].config.core.name].add(run.counts);
            }
        }
        countsCaptured_ = countsCaptured_ || capture;
        return batch;
    }

    double simCyclesPerOp() const override
    {
        uint64_t cycles = 0;
        uint64_t instructions = 0;
        for (size_t i = 0; i < cycles_.size(); ++i) {
            cycles += cycles_[i];
            instructions += instructions_[i];
        }
        return instructions == 0 ? 0.0
                                 : static_cast<double>(cycles) /
                                       static_cast<double>(instructions);
    }

    double modelErrPp(Checker &) override
    {
        // Paper Table 3: CoreMark/MHz overhead of +capabilities and
        // +load filter over RV32E, Flute then Ibex.
        static constexpr double kPaper[2][2] = {{5.73, 5.73},
                                                {13.18, 21.28}};
        if (cycles_.size() != configs_.size()) {
            return 0.0;
        }
        double error = 0.0;
        for (size_t core = 0; core < 2; ++core) {
            // Same iterations in every configuration, so the score
            // ratio is the inverse cycle ratio.
            const double base = static_cast<double>(cycles_[core * 3]);
            for (size_t v = 1; v <= 2; ++v) {
                const double cycles =
                    static_cast<double>(cycles_[core * 3 + v]);
                const double overhead = 100.0 * (1.0 - base / cycles);
                error += std::fabs(overhead - kPaper[core][v - 1]);
            }
        }
        return error / 4.0;
    }

    void printInputs(uint64_t) const override
    {
        for (const Table3Config &c : configs_) {
            std::printf("coremark %s iterations=%u (seed-independent)\n",
                        c.name.c_str(), c.config.iterations);
        }
    }

  private:
    std::vector<Table3Config> configs_;
    std::vector<std::vector<uint32_t>> images_;
    std::vector<uint64_t> cycles_;
    std::vector<uint64_t> instructions_;
    std::vector<uint32_t> digests_;
    uint64_t nextOp_ = 0;
};

// ---------------------------------------------------------------------
// IoT
// ---------------------------------------------------------------------

/**
 * Counter deltas over runIotApp's measured window, read through the
 * debug seam: the first poll is at the window's start, the last after
 * the horizon. Only installed in the traced run, because polling
 * shortens scheduler slices to one simulated millisecond.
 */
class IotWindow
{
  public:
    explicit IotWindow(uint64_t horizon) : horizon_(horizon) {}

    std::function<void(sim::Machine &, rtos::Kernel &)> poll()
    {
        return [this](sim::Machine &machine, rtos::Kernel &kernel) {
            if (!started_) {
                started_ = true;
                start_ = sample(machine, &kernel);
            } else if (!done_ &&
                       machine.cycles() >= start_.cycles + horizon_) {
                done_ = true;
                end_ = sample(machine, &kernel);
            }
        };
    }

    bool complete() const { return done_; }
    CoreCounts counts(uint64_t ops) const
    {
        return delta(end_, start_, ops);
    }

  private:
    uint64_t horizon_;
    bool started_ = false;
    bool done_ = false;
    CoreCounts start_;
    CoreCounts end_;
};

uint64_t
horizonCycles(const workloads::IotAppConfig &config)
{
    return static_cast<uint64_t>(config.simSeconds *
                                 static_cast<double>(config.clockHz));
}

/**
 * |CPU load − 17.5%| over the paper's simulated minute (§7.2.3), from
 * a fresh run of the IoT application, which must end ok with the TLS
 * handshake done and no callee faults.
 */
double
iotModelErrPp(Checker &checker)
{
    workloads::IotAppConfig config;
    config.simSeconds = kIotPaperSimSeconds;
    const workloads::IotAppResult result = workloads::runIotApp(config);
    char what[160];
    std::snprintf(what, sizeof(what),
                  "iot reference run: ok=%d handshake=%d calleeFaults=%llu",
                  result.ok ? 1 : 0, result.handshakeCompleted ? 1 : 0,
                  static_cast<unsigned long long>(result.calleeFaults));
    checker.record(result.ok && result.handshakeCompleted &&
                       result.calleeFaults == 0,
                   0, what);
    return std::fabs(result.cpuLoad * 100.0 - kPaperIotCpuLoadPercent);
}

// ---------------------------------------------------------------------
// Network RX
// ---------------------------------------------------------------------

/** The net_throughput rig: NIC → net_driver → firewall → app, with
 * hardware revocation, on one core. */
struct NetRig
{
    std::unique_ptr<sim::Machine> machine;
    std::unique_ptr<rtos::Kernel> kernel;
    std::unique_ptr<net::NicDevice> nic;
    rtos::Thread *thread = nullptr;
    std::unique_ptr<net::NetStack> stack;
    uint64_t baselineFree = 0;
};

void
synchronise(rtos::Kernel &kernel)
{
    Span span(SpanName::AllocSynchronise);
    kernel.allocator().synchronise();
}

std::unique_ptr<NetRig>
buildNetRig(const sim::CoreConfig &core)
{
    auto rig = std::make_unique<NetRig>();
    sim::MachineConfig mc;
    mc.core = core;
    mc.sramSize = 320u << 10;
    mc.heapOffset = 64u << 10;
    mc.heapSize = 256u << 10;
    {
        Span span(SpanName::SimConstruct);
        rig->machine = std::make_unique<sim::Machine>(mc);
    }
    sim::Machine &machine = *rig->machine;
    rig->kernel = std::make_unique<rtos::Kernel>(machine);
    rtos::Kernel &kernel = *rig->kernel;
    kernel.initHeap(alloc::TemporalMode::HardwareRevocation);
    rig->nic = std::make_unique<net::NicDevice>(machine.memory().sram());
    machine.memory().mmio().map(mem::kNicMmioBase, mem::kNicMmioSize,
                                rig->nic.get());
    net::NetCompartments parts = net::addNetCompartments(kernel);
    rtos::Compartment &app = kernel.createCompartment("app");
    rig->thread = &kernel.createThread("net", 2, 4096);
    std::string bootError;
    {
        Span span(SpanName::RtosBoot);
        if (!kernel.finalizeBoot(&bootError)) {
            fatal("perfbench: net boot verification failed: %s",
                  bootError.c_str());
        }
    }
    kernel.activate(*rig->thread);

    // The application sink reads the frame header through the
    // read-only lent view; nonzero = packet consumed.
    const uint32_t appHandle = app.addExport(
        {"handle",
         [](CompartmentContext &ctx, ArgVec &args) {
             const Capability payload = args[0];
             const uint32_t bytes = args[1].address();
             uint32_t sum = 0;
             const uint32_t words = std::min(bytes / 4, 4u);
             for (uint32_t i = 0; i < words; ++i) {
                 sum ^= ctx.mem.loadWord(payload, payload.base() + i * 4);
             }
             return CallResult::ofInt(sum | 1u);
         },
         false});

    net::NetStackConfig cfg;
    cfg.rxRingEntries = 16;
    cfg.txRingEntries = 8;
    cfg.bufBytes = 256;
    cfg.ackEveryN = 64;
    rig->stack =
        std::make_unique<net::NetStack>(kernel, *rig->nic, parts, cfg);
    rig->stack->connect({{kernel.importOf(app, appHandle),
                          /*mutates=*/false}});
    rig->stack->start(*rig->thread);
    synchronise(kernel);
    rig->baselineFree = kernel.allocator().freeBytes() +
                        kernel.allocator().slackBytes();
    return rig;
}

void
pump(NetRig &rig)
{
    const uint64_t before = rig.stack->packetsAccepted();
    Span span(SpanName::NetPump);
    rig.stack->pump(*rig.thread);
    tracer().addUnits(SpanName::NetPump,
                      rig.stack->packetsAccepted() - before);
}

struct NetResult
{
    uint64_t accepted = 0;
    int64_t leakedBytes = 0;
    uint64_t parseDrops = 0;
    uint64_t nicErrors = 0;
    uint64_t calleeFaults = 0;
    uint32_t digest = 0;
    Batch slices; ///< One per kNetChunk delivered frames.
    CoreCounts counts;
};

/**
 * Deliver the first @p count frames of @p sizes, pumping the driver
 * after every eight deliveries or when the ring is full (the
 * net_throughput schedule), then drain and audit the heap.
 */
NetResult
pumpPackets(NetRig &rig, const std::vector<uint32_t> &sizes,
            uint32_t count)
{
    sim::Machine &machine = *rig.machine;
    rtos::Kernel &kernel = *rig.kernel;
    net::NetStack &stack = *rig.stack;
    const uint64_t acceptedBefore = stack.packetsAccepted();
    const CoreCounts before = sample(machine, &kernel);
    NetResult result;
    int64_t chunkStart = nowNs();
    uint32_t chunkFirst = 0;
    const auto endChunk = [&](uint32_t next) {
        const int64_t now = nowNs();
        result.slices.push_back(
            {next - chunkFirst, static_cast<double>(now - chunkStart) * 1e-9});
        chunkStart = now;
        chunkFirst = next;
    };

    uint32_t seq = 0;
    std::vector<uint8_t> frame;
    bool built = false;
    while (seq < count) {
        if (!built) {
            Span span(SpanName::BenchGen);
            frame = net::buildFrame(seq, sizes[seq]);
            built = true;
        }
        bool delivered = false;
        {
            Span span(SpanName::NetDeliver);
            delivered = rig.nic->deliver(
                frame.data(), static_cast<uint32_t>(frame.size()));
        }
        if (delivered) {
            tracer().addUnits(SpanName::NetDeliver, 1);
            ++seq;
            built = false;
            if (seq % kNetChunk == 0 && seq < count) {
                endChunk(seq);
            }
            if ((seq & 7u) != 0 && seq < count) {
                continue; // Burst until a ring's worth is in flight.
            }
        }
        pump(rig);
    }
    // Drain everything in flight, then sweep until the quarantine is
    // empty so the leak audit compares like with like.
    for (int i = 0;
         i < 64 && stack.packetsAccepted() - acceptedBefore < count; ++i) {
        pump(rig);
    }
    for (int i = 0; i < 4 && kernel.allocator().quarantinedBytes() > 0;
         ++i) {
        synchronise(kernel);
    }
    endChunk(count);
    result.accepted = stack.packetsAccepted() - acceptedBefore;
    result.leakedBytes =
        static_cast<int64_t>(rig.baselineFree) -
        static_cast<int64_t>(kernel.allocator().freeBytes() +
                             kernel.allocator().slackBytes());
    result.parseDrops = stack.parseDrops();
    result.nicErrors = rig.nic->rxErrors();
    result.calleeFaults = kernel.switcher().calleeFaults.value();
    result.counts = delta(sample(machine, &kernel), before, result.accepted);
    {
        Span span(SpanName::SnapshotDigest);
        result.digest = machine.stateDigest();
    }
    return result;
}

/** The seeded frame-size sequence: the only input net_rx takes. */
std::vector<uint32_t>
frameSizes(uint64_t seed, uint32_t count)
{
    Rng rng = Rng::forStream(seed, kNetStream);
    std::vector<uint32_t> sizes(count);
    for (uint32_t &size : sizes) {
        size = rng.range(kNetMinFrame, kNetMaxFrame);
    }
    return sizes;
}

class NetRxWorkload : public Workload
{
  public:
    explicit NetRxWorkload(uint64_t seed)
        : sizes_(frameSizes(seed, kNetPacketsPerCore))
    {
    }

    void setup() override
    {
        for (const sim::CoreConfig &core : cores()) {
            auto rig = buildNetRig(core);
            pumpPackets(*rig, sizes_, kNetWarmupPackets);
        }
    }

    Batch runBatch(Checker &checker, bool traced) override
    {
        const bool first = digests_.empty();
        const bool capture = traced && !countsCaptured_;
        Batch batch;
        const std::vector<sim::CoreConfig> all = cores();
        for (size_t c = 0; c < all.size(); ++c) {
            tracer().setOp(nextOp_++);
            Span op(SpanName::Op);
            auto rig = buildNetRig(all[c]);
            NetResult r = pumpPackets(*rig, sizes_, kNetPacketsPerCore);
            if (checker.nextUnit()) {
                r.accepted -= 1;
            }
            if (first) {
                digests_.push_back(r.digest);
                cycles_ += r.counts.cycles;
            }
            const bool ok = r.accepted == kNetPacketsPerCore &&
                            r.leakedBytes == 0 && r.calleeFaults == 0 &&
                            r.nicErrors == 0 && r.parseDrops == 0 &&
                            r.digest == digests_[c];
            char what[200];
            std::snprintf(
                what, sizeof(what),
                "net_rx %s: accepted=%llu/%u leaked=%lld faults=%llu "
                "nicErrors=%llu parseDrops=%llu digest=0x%08x "
                "(first 0x%08x)",
                all[c].name.c_str(),
                static_cast<unsigned long long>(r.accepted),
                kNetPacketsPerCore, static_cast<long long>(r.leakedBytes),
                static_cast<unsigned long long>(r.calleeFaults),
                static_cast<unsigned long long>(r.nicErrors),
                static_cast<unsigned long long>(r.parseDrops), r.digest,
                digests_[c]);
            checker.record(ok, kNetPacketsPerCore, what);
            batch.insert(batch.end(), r.slices.begin(), r.slices.end());
            if (capture) {
                counts_[all[c].name].add(r.counts);
            }
        }
        countsCaptured_ = countsCaptured_ || capture;
        return batch;
    }

    double simCyclesPerOp() const override
    {
        return static_cast<double>(cycles_) /
               static_cast<double>(kNetPacketsPerCore * cores().size());
    }

    /** No reference result of its own: the Table 3 error of the core
     * models it runs on. */
    double modelErrPp(Checker &checker) override
    {
        return table3ModelErrPp(checker);
    }

    void printInputs(uint64_t n) const override
    {
        for (uint64_t i = 0; i < n && i < sizes_.size(); ++i) {
            std::printf("net_rx frame %llu bytes=%u\n",
                        static_cast<unsigned long long>(i), sizes_[i]);
        }
    }

  private:
    static std::vector<sim::CoreConfig> cores()
    {
        return {sim::CoreConfig::ibex(), sim::CoreConfig::flute()};
    }

    std::vector<uint32_t> sizes_;
    std::vector<uint32_t> digests_;
    uint64_t cycles_ = 0;
    uint64_t nextOp_ = 0;
};

// ---------------------------------------------------------------------
// Fault injection
// ---------------------------------------------------------------------

/** The campaign's IoT run: short horizon, busy packet schedule,
 * handlers installed, tight watchdog budget. */
workloads::IotAppConfig
iotCampaignConfig(fault::FaultInjector *injector)
{
    const fault::CampaignConfig campaign;
    workloads::IotAppConfig config;
    config.simSeconds = 0.25;
    config.packetsPerSec = 50;
    config.injector = injector;
    config.installErrorHandlers = true;
    config.watchdogFaultBudget = campaign.faultBudget;
    config.watchdogRestartDelayCycles = campaign.restartDelayCycles;
    return config;
}

/** The campaign's CoreMark run: a few iterations, capability mode. */
workloads::CoreMarkConfig
coreMarkCampaignConfig(fault::FaultInjector *injector)
{
    workloads::CoreMarkConfig config;
    config.iterations = 4;
    config.injector = injector;
    return config;
}

/** @name The campaign's classification rules
 * (fault/campaign.cpp), applied by the benchmark as its output check.
 * @{ */
bool
iotRecoveryObserved(const workloads::IotAppResult &run,
                    const workloads::IotAppResult &ref)
{
    return run.calleeFaults > ref.calleeFaults ||
           run.handlerInvocations > ref.handlerInvocations ||
           run.forcedUnwinds > ref.forcedUnwinds ||
           run.watchdogQuarantines > 0 || run.watchdogRestarts > 0 ||
           run.revokerKicks > 0 || run.busRetries > 0 ||
           run.trapsTaken > ref.trapsTaken ||
           run.nicRxDrops > ref.nicRxDrops ||
           run.nicRxErrors > ref.nicRxErrors ||
           run.netParseDrops > ref.netParseDrops ||
           run.netRingCorruptionsDetected > ref.netRingCorruptionsDetected;
}

fault::Outcome
classify(bool fired, bool observed, bool matches, bool ran)
{
    using fault::Outcome;
    if (!fired && !observed) {
        return Outcome::NotTriggered;
    }
    if (matches) {
        return observed ? Outcome::Recovered : Outcome::Benign;
    }
    if (!ran) {
        return Outcome::Detected;
    }
    return observed ? Outcome::Degraded : Outcome::SilentDataCorruption;
}

fault::Outcome
classifyIot(const workloads::IotAppResult &run,
            const workloads::IotAppResult &ref, bool fired)
{
    const bool matches = run.ok &&
                         run.packetsProcessed == ref.packetsProcessed &&
                         run.jsTicks == ref.jsTicks &&
                         run.finalLedState == ref.finalLedState;
    return classify(fired, iotRecoveryObserved(run, ref), matches, run.ok);
}

fault::Outcome
classifyCoreMark(const CoreMarkRun &run, const CoreMarkRun &ref, bool fired)
{
    const bool observed = run.busRetries > 0 || run.traps > 0;
    const bool matches = run.valid && run.checksum == ref.checksum;
    return classify(fired, observed, matches, run.valid);
}
/** @} */

struct Injection
{
    bool iot = false;
    fault::FaultPlan plan;
    bool fired = false;
    fault::Outcome outcome = fault::Outcome::NotTriggered;
    uint64_t safetyViolations = 0;
    uint64_t cycles = 0;
    uint32_t digest = 0;
    double seconds = 0.0;
    CoreCounts counts;
    bool countsValid = false;
};

class FaultWorkload : public Workload
{
  public:
    explicit FaultWorkload(uint64_t seed)
        : campaignSeed_(Rng::deriveStreamSeed(seed, kFaultStream))
    {
    }

    uint64_t campaignSeed() const { return campaignSeed_; }

    /** Clean reference runs every injection is classified against,
     * and the bounds derived from them. */
    void setup() override
    {
        iotRef_ = workloads::runIotApp(iotCampaignConfig(nullptr));
        if (!iotRef_.ok) {
            fatal("perfbench: fault_inject IoT reference run failed");
        }
        const workloads::CoreMarkConfig cm = coreMarkCampaignConfig(nullptr);
        cmRef_ = runCoreMarkImage(cm, buildCoreMark(cm), kCoreMarkBudget);
        if (!cmRef_.valid) {
            fatal("perfbench: fault_inject CoreMark reference run failed");
        }
        // A run past 4x the reference instruction count has hung.
        cmBudget_ = cmRef_.instructions * 4 + 10'000;
        iotHorizon_ = iotRef_.cycles;
        // Warm-up: one injection of each kind.
        inject(0, false);
        inject(1, false);
    }

    /** Injection @p index of the campaign: derive its seed, draw and
     * arm a plan, run the workload with the injector wired in,
     * classify against the references. */
    Injection inject(uint32_t index, bool capture) const
    {
        Injection in;
        in.iot = index % 2 == 0;
        const int64_t start = nowNs();
        fault::FaultInjector injector(
            Rng::deriveStreamSeed(campaignSeed_, index));
        {
            Span span(SpanName::FaultPlan);
            in.plan = in.iot ? injector.planNext(iotHorizon_, mem::kSramBase,
                                                 kIotSramSize)
                             : injector.planNext(cmRef_.cycles,
                                                 mem::kSramBase, kCmMemSize);
        }
        injector.arm(in.plan);
        if (in.iot) {
            workloads::IotAppConfig config = iotCampaignConfig(&injector);
            IotWindow window(horizonCycles(config));
            if (capture) {
                config.debugPoll = window.poll();
            }
            workloads::IotAppResult result;
            {
                Span span(SpanName::FaultIotRun);
                result = workloads::runIotApp(config);
            }
            in.fired = injector.fired();
            in.outcome = classifyIot(result, iotRef_, in.fired);
            in.cycles = result.cycles;
            in.digest = result.finalDigest;
            if (capture && window.complete()) {
                in.counts = window.counts(1);
                in.countsValid = true;
            }
        } else {
            const workloads::CoreMarkConfig config =
                coreMarkCampaignConfig(&injector);
            CoreMarkRun run;
            {
                Span span(SpanName::FaultCoreMarkRun);
                run = runCoreMarkImage(config, buildCoreMark(config),
                                       cmBudget_);
            }
            in.fired = injector.fired();
            in.outcome = classifyCoreMark(run, cmRef_, in.fired);
            in.cycles = run.cycles;
            in.digest = run.digest;
            in.counts = run.counts;
            in.counts.ops = 1;
            in.countsValid = true;
        }
        in.safetyViolations = injector.safetyViolations.value();
        in.seconds = static_cast<double>(nowNs() - start) * 1e-9;
        return in;
    }

    Batch runBatch(Checker &checker, bool traced) override
    {
        const bool first = first_.empty();
        const bool capture = traced && !countsCaptured_;
        Batch batch;
        for (uint32_t i = 0; i < kFaultBatch; ++i) {
            tracer().setOp(nextOp_++);
            Span op(SpanName::Op);
            Injection in = inject(i, capture);
            if (checker.nextUnit()) {
                in.safetyViolations += 1;
            }
            if (first) {
                first_.push_back(in);
            }
            const Injection &ref = first_[i];
            const bool ok =
                in.safetyViolations == 0 &&
                in.outcome != fault::Outcome::SilentDataCorruption &&
                in.outcome == ref.outcome && in.digest == ref.digest;
            char what[200];
            std::snprintf(what, sizeof(what),
                          "fault_inject %u (%s, %s): outcome=%s "
                          "violations=%llu digest=0x%08x (first 0x%08x)",
                          i, in.iot ? "iot" : "coremark",
                          fault::faultSiteName(in.plan.site),
                          fault::outcomeName(in.outcome),
                          static_cast<unsigned long long>(in.safetyViolations),
                          in.digest, ref.digest);
            checker.record(ok, 1, what);
            batch.push_back({1, in.seconds});
            if (capture) {
                tally_.injections++;
                tally_.fired += in.fired ? 1 : 0;
                tally_.outcomes[static_cast<size_t>(in.outcome)]++;
                if (in.countsValid) {
                    counts_["ibex"].add(in.counts);
                }
            }
        }
        countsCaptured_ = countsCaptured_ || capture;
        return batch;
    }

    double simCyclesPerOp() const override
    {
        uint64_t cycles = 0;
        for (const Injection &in : first_) {
            cycles += in.cycles;
        }
        return first_.empty() ? 0.0
                              : static_cast<double>(cycles) /
                                    static_cast<double>(first_.size());
    }

    /** No reference result of its own: the §7.2.3 error of the IoT
     * application it injects into. */
    double modelErrPp(Checker &checker) override
    {
        return iotModelErrPp(checker);
    }

    FaultTally faultTally() const override { return tally_; }

    void printInputs(uint64_t n) const override
    {
        for (uint32_t i = 0; i < n; ++i) {
            fault::FaultInjector injector(
                Rng::deriveStreamSeed(campaignSeed_, i));
            const bool iot = i % 2 == 0;
            const fault::FaultPlan plan =
                iot ? injector.planNext(iotHorizon_, mem::kSramBase,
                                        kIotSramSize)
                    : injector.planNext(cmRef_.cycles, mem::kSramBase,
                                        kCmMemSize);
            std::printf("fault_inject %u %s site=%s trigger=%llu "
                        "transaction=%llu addr=0x%08x param=%u\n",
                        i, iot ? "iot" : "coremark",
                        fault::faultSiteName(plan.site),
                        static_cast<unsigned long long>(plan.triggerCycle),
                        static_cast<unsigned long long>(
                            plan.triggerTransaction),
                        plan.addr, plan.param);
        }
    }

  private:
    uint64_t campaignSeed_;
    workloads::IotAppResult iotRef_;
    CoreMarkRun cmRef_;
    uint64_t cmBudget_ = 0;
    uint64_t iotHorizon_ = 0;
    std::vector<Injection> first_;
    FaultTally tally_;
    uint64_t nextOp_ = 0;
};

double
table3ModelErrPp(Checker &checker)
{
    Checker local(0);
    CoreMarkWorkload table3;
    table3.setup();
    table3.runBatch(local, false);
    checker.record(local.correct(), 0, "Table 3 reference runs");
    return table3.modelErrPp(local);
}

} // namespace

std::unique_ptr<Workload>
makeWorkload(const std::string &name, uint64_t seed)
{
    if (name == "coremark") {
        return std::make_unique<CoreMarkWorkload>();
    }
    if (name == "net_rx") {
        return std::make_unique<NetRxWorkload>(seed);
    }
    if (name == "fault_inject") {
        return std::make_unique<FaultWorkload>(seed);
    }
    return nullptr;
}


void
sampleLayers(uint64_t seed)
{
    FaultWorkload faults(seed);
    faults.setup(); // Includes one IoT and one CoreMark injection.
    auto rig = buildNetRig(sim::CoreConfig::ibex());
    pumpPackets(*rig, frameSizes(seed, kNetWarmupPackets),
                kNetWarmupPackets);
}

bool
crossCheck(uint64_t seed)
{
    bool ok = true;
    // The benchmark's CoreMark runner against the library's.
    workloads::CoreMarkConfig cm;
    cm.iterations = 20;
    const CoreMarkRun mine =
        runCoreMarkImage(cm, buildCoreMark(cm), kCoreMarkBudget);
    const workloads::CoreMarkResult lib = workloads::runCoreMark(cm, "ref");
    if (mine.cycles != lib.cycles || mine.instructions != lib.instructions ||
        mine.checksum != lib.checksum || mine.digest != lib.finalDigest) {
        std::printf("crosscheck: coremark runner differs from "
                    "runCoreMark (cycles %llu vs %llu, digest 0x%08x vs "
                    "0x%08x)\n",
                    static_cast<unsigned long long>(mine.cycles),
                    static_cast<unsigned long long>(lib.cycles), mine.digest,
                    lib.finalDigest);
        ok = false;
    }

    // The benchmark's injections and classifier against the campaign.
    FaultWorkload faults(seed);
    faults.setup();
    fault::CampaignConfig campaign;
    campaign.seed = faults.campaignSeed();
    campaign.injections = 16;
    const fault::CampaignReport report = fault::runFaultCampaign(campaign);
    for (const fault::CampaignRun &run : report.details) {
        const Injection in = faults.inject(run.index, false);
        if (in.outcome != run.outcome || in.fired != run.fired ||
            in.safetyViolations != run.safetyViolations) {
            std::printf("crosscheck: injection %u classified %s, "
                        "campaign says %s\n",
                        run.index, fault::outcomeName(in.outcome),
                        fault::outcomeName(run.outcome));
            ok = false;
        }
    }
    std::printf("crosscheck: %s (coremark runner, %zu injections)\n",
                ok ? "agree" : "DIFFER", report.details.size());
    return ok;
}

} // namespace perfbench
