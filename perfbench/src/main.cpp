/**
 * @file
 * The repository benchmark driver.
 *
 *   perfbench --workload coremark|net_rx|fault_inject --seed N
 *             --seconds S --trace 0|1 [--spans-out FILE]
 *             [--corrupt-op K] [--print-inputs N] [--cross-check]
 *
 * One process, one host thread. It sets the workload up several
 * times (setup_s is the median), then runs identical batches of
 * checked units until S seconds have passed, and prints every metric
 * by name with its unit. The last stdout line is the JSON result
 * {"correct", "attempted", "failed", "metrics"}: the end-to-end
 * metrics with --trace 0, the per-layer metrics with --trace 1.
 *
 * The traced run spends half of S untraced and half with spans on
 * (trace.overhead_ratio compares the two), then runs the layer
 * samples and probes. --corrupt-op K corrupts the K-th checked
 * unit's output before its check (the benchmark's own test of its
 * failure counting); --print-inputs and --cross-check are test aids.
 */

#include "metrics.h"
#include "probes.h"
#include "trace.h"
#include "workloads.h"

#include "util/log.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

using namespace perfbench;
using namespace cheriot;

namespace
{

constexpr int kSetupRepeats = 11;
/** Batches per phase, at least: the digest check needs a repeat. */
constexpr size_t kMinBatches = 2;
/** Per-slice host-time quantile behind ops_per_s. */
constexpr double kSlowQuantile = 0.75;

[[noreturn]] void
usage(const char *why)
{
    std::fprintf(stderr,
                 "perfbench: %s\nusage: perfbench --workload "
                 "coremark|net_rx|fault_inject --seed N --seconds S "
                 "--trace 0|1 [--spans-out FILE] [--corrupt-op K] "
                 "[--print-inputs N] [--cross-check]\n",
                 why);
    std::exit(2);
}

uint64_t
parseU64(const char *text, const char *flag)
{
    char *end = nullptr;
    const uint64_t value = std::strtoull(text, &end, 10);
    if (end == text || *end != '\0') {
        usage((std::string("bad value for ") + flag).c_str());
    }
    return value;
}

/** Quantile @p q of @p values, interpolating between order
 * statistics (numpy's default). */
double
quantile(std::vector<double> values, double q)
{
    if (values.empty()) {
        return 0.0;
    }
    std::sort(values.begin(), values.end());
    const double pos = q * static_cast<double>(values.size() - 1);
    const size_t lo = static_cast<size_t>(pos);
    const size_t hi = std::min(lo + 1, values.size() - 1);
    return values[lo] + (pos - static_cast<double>(lo)) *
                            (values[hi] - values[lo]);
}

/** Whole batches run until the phase's time is up (at least
 * kMinBatches). */
std::vector<Batch>
runPhase(Workload &workload, Checker &checker, double seconds, bool traced)
{
    std::vector<Batch> batches;
    const int64_t start = nowNs();
    for (;;) {
        const int64_t batchStart = nowNs();
        batches.push_back(workload.runBatch(checker, traced));
        const int64_t end = nowNs();
        const double last = static_cast<double>(end - batchStart) * 1e-9;
        const double elapsed = static_cast<double>(end - start) * 1e-9;
        if (batches.size() >= kMinBatches && elapsed + last > seconds) {
            break;
        }
    }
    return batches;
}

/**
 * Sustained throughput of a phase. Slice i of every batch is the same
 * work, so its host times across batches differ only by host speed.
 * Each slice is charged its kSlowQuantile time, and the rate is one
 * batch's ops over the sum: the throughput the host sustains in
 * three quarters of the measured time, insensitive to a shared host's
 * intermittent fast bursts.
 */
double
sustainedRate(const std::vector<Batch> &batches)
{
    size_t slices = batches.front().size();
    for (const Batch &batch : batches) {
        slices = std::min(slices, batch.size());
    }
    uint64_t ops = 0;
    double seconds = 0.0;
    for (size_t i = 0; i < slices; ++i) {
        std::vector<double> times;
        for (const Batch &batch : batches) {
            times.push_back(batch[i].seconds);
        }
        ops += batches.front()[i].ops;
        seconds += quantile(times, kSlowQuantile);
    }
    return seconds > 0.0 ? static_cast<double>(ops) / seconds : 0.0;
}

/** Each batch's ops / host time (printed for reference). */
std::vector<double>
batchRates(const std::vector<Batch> &batches)
{
    std::vector<double> rates;
    for (const Batch &batch : batches) {
        uint64_t ops = 0;
        double seconds = 0.0;
        for (const Slice &slice : batch) {
            ops += slice.ops;
            seconds += slice.seconds;
        }
        rates.push_back(seconds > 0.0 ? static_cast<double>(ops) / seconds
                                      : 0.0);
    }
    return rates;
}

/** VmHWM of this process image. Not getrusage's ru_maxrss, which
 * keeps the launcher's peak across exec. */
double
peakRssMiB()
{
    std::FILE *status = std::fopen("/proc/self/status", "r");
    if (status == nullptr) {
        return 0.0;
    }
    char line[256];
    unsigned long kib = 0;
    while (std::fgets(line, sizeof(line), status) != nullptr) {
        if (std::sscanf(line, "VmHWM: %lu kB", &kib) == 1) {
            break;
        }
    }
    std::fclose(status);
    return static_cast<double>(kib) / 1024.0;
}

/** One line per sample set: count, median and every sample. */
void
printSamples(const char *what, const std::vector<double> &samples)
{
    std::printf("%s: n=%zu median=%.6g [", what, samples.size(),
                median(samples));
    for (size_t i = 0; i < samples.size(); ++i) {
        std::printf("%s%.6g", i == 0 ? "" : " ", samples[i]);
    }
    std::printf("]\n");
}

double
ratio(double num, double den)
{
    return den == 0.0 ? 0.0 : num / den;
}

uint64_t
stat(const CoreCounts &counts, const std::string &name)
{
    const auto it = counts.stats.find(name);
    return it == counts.stats.end() ? 0 : it->second;
}

/** Counts per core model, never summed across cores. */
void
addCountMetrics(MetricSet &out, const LayerCounts &layers)
{
    static const char *const kCores[] = {"ibex", "flute"};
    static const char *const kCompartments[] = {
        "kernel", "alloc", "net_driver", "firewall", "app",
        "tls",    "mqtt",  "js"};
    for (const char *core : kCores) {
        const auto it = layers.find(core);
        const CoreCounts c = it == layers.end() ? CoreCounts{} : it->second;
        const double ops = static_cast<double>(c.ops);
        const double cycles = static_cast<double>(c.cycles);
        const std::string sfx = std::string(".") + core;
        auto perOp = [&](uint64_t value) {
            return ratio(static_cast<double>(value), ops);
        };
        const uint64_t words = stat(c, "hw_revoker.wordsExamined");
        out.add("sim.cycles_per_op" + sfx, perOp(c.cycles), "cycles/op");
        out.add("sim.decode_fills_per_kinstr" + sfx,
                ratio(1000.0 * static_cast<double>(
                                   stat(c, "machine.decodeFills")),
                      static_cast<double>(c.instructions)),
                "count/kinstr");
        out.add("sim.idle_cycle_share" + sfx,
                ratio(static_cast<double>(c.idleCycles), cycles), "ratio");
        out.add("mem.bus_beats_per_op" + sfx, perOp(stat(c, "bus.beats")),
                "count/op");
        out.add("mem.tag_clears_per_op" + sfx,
                perOp(stat(c, "sram.tagClears")), "count/op");
        out.add("revoker.words_examined_per_op" + sfx, perOp(words),
                "count/op");
        out.add("revoker.sweeps_per_op" + sfx,
                perOp(stat(c, "hw_revoker.sweepsCompleted")), "count/op");
        out.add("revoker.filter_lookups_per_op" + sfx,
                perOp(stat(c, "load_filter.lookups")), "count/op");
        out.add("revoker.useful_ratio" + sfx,
                ratio(static_cast<double>(
                          stat(c, "hw_revoker.tagsInvalidated")),
                      static_cast<double>(words)),
                "ratio");
        out.add("rtos.switcher_calls_per_op" + sfx,
                perOp(stat(c, "switcher.calls")), "count/op");
        out.add("rtos.bytes_zeroed_per_op" + sfx,
                perOp(stat(c, "switcher.bytesZeroed")), "bytes/op");
        out.add("alloc.allocs_per_op" + sfx, perOp(c.mallocs), "count/op");
        for (const char *compartment : kCompartments) {
            out.add(std::string("rtos.cycle_share.") + compartment + sfx,
                    ratio(static_cast<double>(stat(
                              c, std::string("compartment.") +
                                     compartment + ".cycles")),
                          cycles),
                    "ratio");
        }
    }
}

/**
 * Span-derived host times. Each uses the workload's own spans when
 * it made any, else the layer sample's (sampleLayers), so every
 * metric is defined on every workload.
 */
void
addSpanMetrics(MetricSet &out, const Tracer::TotalsArray &workload,
               const Tracer::TotalsArray &sample)
{
    struct Def
    {
        const char *metric;
        SpanName span;
        const char *unit;
        double scale;   ///< ns → unit.
        bool perUnit;   ///< Divide by addUnits() work, not span count.
        bool total;     ///< Whole span, not self time.
    };
    static const Def kDefs[] = {
        {"sim.run_ns_per_instr", SpanName::SimRun, "ns", 1.0, true, false},
        {"rtos.boot_ms", SpanName::RtosBoot, "ms", 1e-6, false, false},
        {"isa.build_ms", SpanName::IsaBuild, "ms", 1e-6, false, false},
        {"alloc.synchronise_ms", SpanName::AllocSynchronise, "ms", 1e-6,
         false, false},
        {"net.deliver_ns_per_pkt", SpanName::NetDeliver, "ns", 1.0, true,
         false},
        {"net.pump_ns_per_pkt", SpanName::NetPump, "ns", 1.0, true, false},
        {"bench.gen_ns_per_pkt", SpanName::BenchGen, "ns", 1.0, false,
         false},
        {"fault.plan_us", SpanName::FaultPlan, "us", 1e-3, false, false},
        {"fault.iot_run_ms", SpanName::FaultIotRun, "ms", 1e-6, false, true},
        {"fault.coremark_run_ms", SpanName::FaultCoreMarkRun, "ms", 1e-6,
         false, true},
        {"snapshot.digest_us", SpanName::SnapshotDigest, "us", 1e-3, false,
         false},
    };
    for (const Def &def : kDefs) {
        const size_t index = static_cast<size_t>(def.span);
        const Tracer::Totals &own = workload[index];
        const bool hasOwn = def.perUnit ? own.units > 0 : own.count > 0;
        const Tracer::Totals &t = hasOwn ? own : sample[index];
        const double ns = def.total ? t.totalNs : t.selfNs;
        const double per =
            static_cast<double>(def.perUnit ? t.units : t.count);
        out.add(def.metric, ratio(ns, per) * def.scale, def.unit);
    }
}

} // namespace

int
main(int argc, char **argv)
{
    std::string workloadName;
    uint64_t seed = 0;
    bool haveSeed = false;
    double seconds = 0.0;
    int trace = -1;
    std::string spansOut;
    uint64_t corruptOp = 0;
    uint64_t printInputs = 0;
    bool doCrossCheck = false;
    for (int i = 1; i < argc; ++i) {
        const char *arg = argv[i];
        auto value = [&]() -> const char * {
            if (i + 1 >= argc) {
                usage((std::string(arg) + " needs a value").c_str());
            }
            return argv[++i];
        };
        if (std::strcmp(arg, "--workload") == 0) {
            workloadName = value();
        } else if (std::strcmp(arg, "--seed") == 0) {
            seed = parseU64(value(), arg);
            haveSeed = true;
        } else if (std::strcmp(arg, "--seconds") == 0) {
            seconds = static_cast<double>(parseU64(value(), arg));
        } else if (std::strcmp(arg, "--trace") == 0) {
            trace = static_cast<int>(parseU64(value(), arg));
        } else if (std::strcmp(arg, "--spans-out") == 0) {
            spansOut = value();
        } else if (std::strcmp(arg, "--corrupt-op") == 0) {
            corruptOp = parseU64(value(), arg);
        } else if (std::strcmp(arg, "--print-inputs") == 0) {
            printInputs = parseU64(value(), arg);
        } else if (std::strcmp(arg, "--cross-check") == 0) {
            doCrossCheck = true;
        } else {
            usage((std::string("unknown flag ") + arg).c_str());
        }
    }
    if (!haveSeed) {
        usage("--seed is required");
    }
    if (doCrossCheck) {
        return crossCheck(seed) ? 0 : 1;
    }
    std::unique_ptr<Workload> workload = makeWorkload(workloadName, seed);
    if (workload == nullptr) {
        usage("unknown or missing --workload");
    }
    if (printInputs > 0) {
        workload->setup();
        workload->printInputs(printInputs);
        return 0;
    }
    if (seconds <= 0.0 || (trace != 0 && trace != 1)) {
        usage("--seconds S (S >= 1) and --trace 0|1 are required");
    }
    const bool traced = trace == 1;

    // Set-up: from scratch, several times; the last one is measured
    // against.
    Tracer &spans = tracer();
    spans.setEnabled(traced);
    std::vector<double> setupTimes;
    for (int i = 0; i < kSetupRepeats; ++i) {
        const int64_t start = nowNs();
        workload->setup();
        setupTimes.push_back(static_cast<double>(nowNs() - start) * 1e-9);
    }
    printSamples("setup s", setupTimes);

    Checker checker(corruptOp);
    MetricSet metrics;
    if (!traced) {
        spans.setEnabled(false);
        const std::vector<Batch> phase =
            runPhase(*workload, checker, seconds, false);
        printSamples("batch ops/s", batchRates(phase));
        const double simCycles = workload->simCyclesPerOp();
        const double modelErr = workload->modelErrPp(checker);
        metrics.add("ops_per_s", sustainedRate(phase), "1/s");
        metrics.add("setup_s", median(setupTimes), "s");
        metrics.add("peak_rss_mib", peakRssMiB(), "MiB");
        metrics.add("sim_cycles_per_op", simCycles, "cycles");
        metrics.add("model_err_pp", modelErr, "pp");
    } else {
        spans.setEnabled(false);
        const std::vector<Batch> plain =
            runPhase(*workload, checker, seconds / 2.0, false);
        spans.setEnabled(true);
        const std::vector<Batch> withSpans =
            runPhase(*workload, checker, seconds / 2.0, true);
        printSamples("untraced batch ops/s", batchRates(plain));
        printSamples("traced batch ops/s", batchRates(withSpans));
        const Tracer::TotalsArray own = spans.totals();
        sampleLayers(seed);
        spans.setEnabled(false);
        Tracer::TotalsArray sample = spans.totals();
        for (size_t i = 0; i < kSpanNameCount; ++i) {
            sample[i].count -= own[i].count;
            sample[i].totalNs -= own[i].totalNs;
            sample[i].selfNs -= own[i].selfNs;
            sample[i].units -= own[i].units;
        }

        addSpanMetrics(metrics, own, sample);
        runProbes(metrics);
        addCountMetrics(metrics, workload->layerCounts());
        const FaultTally tally = workload->faultTally();
        const double injections = static_cast<double>(tally.injections);
        metrics.add("fault.fired_ratio",
                    ratio(static_cast<double>(tally.fired), injections),
                    "ratio");
        for (uint32_t o = 0; o < fault::kOutcomeCount; ++o) {
            metrics.add(std::string("fault.outcome.") +
                            fault::outcomeName(static_cast<fault::Outcome>(o)),
                        ratio(static_cast<double>(tally.outcomes[o]),
                              injections),
                        "ratio");
        }
        metrics.add("trace.overhead_ratio",
                    ratio(sustainedRate(withSpans), sustainedRate(plain)),
                    "ratio");
    }

    if (!spansOut.empty()) {
        if (!spans.write(spansOut)) {
            warn("perfbench: cannot write spans to %s", spansOut.c_str());
        } else if (traced) {
            std::printf("spans: %zu recorded (%llu past the cap) in %s\n",
                        spans.recorded(),
                        static_cast<unsigned long long>(spans.dropped()),
                        spansOut.c_str());
        }
    }
    for (const Metric &m : metrics.all()) {
        std::printf("%-40s %.6g %s\n", m.name.c_str(), m.value,
                    m.unit.c_str());
    }
    std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
                "\"metrics\": %s}\n",
                checker.correct() ? "true" : "false",
                static_cast<unsigned long long>(checker.attempted()),
                static_cast<unsigned long long>(checker.failed()),
                metrics.json().c_str());
    return 0;
}
