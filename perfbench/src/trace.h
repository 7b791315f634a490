/**
 * @file
 * In-memory span recorder for the benchmark's traced run.
 *
 * The driver opens a span around each of its own calls into a
 * simulator module (name, start, end, parent span, op id). Spans stay
 * in memory; per-name totals and self time (duration minus the part
 * covered by child spans) are accumulated as spans close, and the
 * recorded spans are written out at exit. With tracing disabled a
 * Span guard costs one branch.
 */

#ifndef PERFBENCH_TRACE_H
#define PERFBENCH_TRACE_H

#include <array>
#include <cstdint>
#include <string>
#include <vector>

namespace perfbench
{

/** Every span the driver records. */
enum class SpanName : uint8_t
{
    Op,             ///< One checked unit of a workload.
    SimConstruct,   ///< sim::Machine construction.
    SimRun,         ///< sim::Machine::run slice.
    RtosBoot,       ///< rtos::Kernel::finalizeBoot.
    IsaBuild,       ///< workloads::CoreMarkBuilder::build.
    NetDeliver,     ///< net::NicDevice::deliver.
    NetPump,        ///< net::NetStack::pump.
    BenchGen,       ///< The benchmark's own frame generator.
    AllocSynchronise, ///< alloc::HeapAllocator::synchronise.
    FaultPlan,      ///< fault::FaultInjector::planNext.
    FaultIotRun,    ///< workloads::runIotApp with an injector.
    FaultCoreMarkRun, ///< CoreMark run with an injector.
    SnapshotDigest, ///< sim::Machine::stateDigest.
    kCount,
};

constexpr size_t kSpanNameCount = static_cast<size_t>(SpanName::kCount);

const char *spanName(SpanName name);

/** Host nanoseconds on the steady clock. */
int64_t nowNs();

class Tracer
{
  public:
    struct Totals
    {
        uint64_t count = 0;
        double totalNs = 0.0;
        double selfNs = 0.0;
        /** Work done inside the spans (instructions, packets), as
         * reported by addUnits(). */
        uint64_t units = 0;
    };
    using TotalsArray = std::array<Totals, kSpanNameCount>;

    bool enabled() const { return enabled_; }
    void setEnabled(bool enabled) { enabled_ = enabled; }
    /** Identifier shared by the spans of one op. */
    void setOp(uint64_t op) { op_ = op; }

    /** Open a span; returns its handle for close(). */
    size_t open(SpanName name);
    void close(size_t handle);
    void addUnits(SpanName name, uint64_t units)
    {
        if (enabled_) {
            totals_[static_cast<size_t>(name)].units += units;
        }
    }

    const TotalsArray &totals() const { return totals_; }

    /** Recorded spans kept for the output file (the totals cover every
     * span, including those past the cap). */
    size_t recorded() const { return spans_.size(); }
    uint64_t dropped() const { return dropped_; }

    /** Write the recorded spans as CSV (one span per line). */
    bool write(const std::string &path) const;

  private:
    struct Record
    {
        int64_t start = 0;
        int64_t end = 0;
        int64_t parent = -1;
        uint64_t op = 0;
        SpanName name = SpanName::Op;
    };
    struct Open
    {
        SpanName name;
        int64_t start;
        int64_t record; ///< Index into spans_, or -1 past the cap.
        double childNs;
    };

    static constexpr size_t kMaxRecorded = 1u << 18;

    bool enabled_ = false;
    uint64_t op_ = 0;
    std::vector<Record> spans_;
    std::vector<Open> stack_;
    TotalsArray totals_{};
    uint64_t dropped_ = 0;
};

/** The process-wide recorder. */
Tracer &tracer();

/** Scoped span: records only while the tracer is enabled. */
class Span
{
  public:
    explicit Span(SpanName name)
        : handle_(tracer().enabled() ? tracer().open(name) : kNone)
    {
    }
    ~Span()
    {
        if (handle_ != kNone) {
            tracer().close(handle_);
        }
    }
    Span(const Span &) = delete;
    Span &operator=(const Span &) = delete;

  private:
    static constexpr size_t kNone = ~size_t{0};
    size_t handle_;
};

} // namespace perfbench

#endif // PERFBENCH_TRACE_H
