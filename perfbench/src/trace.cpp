#include "trace.h"

#include <chrono>
#include <cstdio>

namespace perfbench
{

const char *
spanName(SpanName name)
{
    switch (name) {
      case SpanName::Op: return "op";
      case SpanName::SimConstruct: return "sim.construct";
      case SpanName::SimRun: return "sim.run";
      case SpanName::RtosBoot: return "rtos.boot";
      case SpanName::IsaBuild: return "isa.build";
      case SpanName::NetDeliver: return "net.deliver";
      case SpanName::NetPump: return "net.pump";
      case SpanName::BenchGen: return "bench.gen";
      case SpanName::AllocSynchronise: return "alloc.synchronise";
      case SpanName::FaultPlan: return "fault.plan";
      case SpanName::FaultIotRun: return "fault.iot_run";
      case SpanName::FaultCoreMarkRun: return "fault.coremark_run";
      case SpanName::SnapshotDigest: return "snapshot.digest";
      case SpanName::kCount: break;
    }
    return "unknown";
}

int64_t
nowNs()
{
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

size_t
Tracer::open(SpanName name)
{
    const int64_t parent = stack_.empty() ? -1 : stack_.back().record;
    int64_t record = -1;
    if (spans_.size() < kMaxRecorded) {
        record = static_cast<int64_t>(spans_.size());
        spans_.push_back({0, 0, parent, op_, name});
    } else {
        ++dropped_;
    }
    stack_.push_back({name, 0, record, 0.0});
    // Read the clock last so the bookkeeping above is not charged to
    // the span.
    stack_.back().start = nowNs();
    return stack_.size() - 1;
}

void
Tracer::close(size_t handle)
{
    const int64_t end = nowNs();
    // Guards are scoped, so spans close in LIFO order.
    const Open open = stack_[handle];
    stack_.resize(handle);
    const double duration = static_cast<double>(end - open.start);
    Totals &totals = totals_[static_cast<size_t>(open.name)];
    totals.count++;
    totals.totalNs += duration;
    totals.selfNs += duration - open.childNs;
    if (!stack_.empty()) {
        stack_.back().childNs += duration;
    }
    if (open.record >= 0) {
        spans_[open.record].start = open.start;
        spans_[open.record].end = end;
    }
}

bool
Tracer::write(const std::string &path) const
{
    std::FILE *out = std::fopen(path.c_str(), "w");
    if (out == nullptr) {
        return false;
    }
    std::fprintf(out, "id,name,op,parent,start_ns,end_ns\n");
    for (size_t i = 0; i < spans_.size(); ++i) {
        const Record &r = spans_[i];
        std::fprintf(out, "%zu,%s,%llu,%lld,%lld,%lld\n", i,
                     spanName(r.name),
                     static_cast<unsigned long long>(r.op),
                     static_cast<long long>(r.parent),
                     static_cast<long long>(r.start),
                     static_cast<long long>(r.end));
    }
    return std::fclose(out) == 0;
}

Tracer &
tracer()
{
    static Tracer instance;
    return instance;
}

} // namespace perfbench
