/**
 * @file
 * Metric collection and the result line, plus the pass/fail ledger
 * every workload reports its checked units to.
 */

#ifndef PERFBENCH_METRICS_H
#define PERFBENCH_METRICS_H

#include <cstdint>
#include <string>
#include <vector>

namespace perfbench
{

struct Metric
{
    std::string name;
    double value = 0.0;
    std::string unit;
};

/** Metrics in emission order; each name appears once. */
class MetricSet
{
  public:
    void add(const std::string &name, double value, const std::string &unit);
    const std::vector<Metric> &all() const { return metrics_; }
    /** The `"metrics": {...}` object body. */
    std::string json() const;

  private:
    std::vector<Metric> metrics_;
};

/**
 * Counts ops attempted and failed. A checked unit (one CoreMark
 * configuration run, one core's packet batch, one IoT run, one
 * injection) either passes or fails as a whole; a failed unit counts
 * all of its ops as failed.
 */
class Checker
{
  public:
    /** @p corruptUnit (1-based; 0 = none) names the checked unit
     * whose output is deliberately corrupted before its check. */
    explicit Checker(uint64_t corruptUnit) : corruptUnit_(corruptUnit) {}

    /** Start the next checked unit; true if its output must be
     * corrupted. */
    bool nextUnit() { return ++units_ == corruptUnit_; }
    void record(bool ok, uint64_t ops, const std::string &what);

    uint64_t attempted() const { return attempted_; }
    uint64_t failed() const { return failed_; }
    bool correct() const { return failures_ == 0; }

  private:
    uint64_t corruptUnit_;
    uint64_t units_ = 0;
    uint64_t attempted_ = 0;
    uint64_t failed_ = 0;
    uint64_t failures_ = 0;
};

double median(std::vector<double> values);

} // namespace perfbench

#endif // PERFBENCH_METRICS_H
