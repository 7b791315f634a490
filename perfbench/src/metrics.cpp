#include "metrics.h"

#include <algorithm>
#include <cstdio>
#include <stdexcept>

namespace perfbench
{

void
MetricSet::add(const std::string &name, double value,
               const std::string &unit)
{
    for (const Metric &metric : metrics_) {
        if (metric.name == name) {
            throw std::logic_error("duplicate metric " + name);
        }
    }
    metrics_.push_back({name, value, unit});
}

std::string
MetricSet::json() const
{
    std::string out = "{";
    char buffer[64];
    for (size_t i = 0; i < metrics_.size(); ++i) {
        const Metric &m = metrics_[i];
        std::snprintf(buffer, sizeof(buffer), "%.17g", m.value);
        out += (i == 0 ? "\"" : ", \"") + m.name + "\": {\"value\": " +
               buffer + ", \"unit\": \"" + m.unit + "\"}";
    }
    return out + "}";
}

void
Checker::record(bool ok, uint64_t ops, const std::string &what)
{
    attempted_ += ops;
    if (!ok) {
        failed_ += ops;
        failures_++;
        std::fprintf(stderr, "perfbench: FAILED check: %s\n", what.c_str());
    }
}

double
median(std::vector<double> values)
{
    if (values.empty()) {
        return 0.0;
    }
    std::sort(values.begin(), values.end());
    const size_t mid = values.size() / 2;
    return values.size() % 2 != 0 ? values[mid]
                                  : 0.5 * (values[mid - 1] + values[mid]);
}

} // namespace perfbench
