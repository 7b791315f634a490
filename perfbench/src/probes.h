/**
 * @file
 * Layer probes for the traced run: isolated calls to public functions
 * that the workload driver cannot wrap from outside, each timed over
 * several rounds (median of the per-round ns/call).
 */

#ifndef PERFBENCH_PROBES_H
#define PERFBENCH_PROBES_H

#include "metrics.h"

namespace perfbench
{

/** Run every probe on an Ibex machine and add its metric. */
void runProbes(MetricSet &out);

} // namespace perfbench

#endif // PERFBENCH_PROBES_H
