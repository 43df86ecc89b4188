// The host-speed calibration behind the bounded CPU-time metrics.
//
// On the shared reference host a neighbour on the same physical core slows
// the core itself: every CPU-time figure moved by up to a third between
// stretches of the same hour, in step. A fixed reference kernel that uses
// no repository code is timed throughout each run; its median CPU time
// over its time on the reference machine is the run's host-speed factor,
// and the bounded CPU-time metrics are divided by it (rates multiplied),
// which states them in reference-machine CPU seconds. The kernel is built
// in its own target with fixed flags, so no change to the repository can
// speed it up or slow it down.
#ifndef PERFBENCH_CALIBRATION_H_
#define PERFBENCH_CALIBRATION_H_

namespace perfbench {

/// CPU seconds of the reference kernel on the reference machine (a 4-vCPU
/// virtual machine, Intel Xeon at 2.1 GHz, quiet host, -O2).
inline constexpr double kReferenceKernelSeconds = 0.021;

/// CPU seconds of one run of the reference kernel on the calling thread:
/// sorting 2^17 pseudo-random doubles and 2^19 dependent reads of a 4 MiB
/// table, so that it leans on the core and its caches as the measured
/// work does.
double TimeReferenceKernel();

}  // namespace perfbench

#endif  // PERFBENCH_CALIBRATION_H_
