"""Host-speed normalization.

On a shared virtual machine the same deterministic job can take 1.3x more
CPU time in one run than in the next, because other tenants compete for
the core, its caches and its memory bandwidth, and such a state lasts
longer than a run.  A fixed OCaml kernel (native/calib.ml) slows down in
step.  So each run samples the kernel between measurements (never during
one), takes the median of its samples as the run's slowdown against
REFERENCE_S, divides every time by it and multiplies every rate by it.
The raw values are printed beside.  The kernel links no library of this
repository, so no change to the program under test can move it.
"""

import subprocess

import stats

REFERENCE_S = 0.029  # the kernel's typical CPU time on a 2-vCPU VM


class Speed:
    def __init__(self, kernel_exe):
        self.exe = kernel_exe
        self.samples = []

    def sample(self, k=1):
        """Run the kernel [k] times and keep its CPU seconds."""
        for _ in range(k):
            out = subprocess.run([self.exe], stdin=subprocess.DEVNULL, capture_output=True,
                                 text=True, timeout=30, check=True)
            self.samples.append(float(out.stdout))

    def slowdown(self):
        """The run's median kernel time over the reference."""
        return stats.median(self.samples) / REFERENCE_S

    def time(self, raw, unit, n):
        """A metric tuple (value, unit, samples, raw value) for a time."""
        return (raw / self.slowdown(), unit, n, raw)

    def rate(self, raw, unit, n):
        """A metric tuple for a rate."""
        return (raw * self.slowdown(), unit, n, raw)
