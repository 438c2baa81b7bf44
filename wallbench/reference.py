"""The yardstick: a fixed kernel that tells how fast the machine is now.

The sandbox this benchmark runs in slows down and speeds up by a third
for minutes at a time, and everything on it moves together: over
20-second windows a pass of any workload and this kernel correlate at
0.9 and better.  So a trial times the kernel before every measured
pass, and the end-to-end times are reported at *reference speed*: wall
seconds × (``reference_nominal_s`` ÷ the kernel's median in the same
run).  On a machine as fast as the one the sizes were tuned on that
factor is 1; during a slow stretch it cancels the stretch.

The kernel is this file's own code and calls nothing of the program, so
no change to the program can move it.  It allocates, sorts and encodes
(what the program's Python mostly does) and then spins.
"""

from __future__ import annotations

import time

CHUNKS = 14          # small chunks: the kernel must not set the peak RSS
ROWS = 2000
SPINS = 450000


def kernel() -> int:
    total = 0
    for chunk in range(CHUNKS):
        rows = [
            {"a": i, "b": str(i), "c": (i, i + 1)}
            for i in range(chunk * ROWS, (chunk + 1) * ROWS)
        ]
        rows.sort(key=lambda row: row["b"])
        out = bytearray()
        for row in rows:
            out += row["b"].encode()
        total += len(out)
    for i in range(SPINS):
        total += i * i
    return total


def seconds() -> float:
    start = time.perf_counter()
    kernel()
    return time.perf_counter() - start
