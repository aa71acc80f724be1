"""A speed reference that shares the benchmark child's CPU.

On a shared host the speed of a virtual CPU drifts by 15-35% over seconds to
minutes, and the two virtual CPUs drift independently of each other.  A call
that takes several seconds integrates that drift, so its raw time says as much
about the host as about the program.  This module measures the drift where it
happens: a sampler process, pinned to the same CPU as the child, wakes every
INTERVAL_S seconds and times a fixed pure-Python chunk by its own CPU time.
The mean chunk time over the call's interval is the speed the call ran at.
The chunk mixes arithmetic, scattered memory reads and small allocations,
because the host slows each of them by a different amount at different
times; a chunk of arithmetic alone followed the library's speed less well.

A child's CPU time multiplied by ``factor()`` is its CPU time at the
reference speed: the speed at which one chunk takes REF_CHUNK_S seconds.
REF_CHUNK_S is a fixed unit, set near the median chunk time on the 2-vCPU
Xeon at 2.1 GHz the seed baseline was measured on, so the normalised seconds
read close to the raw ones there.

Run as a program, this file is the sampler:

    python3 bench/speedref.py

It prints ``ready`` once it samples, and on SIGTERM prints the samples as one
JSON list of [CLOCK_MONOTONIC reading, chunk CPU seconds] and exits.
"""

from __future__ import annotations

import json
import os
import signal
import statistics
import subprocess
import sys
import time

INTERVAL_S = 0.02  # sleep between chunks; a chunk takes 2-3 ms
REF_CHUNK_S = 2.6e-3
MIN_WINDOW_S = 1.0  # a shorter interval is widened to this, centred, to hold enough samples
HEAP_BYTES = 64 << 20  # larger than the last-level cache, so random reads reach memory


def pinned_cpu():
    """The CPU that the sampler and every benchmark child share."""
    return max(os.sched_getaffinity(0))


def chunk(heap):
    """A fixed mix of what the library spends its time on: interpreter
    arithmetic, reads scattered over a large heap, and building and sorting
    small dicts of tuples and frozensets."""
    s = 0
    for i in range(3_000):
        s += i * i % 7
    x, n = 12_345, len(heap)
    for _ in range(3_300):
        x = (x * 1_103_515_245 + 12_345) & 0x7FFF_FFFF
        s += heap[x % n]
    d = {}
    for i in range(1_000):
        d[(i, i & 7)] = frozenset((i, i + 1, i & 3))
    return s + sorted(d, key=lambda k: -k[0])[0][0]


class _Stop(Exception):
    pass


def _stop(signum, frame):
    raise _Stop


def sample():
    heap = bytearray(range(256)) * (HEAP_BYTES // 256)  # written, so every page is backed
    samples = []
    signal.signal(signal.SIGTERM, _stop)
    try:
        print("ready", flush=True)
        while True:
            time.sleep(INTERVAL_S)
            started = time.thread_time()
            chunk(heap)
            samples.append((time.monotonic(), time.thread_time() - started))
    except _Stop:
        pass
    print(json.dumps(samples), flush=True)


class Sampler:
    """The sampler process, pinned to ``cpu``, as a context manager.

    ``samples`` is filled when the context exits; the process has ended by then.
    """

    def __init__(self, cpu):
        self.cpu = cpu
        self.samples = None
        self.proc = None

    def __enter__(self):
        self.proc = subprocess.Popen(
            [sys.executable, os.path.abspath(__file__)],
            stdout=subprocess.PIPE,
            text=True,
            preexec_fn=lambda: os.sched_setaffinity(0, {self.cpu}),
        )
        if self.proc.stdout.readline().strip() != "ready":
            self.proc.kill()
            self.proc.wait()
            raise RuntimeError("the speed sampler did not start")
        return self

    def __exit__(self, *exc):
        self.proc.send_signal(signal.SIGTERM)
        try:
            out, _ = self.proc.communicate(timeout=30)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
            raise
        if self.proc.returncode == 0:
            self.samples = json.loads(out.strip().splitlines()[-1])
        elif exc[0] is None:
            raise RuntimeError(f"the speed sampler exited {self.proc.returncode}")

    def factor(self, start, end):
        """Speed of the interval [start, end] relative to the reference speed.

        A CPU time measured in the interval, multiplied by this, is the CPU
        time at the reference speed.  Below 1 means slower than the reference.
        """
        pad = max(0.0, (MIN_WINDOW_S - (end - start)) / 2)
        window = [c for t, c in self.samples if start - pad <= t <= end + pad]
        if len(window) < 5:
            raise RuntimeError(f"{len(window)} speed samples in [{start:.3f}, {end:.3f}]")
        return REF_CHUNK_S / statistics.fmean(window)


if __name__ == "__main__":
    sample()
