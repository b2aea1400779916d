"""Timings in seconds at a fixed reference CPU speed.

On a host shared with other load, the same pure-Python loop can run up to
about 2x slower for tens of seconds at a time (measured on a 2-vCPU VM:
119 to 206 ms for one fixed loop within a minute; process CPU time slows
the same way, so it is the CPU, not the scheduler).  Raw wall times of two
runs then differ by more than any change worth detecting.

So while the benchmark works, a timer signal runs a fixed piece of
pure-Python work that shares no code with the solver, `probe()`, every
`PROBE_EVERY_S` seconds.  Wall time between two probes, less the probe,
is scaled by `REFERENCE_PROBE_S / (mean length of the two probes)`.  The
result is the time a span would take on a machine where one probe takes
`REFERENCE_PROBE_S`; on a quiet host of the kind the benchmark was set up
on, that is about its wall time.  The scale follows host speed, never
solver speed: the probe calls nothing in `bulkrobust`.
"""

import bisect
import heapq
import signal
from time import perf_counter

PROBE_EVERY_S = 0.02
# Chosen so that scaled times match wall times measured while the host
# was quiet (a 2-vCPU VM).
REFERENCE_PROBE_S = 0.0004


def probe():
    """Seconds taken by fixed dict, set, heap and call work (~0.3 ms)."""
    start = perf_counter()
    nodes = 127
    adj = {v: ((v + 1) % nodes, (v * 5 + 3) % nodes, (v * 11 + 7) % nodes)
           for v in range(nodes)}
    dist = {0: 0}
    heap = [(0, 0)]
    while heap:
        d, v = heapq.heappop(heap)
        if d > dist[v]:
            continue
        for w in adj[v]:
            nd = d + 1 + (v ^ w) % 3
            if nd < dist.get(w, 1 << 30):
                dist[w] = nd
                heapq.heappush(heap, (nd, w))
    odd = frozenset(v for v, d in dist.items() if d % 2)
    parent = list(range(nodes))

    def find(x):
        while parent[x] != x:
            x = parent[x]
        return x

    for _ in range(2):
        for v in range(nodes):
            for w in adj[v]:
                a, b = find(v), find(w)
                if a != b and (a in odd) == (b in odd):
                    parent[max(a, b)] = min(a, b)
        parent = list(range(nodes))
    return perf_counter() - start


class SpeedProbe:
    """Runs `probe()` every `PROBE_EVERY_S` from a SIGALRM handler, so the
    probes interleave with whatever the main thread is doing.  After the
    block, `reference(t)` maps a wall-clock time `t` inside it to seconds
    at the reference speed: between two probes, time less the second
    probe is scaled by the mean length of the two.  The map is monotone,
    so nested spans keep nonnegative self times."""

    def __enter__(self):
        self.ends, self.lengths = [], []     # end time and duration of each probe
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        self._tick()
        signal.setitimer(signal.ITIMER_REAL, PROBE_EVERY_S, PROBE_EVERY_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        self._tick()
        e, n = self.ends, self.lengths
        self._scale = [REFERENCE_PROBE_S / ((n[k - 1] + n[k]) / 2) for k in range(1, len(e))]
        self._at = [0.0]
        for k in range(1, len(e)):
            self._at.append(self._at[-1] + (e[k] - n[k] - e[k - 1]) * self._scale[k - 1])

    def _tick(self, *_):
        length = probe()
        self.ends.append(perf_counter())
        self.lengths.append(length)

    def reference(self, t):
        """Seconds at the reference speed from the first probe's end to `t`."""
        e = self.ends
        k = min(max(bisect.bisect_left(e, t), 1), len(e) - 1)   # t in (e[k-1], e[k]]
        work = min(t - e[k - 1], e[k] - self.lengths[k] - e[k - 1])
        return self._at[k - 1] + work * self._scale[k - 1]

    def scaled(self, start, end):
        """Length of the wall-clock span from `start` to `end`, less the
        probes in it, at the reference speed."""
        return self.reference(end) - self.reference(start)
