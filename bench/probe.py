"""Reference probes: fixed work timed beside each pass to divide out core speed.

The shared cores this benchmark runs on change speed by 20-50% over seconds
and minutes, and CPU time changes with them, so a pass's wall time says as
much about the machine at that moment as about the program. A probe is a
fixed piece of work, independent of the program and of ``--seed``, timed
right after each pass in the same process. A pass's time divided by the
probe times around it is steady while the cores speed up and slow down,
and still moves with any change to the program.

Each workload is divided by the probes that resemble where its time goes:

- ``python``: interpreter work like the MRT parser's (``struct`` unpacking,
  dict counting, list appends);
- ``numpy``: single-threaded BLAS at the autoencoder's shapes (a 10,000 x
  100 batch through 100 x 100 weights, forward and gradient).
"""

from __future__ import annotations

import struct
import time

REPEATS = 3
SHARE = 0.05
_BLOB = bytes(range(256)) * 600


def _python() -> None:
    counts, out = {}, []
    unpack = struct.unpack_from
    for _ in range(3):
        for offset in range(0, len(_BLOB) - 8, 8):
            a, b, _c = unpack(">HIH", _BLOB, offset)
            key = (a ^ b) & 1023
            counts[key] = counts.get(key, 0) + 1
            out.append(a + b)


class _Numpy:
    def __init__(self) -> None:
        import numpy as np

        rng = np.random.default_rng(0)
        self.np = np
        self.x = rng.random((10_000, 100))
        self.w1 = rng.standard_normal((100, 100)) * 0.1
        self.w2 = rng.standard_normal((100, 100)) * 0.1

    def __call__(self) -> None:
        np, x, w1, w2 = self.np, self.x, self.w1, self.w2
        h = np.tanh(x @ w1.T)
        r = h @ w2.T - x
        r.T @ h
        ((r @ w2) * (1.0 - h * h)).T @ x
        float(np.sum(r * r))


class Probe:
    """Times the named probes; ``measure()`` is the sum of their medians.

    The module imports nothing that ``bgpnovelty.cli`` does not, so the chain
    process's ``peak_rss_mb`` is the program's alone.

    Each probe runs at least ``REPEATS`` times and, after a long pass, for
    at least ``SHARE`` of that pass's time, so the yardstick of a pass that
    lasts seconds rests on more than a few tens of milliseconds of probing.
    """

    KINDS = ("python", "numpy")

    def __init__(self, kinds: list[str]) -> None:
        unknown = set(kinds) - set(self.KINDS)
        if not kinds or unknown:
            raise ValueError(f"probe kinds must be a non-empty subset of {self.KINDS}, not {kinds}")
        self.kinds = list(kinds)
        self._work = None

    def measure(self, pass_s: float) -> float:
        """Probe time to set beside a pass that took ``pass_s`` seconds."""
        if self._work is None:  # built on first use, after the first pass's peak RSS is read
            self._work = [_python if kind == "python" else _Numpy() for kind in self.kinds]
        least = SHARE * pass_s / len(self._work)
        total = 0.0
        for work in self._work:
            times = []
            while len(times) < REPEATS or sum(times) < least:
                began = time.perf_counter()
                work()
                times.append(time.perf_counter() - began)
            times.sort()
            total += times[len(times) // 2]
        return total
