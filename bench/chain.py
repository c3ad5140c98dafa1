"""Closed-loop runner: one process runs a workload's CLI commands in turn.

    python3 chain.py PLAN.json RESULT.json

PLAN.json holds ``commands`` (argv lists for ``bgpnovelty.cli.main``, run
in the current directory), ``outputs`` (the files each command writes),
``probe`` (the reference probes, see ``probe.py``), ``seconds`` and
``trace``. The runner repeats the whole chain while half of another pass,
as long as the last one, still fits in ``seconds``, and runs at least two
passes: the first one warms caches and lazy set-up. With ``trace`` set,
passes alternate between untraced and traced, starting untraced, so both
kinds see the same mix of machine speeds. After each pass the runner hashes
the outputs, outside the timed region, so every pass can be checked against
the last one, and times the reference probe, so every pass has the probe
time right after it (``probe_s``). RESULT.json receives the per-pass
timings, probe times, exit codes and digests, and the spans of the traced
passes.

``peak_rss_mb`` is the peak resident set after the first pass, when the
process has done nothing but import ``bgpnovelty.cli`` and run the chain
once: the memory one CLI process needs.
"""

from __future__ import annotations

import hashlib
import json
import resource
import sys
import time
import traceback
from pathlib import Path

from bgpnovelty import cli
from probe import Probe


def run_pass(commands: list[list[str]], outputs: list[list[str]]) -> dict:
    seconds, codes = [], []
    began = time.perf_counter()
    for argv in commands:
        started = time.perf_counter()
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 2
        except Exception:  # a crash is one failed operation, not the end of the run
            traceback.print_exc()
            code = "exception"
        seconds.append(time.perf_counter() - started)
        codes.append(code)
    wall = time.perf_counter() - began
    digests = [{name: _sha256(Path(name)) for name in files} for files in outputs]
    return {"wall_s": wall, "seconds": seconds, "exit": codes, "digests": digests}


def _peak_rss_mb() -> float:
    """High-water resident set of this process image.

    ``VmHWM`` starts afresh at exec; ``ru_maxrss`` would also count the
    parent's pages from before the exec.
    """
    try:
        for line in Path("/proc/self/status").read_text().splitlines():
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _sha256(path: Path) -> str | None:
    try:
        return hashlib.sha256(path.read_bytes()).hexdigest()
    except OSError:
        return None


def main(plan_path: str, result_path: str) -> int:
    plan = json.loads(Path(plan_path).read_text())
    probe = Probe(plan["probe"])
    tracer = None
    if plan["trace"]:
        import tracing

        tracer = tracing.Tracer()
    passes, spans = [], []
    began = time.perf_counter()
    while True:
        traced = tracer is not None and len(passes) % 2 == 1
        if traced:
            tracer.install()
        result = run_pass(plan["commands"], plan["outputs"])
        if traced:
            tracer.uninstall()
            spans.append(tracer.take())
        result["traced"] = traced
        if not passes:
            peak_rss_mb = _peak_rss_mb()
        result["probe_s"] = probe.measure(result["wall_s"])
        passes.append(result)
        fits = time.perf_counter() - began + result["wall_s"] / 2 <= plan["seconds"]
        if not fits and len(passes) >= 2:
            break
    unmeasured = tracer.unmeasured if tracer is not None else []
    Path(result_path).write_text(json.dumps({
        "passes": passes, "spans": spans, "unmeasured": unmeasured, "peak_rss_mb": peak_rss_mb,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main(*sys.argv[1:]))
