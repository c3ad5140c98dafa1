"""Benchmark entry point: seeded workloads through the bgpnovelty CLI.

    python3 bench/run.py --workload ingest_mrt|train_week|score_month \
        --seed N --seconds S --trace 0|1

Run from the repository root; the package is taken from ``src/``. One run:

1. generates the workload's inputs from ``--seed`` into a scratch directory
   under ``.bench_run/`` and does the untimed set-up there;
2. runs the workload's command chain in one child process, pass after
   pass, for ``--seconds`` seconds. With ``--trace 0`` it also times how
   long a fresh interpreter takes to import ``bgpnovelty.cli``
   (``setup_s``), before and after the chain. With ``--trace 1`` the child
   alternates untraced and traced passes. After each pass the child times
   a fixed reference probe (``probe.py``), and ``wall_ref`` is the median
   over untraced passes after the first, which warms up, of the pass's wall
   time divided by the probe times on either side of it;
3. checks every pass's outputs, prints each metric on its own line, and
   prints one JSON object as the last line of standard output.

BLAS is pinned to one thread in every process the benchmark starts, so
timings do not depend on how many cores happen to be idle.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
RUNS = ROOT / ".bench_run"

BLAS_THREADS = 1
THREAD_ENV = {name: str(BLAS_THREADS) for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")}
DEFAULT_SEED = 1
SETUP_REPEATS = 9
# The chain child gets the measuring time plus room for one long pass.
CHILD_GRACE_S = 90
# End-to-end figures printed for people but kept out of the JSON, which must
# carry the same non-zero metrics on every workload (see bench/README.md).
EXTRA_METRICS = ("error_rate", "mrt_mb_per_s", "cycles_per_s", "minutes_per_s", "final_loss", "lead_min")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, help="measuring time (default: run_seconds in BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "bgpnovelty" / "cli.py").is_file():
        print(f"error: no package source at {SRC / 'bgpnovelty'}; run from a full checkout", file=sys.stderr)
        return 2
    config = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    if args.seconds is None:
        args.seconds = float(config["run_seconds"])
    os.environ.update(THREAD_ENV)  # before numpy is first imported
    sys.path.insert(0, str(SRC))
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from {sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2

    work = RUNS / f"{args.workload}-{args.seed}-{os.getpid()}"
    work.mkdir(parents=True)
    here = Path.cwd()
    try:
        os.chdir(work)
        summary = run(args, config, work, workloads)
    finally:
        os.chdir(here)
        shutil.rmtree(work, ignore_errors=True)
    (RUNS / f"last-{args.workload}-trace{args.trace}.json").write_text(json.dumps(summary, indent=1) + "\n")
    print(json.dumps(summary["result"]))
    return 0


def run(args, config: dict, work: Path, workloads) -> dict:
    # Imports are timed on both sides of the chain, so that setup_s does not
    # hinge on the speed of the shared cores at one moment.
    imports = [] if args.trace else import_times(SETUP_REPEATS // 2, work)
    plan = workloads.WORKLOADS[args.workload](work, args.seed)
    chain = run_chain(plan, work, args.seconds, bool(args.trace))
    peak_rss_mb = chain["peak_rss_mb"]
    if not args.trace:
        imports += import_times(SETUP_REPEATS - len(imports), work)
    passes = chain["passes"]
    untraced = [p["wall_s"] for p in passes if not p["traced"]]
    traced = [p["wall_s"] for p in passes if p["traced"]]
    # The first pass warms caches and lazy set-up, so the timed figures leave
    # it out, unless a traced run has no other untraced pass.
    timed = [i for i, p in enumerate(passes) if i > 0 and not p["traced"]] or [0]
    ratios = probe_ratios(passes)
    wall_ref = statistics.median(ratios[i] for i in timed)
    wall_s = statistics.median(passes[i]["wall_s"] for i in timed)

    failures = operation_failures(plan, passes)
    attempted = sum(len(p["exit"]) for p in passes)
    try:
        quality = plan.quality()
    except Exception as exc:  # the untimed follow-up uses the last pass's outputs
        quality = {}
        failures.setdefault((len(passes) - 1, 0), f"untimed follow-up failed: {type(exc).__name__}: {exc}")
    last_digests = {name: d for files in passes[-1]["digests"] for name, d in files.items()}
    golden = last_digests.get(plan.golden) if plan.golden else None

    report = [f"workload {args.workload} seed {args.seed}: {len(untraced)} untraced and {len(traced)} traced passes"]
    if args.trace:
        values, flagged = tracing_metrics(chain, plan, quality, traced, untraced)
        metrics = _select(config["per_layer"], values)
        report += [f"  {name:28s} {m['value']:.6g} {m['unit']}" for name, m in metrics.items()]
        if chain["unmeasured"]:
            report.append(f"  unmeasured functions: {', '.join(chain['unmeasured'])}")
        if flagged:
            report.append(f"  metrics left at 0 because a function or count is missing: {', '.join(flagged)}")
    else:
        setup_s = statistics.median(imports)
        metrics = _select(config["end_to_end"], {"setup_s": setup_s, "wall_ref": wall_ref, "peak_rss_mb": peak_rss_mb})
        probes = [p["probe_s"] for p in passes]
        report += [
            f"  wall_ref       {wall_ref:.4f} ref  (median of {len(timed)} passes after a warm-up pass, each "
            f"divided by the {'+'.join(plan.probe)} probe times around it)",
            f"  wall_s         {wall_s:.4f} s  (the same passes as measured; fastest {min(untraced):.4f}, "
            f"slowest {max(untraced):.4f} of all {len(untraced)}; probe median {statistics.median(probes):.4f} s)",
            f"  setup_s        {setup_s:.4f} s  (median of {len(imports)} fresh imports of bgpnovelty.cli)",
            f"  peak_rss_mb    {peak_rss_mb:.1f} MB",
        ]
    extra = {"error_rate": (len(failures) / attempted, f"({len(failures)} of {attempted} operations failed)")}
    if plan.throughput:
        name, unit, work_units = plan.throughput
        extra[name] = (work_units / wall_s, unit)
    extra.update(quality)
    for name in EXTRA_METRICS:
        value, unit = extra.get(name, (math.nan, "(not part of this workload)"))
        report.append(f"  {name:14s} {'n/a' if math.isnan(value) else format(value, '.6g')} {unit}")
    if golden:
        report.append(f"  golden {plan.golden} sha256 {golden} ({golden_status(args, plan.golden, golden)})")
    for (pass_index, command), message in sorted(failures.items()):
        report.append(f"  FAILED pass {pass_index} command {command}: {message}")
    env = environment()
    report.append("  env " + json.dumps(env, sort_keys=True))
    print("\n".join(report))

    result = {
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": metrics,
    }
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "env": env,
        "passes": [{k: p[k] for k in ("wall_s", "probe_s", "seconds", "traced")} for p in passes],
        "quality": {name: value for name, (value, _) in quality.items()},
        "golden": {plan.golden: golden} if golden else {},
        "result": result,
    }


def import_times(repeats: int, work: Path) -> list[float]:
    """Seconds a fresh interpreter takes to import ``bgpnovelty.cli``, once per repeat."""
    code = "import time; t = time.perf_counter(); import bgpnovelty.cli; print(time.perf_counter() - t)"
    times = []
    for _ in range(repeats):
        done = subprocess.run(
            [sys.executable, "-c", code], cwd=work, env=_child_env(), capture_output=True, text=True,
            check=True, timeout=60,
        )
        times.append(float(done.stdout))
    return times


def run_chain(plan, work: Path, seconds: float, trace: bool) -> dict:
    """Run the chain in one child and return its result."""
    (work / "plan.json").write_text(json.dumps({
        "commands": plan.commands, "outputs": plan.outputs, "probe": plan.probe, "seconds": seconds, "trace": trace,
    }))
    with open(work / "chain.log", "wb") as log:
        child = subprocess.Popen(
            [sys.executable, str(BENCH / "chain.py"), "plan.json", "result.json"],
            cwd=work, env=_child_env(), stdout=log, stderr=subprocess.STDOUT,
        )
        try:
            child.wait(timeout=seconds + CHILD_GRACE_S)
        except subprocess.TimeoutExpired:
            child.kill()
            child.wait()
    if child.returncode != 0:
        tail = (work / "chain.log").read_text(errors="replace")[-2000:]
        raise RuntimeError(f"chain runner exited with {child.returncode}:\n{tail}")
    return json.loads((work / "result.json").read_text())


def probe_ratios(passes: list[dict]) -> list[float]:
    """Each pass's wall time over the mean of the probe times before and after it.

    The first pass has no probe before it: the first probe runs after the
    first pass, so that ``peak_rss_mb`` does not count the probe's arrays.
    """
    ratios, before = [], None
    for p in passes:
        after = p["probe_s"]
        ratios.append(p["wall_s"] / (after if before is None else (before + after) / 2))
        before = after
    return ratios


def operation_failures(plan, passes: list[dict]) -> dict[tuple[int, int], str]:
    """Failed operations, keyed by (pass, command).

    The last pass's outputs go through the workload's checks; a failed check
    fails that command in every pass, since earlier passes must have written
    the same bytes. An earlier pass whose outputs differ from the last
    pass's fails on its own.
    """
    failures = {}
    for i, p in enumerate(passes):
        for c, code in enumerate(p["exit"]):
            if code != 0:
                failures[(i, c)] = f"exit status {code}"
            elif p["digests"][c] != passes[-1]["digests"][c]:
                failures[(i, c)] = "outputs differ from the last pass"
    try:
        problems = plan.check()
    except Exception as exc:  # a check that cannot read the outputs is a failed check
        problems = [(0, f"check raised {type(exc).__name__}: {exc}")]
    for c, message in problems:
        for i in range(len(passes)):
            failures.setdefault((i, c), message)
    return failures


def tracing_metrics(chain: dict, plan, quality: dict, traced: list[float], untraced: list[float]):
    """Per-layer metrics of the fastest traced pass, so that they add up within one pass."""
    import tracing

    context = {"mrt_bytes": 0, "mrt_records": 0} | plan.context
    fastest = chain["spans"][traced.index(min(traced))]
    values, flagged = tracing.layer_metrics(fastest, chain["unmeasured"], context)
    values["trace.overhead_s"] = min(traced) - min(untraced)
    values["trace.unmeasured"] = float(len(chain["unmeasured"]))
    for name, key in (("scg.final_loss", "final_loss"), ("detector.lead_min", "lead_min")):
        value = quality.get(key, (0.0, ""))[0]
        values[name] = 0.0 if math.isnan(value) else value
    return values, flagged


def _select(declared: list[dict], values: dict) -> dict:
    """The declared metrics, in declared order, with their declared units."""
    missing = [m["name"] for m in declared if m["name"] not in values]
    if missing:
        raise RuntimeError(f"BENCHMARK.json names metrics this run did not compute: {missing}")
    return {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared}


def golden_status(args, name: str, digest: str) -> str:
    if args.seed != DEFAULT_SEED:
        return f"golden digests are recorded at seed {DEFAULT_SEED}"
    try:
        recorded = json.loads((BENCH / "baseline.json").read_text())["golden"][args.workload][name]
    except (OSError, KeyError, ValueError):
        return "no recorded golden digest"
    return "matches the recorded baseline" if recorded == digest else "differs from the recorded baseline"


def _child_env() -> dict:
    return dict(os.environ, PYTHONPATH=str(SRC), **THREAD_ENV)


def environment() -> dict:
    import numpy

    cpu = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')} ({blas.get('openblas configuration', '')})".strip()
    except (TypeError, KeyError):
        blas = "unknown"
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": " ".join(blas.split()),
        "blas_threads": BLAS_THREADS,
    }


if __name__ == "__main__":
    sys.exit(main())
