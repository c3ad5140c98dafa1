"""Span tracing around the package's public functions, from outside.

The tracer replaces each target function with a wrapper in the namespace
its caller resolves it from: ``scg.sse_loss`` rather than
``autoencoder.sse_loss``, because ``scg`` imported the name, and
``cli``-reached functions on their module objects, because the CLI calls
``series.read_bucket_csv`` through the module attribute. Spans are kept in
memory with their parent span, and self times are derived from them.

Per-row helpers (``parse_minute_utc``, ``format_minute_utc``) stay
unwrapped: a span per row would cost more than the work it times. A target
that no longer exists is reported as unmeasured instead of failing the run,
so a later rename shows up as a flagged metric.
"""

from __future__ import annotations

import functools
import importlib
import time

# (namespace module, attribute) pairs, named as the caller resolves them.
TARGETS = (
    ("cli", "main"),
    ("cli", "cmd_ingest"),
    ("cli", "cmd_train"),
    ("cli", "cmd_score"),
    ("cli", "cmd_detect"),
    ("cli", "cmd_compare"),
    ("mrt", "parse_mrt_stream"),
    ("series", "bucketize"),
    ("series", "write_bucket_csv"),
    ("series", "read_bucket_csv"),
    ("series", "slice_range"),
    ("features", "fit_normalization"),
    ("features", "make_windows"),
    ("scg", "window_matrix"),
    ("detector", "window_matrix"),
    ("autoencoder", "init_model"),
    ("autoencoder", "load_model"),
    ("autoencoder", "save_model"),
    ("scg", "train"),
    ("scg", "scg_minimize"),
    ("scg", "sse_loss"),
    ("scg", "gradient"),
    ("scg", "unflatten_params"),
    ("detector", "reconstruct"),
    ("detector", "score_series"),
    ("detector", "write_novelty_csv"),
    ("detector", "read_novelty_csv"),
    ("detector", "suggest_threshold"),
    ("detector", "detect_alarms"),
    ("detector", "write_alarm_report"),
    ("detector", "read_alarm_report"),
    ("detector", "lead_time"),
)


def _cycles_run(result) -> int:
    return result[1].cycles_run


# Item counts recorded at a span's end, taken from the call's result.
ITEM_COUNTS = {
    "mrt.parse_mrt_stream": len,
    "series.read_bucket_csv": len,
    "features.make_windows": len,
    "detector.score_series": len,
    "detector.detect_alarms": len,
    "scg.train": _cycles_run,
}


class Tracer:
    """Wraps the targets and records ``[id, parent, name, layer, start, end, items]`` spans."""

    def __init__(self):
        self.spans: list[list] = []
        self.unmeasured: list[str] = []
        self._stack: list[int] = []
        self._originals: list[tuple] = []

    def install(self) -> None:
        self.unmeasured = []
        for module_name, attr in TARGETS:
            module = importlib.import_module(f"bgpnovelty.{module_name}")
            fn = getattr(module, attr, None)
            if callable(fn):
                self._originals.append((module, attr, fn))
                setattr(module, attr, self._wrap(f"{module_name}.{attr}", fn))
            else:
                self.unmeasured.append(f"{module_name}.{attr}")

    def uninstall(self) -> None:
        """Put the original functions back."""
        for module, attr, fn in reversed(self._originals):
            setattr(module, attr, fn)
        self._originals = []

    def take(self) -> list[list]:
        """Hand over the spans recorded so far and start a fresh list."""
        spans, self.spans = self.spans, []
        return spans

    def _wrap(self, name: str, fn):
        layer = getattr(fn, "__module__", "").rsplit(".", 1)[-1]
        count = ITEM_COUNTS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [len(self.spans), self._stack[-1] if self._stack else -1, name, layer, 0.0, 0.0, None]
            self.spans.append(span)
            self._stack.append(span[0])
            span[4] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[5] = time.perf_counter()
                self._stack.pop()
            if count is not None:
                try:
                    span[6] = count(result)
                except (TypeError, AttributeError, IndexError):
                    pass
            return result

        return traced


class PassStats:
    """Totals per span name and self time per layer for one traced pass.

    Every accessor remembers the targets it read, so a metric built from a
    target the tracer could not find is flagged as unmeasured.
    """

    def __init__(self, spans: list[list]):
        covered = [0.0] * len(spans)
        for _, parent, _, _, start, end, _ in spans:
            if parent >= 0:
                covered[parent] += end - start
        self._calls: dict[str, int] = {}
        self._seconds: dict[str, float] = {}
        self._items: dict[str, int] = {}
        self.uncounted: set[str] = set()
        self._self_s: dict[str, float] = {}
        for span_id, _, name, layer, start, end, items in spans:
            self._calls[name] = self._calls.get(name, 0) + 1
            self._seconds[name] = self._seconds.get(name, 0.0) + (end - start)
            if items is None and name in ITEM_COUNTS:
                self.uncounted.add(f"{name}:items")
            self._items[name] = self._items.get(name, 0) + (items or 0)
            self._self_s[layer] = self._self_s.get(layer, 0.0) + (end - start - covered[span_id])
        self.used: set[str] = set()

    def seconds(self, *names: str) -> float:
        self.used.update(names)
        return sum(self._seconds.get(n, 0.0) for n in names)

    def calls(self, name: str) -> int:
        self.used.add(name)
        return self._calls.get(name, 0)

    def items(self, name: str) -> int:
        self.used.update((name, f"{name}:items"))
        return self._items.get(name, 0)

    def self_s(self, layer: str) -> float:
        return self._self_s.get(layer, 0.0)


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def _pass_metrics(s: PassStats, ctx: dict) -> dict[str, tuple[float, set[str]]]:
    """Every per-layer metric for one pass, with the targets it depends on."""
    metrics = {}

    def put(name, fn):
        s.used = set()
        metrics[name] = (float(fn()), s.used)

    for cmd in ("ingest", "train", "score", "detect", "compare"):
        put(f"cli.{cmd}_s", lambda: s.seconds(f"cli.cmd_{cmd}"))
    put("cli.self_s", lambda: s.self_s("cli"))

    put("mrt.parse_s", lambda: s.seconds("mrt.parse_mrt_stream"))
    put("mrt.mb_per_s", lambda: _ratio(ctx["mrt_bytes"] / 1e6, s.seconds("mrt.parse_mrt_stream")))
    put("mrt.updates_out", lambda: s.items("mrt.parse_mrt_stream"))
    put("mrt.update_ratio", lambda: _ratio(s.items("mrt.parse_mrt_stream"), ctx["mrt_records"]))

    put("series.bucketize_s", lambda: s.seconds("series.bucketize"))
    put("series.write_csv_s", lambda: s.seconds("series.write_bucket_csv"))
    put("series.read_csv_s", lambda: s.seconds("series.read_bucket_csv"))
    put("series.rows_read", lambda: s.items("series.read_bucket_csv"))

    put("features.make_windows_s", lambda: s.seconds("features.make_windows"))
    put("features.window_matrix_s", lambda: s.seconds("scg.window_matrix", "detector.window_matrix"))
    put("features.windows", lambda: s.items("features.make_windows"))

    put("autoencoder.loss_calls", lambda: s.calls("scg.sse_loss"))
    put("autoencoder.loss_s", lambda: s.seconds("scg.sse_loss"))
    put("autoencoder.grad_calls", lambda: s.calls("scg.gradient"))
    put("autoencoder.grad_s", lambda: s.seconds("scg.gradient"))
    put("autoencoder.unflatten_s", lambda: s.seconds("scg.unflatten_params"))
    put("autoencoder.reconstruct_s", lambda: s.seconds("detector.reconstruct"))
    put("autoencoder.load_s", lambda: s.seconds("autoencoder.load_model"))
    put("autoencoder.save_s", lambda: s.seconds("autoencoder.save_model"))

    # Evaluations per cycle leave out the one at the start point; every
    # gradient after it is taken at an accepted step.
    put("scg.train_s", lambda: s.seconds("scg.train"))
    put("scg.self_s", lambda: s.self_s("scg"))
    put("scg.cycles", lambda: s.items("scg.train"))
    put("scg.ms_per_cycle", lambda: _ratio(1000.0 * s.seconds("scg.train"), s.items("scg.train")))
    put("scg.f_evals_per_cycle", lambda: _ratio(max(s.calls("scg.sse_loss") - 1, 0), s.items("scg.train")))
    put("scg.g_evals_per_cycle", lambda: _ratio(max(s.calls("scg.gradient") - 1, 0), s.items("scg.train")))
    put("scg.accept_ratio", lambda: _ratio(max(s.calls("scg.gradient") - 1, 0), s.items("scg.train")))

    put("detector.score_series_s", lambda: s.seconds("detector.score_series"))
    put("detector.write_novelty_s", lambda: s.seconds("detector.write_novelty_csv"))
    put("detector.read_novelty_s", lambda: s.seconds("detector.read_novelty_csv"))
    put("detector.threshold_s", lambda: s.seconds("detector.suggest_threshold"))
    put("detector.detect_alarms_s", lambda: s.seconds("detector.detect_alarms"))
    put("detector.lead_time_s", lambda: s.seconds("detector.lead_time"))
    put("detector.points", lambda: s.items("detector.score_series"))
    put("detector.events", lambda: s.items("detector.detect_alarms"))
    return metrics


def layer_metrics(spans: list[list], unmeasured: list[str], ctx: dict) -> tuple[dict[str, float], list[str]]:
    """Every per-layer metric of one traced pass.

    Returns the metrics and the names of those that read a target the
    tracer could not wrap, or a count the result did not carry; those read 0.
    """
    stats = PassStats(spans)
    missing = set(unmeasured) | stats.uncounted
    values, flagged = {}, []
    for name, (value, used) in _pass_metrics(stats, ctx).items():
        if used & missing:
            flagged.append(name)
            value = 0.0
        values[name] = value
    return values, flagged
