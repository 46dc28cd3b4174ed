"""Spans around the program's public functions, and the per-layer metrics
computed from them.

Tracer.install replaces each traced function by a wrapper under every name
a photodyne module binds it to, so the wrapper sits where callers look the
function up (photodyne.cli.save_photocurrent, photodyne.quantum.steady_state,
...). Each call records a span: name, start, end, parent and a few counts
taken from its arguments and result. Spans stay in memory until the run ends.
"""
from __future__ import annotations

import contextlib
import functools
import inspect
import os
import sys
import time
from statistics import median

import numpy as np
from photodyne.detection import THINNING_MARGIN


def _unravel_attrs(args, item):
    grid = args["grid"]
    return {
        "traj_steps": int(round(args["burn_in"] / grid.dt)) + grid.n_samples,
        "clicks": item.counts.n_events,
        "atom_jumps": item.atom_jumps,
    }


def _counts_attrs(args, result):
    peak = args["efficiency"] * float(np.max(args["intensity"])) + args["dark_rate"]
    return {"events": result.n_events, "candidates": THINNING_MARGIN * peak * args["grid"].duration}


# (module, function, span name, attrs(bound arguments, result or item))
TARGETS = (
    ("photodyne.quantum", "unravel_ensemble", "quantum.unravel", _unravel_attrs),
    ("photodyne.quantum", "steady_state", "quantum.steady_state", None),
    ("photodyne.quantum", "g2_regression", "quantum.regression", lambda a, r: {"points": a["tau_grid"].n_samples}),
    ("photodyne.quantum", "h_regression", "quantum.regression", lambda a, r: {"points": a["tau_grid"].n_samples}),
    ("photodyne.numerics", "integrate_linear_ode", "numerics.ode", lambda a, r: {"steps": a["n_steps"]}),
    ("photodyne.records", "save_count_record", "records.write",
     lambda a, r: {"rows": a["rec"].timestamps.size, "bytes": os.path.getsize(a["path"])}),
    ("photodyne.records", "save_photocurrent", "records.write",
     lambda a, r: {"rows": a["rec"].samples.size, "bytes": os.path.getsize(a["path"])}),
    ("photodyne.records", "load_count_record", "records.read", lambda a, r: {"rows": r.timestamps.size}),
    ("photodyne.records", "load_photocurrent", "records.read", lambda a, r: {"rows": r.samples.size}),
    ("photodyne.analyzers", "estimate_g2", "analyzers.g2", lambda a, r: {"events": r.meta["n_events"]}),
    ("photodyne.analyzers", "estimate_h", "analyzers.h", None),
    ("photodyne.fields", "generate_path", "fields.path", lambda a, r: {"samples": a["grid"].n_samples}),
    ("photodyne.detection", "sample_counts", "detection.counts", _counts_attrs),
    ("photodyne.detection", "bhd_difference_current", "detection.bhd",
     lambda a, r: {"samples": a["grid"].n_samples}),
)


class Tracer:
    def __init__(self):
        # each span: [name, start, end, parent index or -1, attrs]
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._saved: list[tuple] = []

    def _open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), None, parent, {}])
        self._stack.append(len(self.spans) - 1)
        return self._stack[-1]

    def _close(self, idx: int) -> None:
        self.spans[idx][2] = time.perf_counter()
        self._stack.pop()

    @contextlib.contextmanager
    def span(self, name: str):
        idx = self._open(name)
        try:
            yield self.spans[idx][4]
        finally:
            self._close(idx)

    def _wrap(self, fn, name, attrs):
        sig = inspect.signature(fn)

        def bound(a, kw):
            ba = sig.bind(*a, **kw)
            ba.apply_defaults()
            return ba.arguments

        if inspect.isgeneratorfunction(fn):
            @functools.wraps(fn)
            def gen_wrapper(*a, **kw):
                args = bound(a, kw)
                it = fn(*a, **kw)
                while True:
                    with self.span(name) as rec:
                        try:
                            item = next(it)
                        except StopIteration:
                            return
                        rec.update(attrs(args, item))
                    yield item

            return gen_wrapper

        if fn.__name__ == "estimate_h":
            @functools.wraps(fn)
            def h_wrapper(records, *a, **kw):
                offered = [0]

                def tap(items):
                    for item in items:
                        counts = item.counts if hasattr(item, "counts") else item[0]
                        offered[0] += counts.n_events
                        yield item

                single = isinstance(records, tuple) or hasattr(records, "counts")
                with self.span(name) as rec:
                    result = fn(tap([records] if single else records), *a, **kw)
                    rec.update(triggers=result.meta["n_triggers"], offered=offered[0])
                return result

            return h_wrapper

        @functools.wraps(fn)
        def wrapper(*a, **kw):
            with self.span(name) as rec:
                result = fn(*a, **kw)
            if attrs is not None:
                rec.update(attrs(bound(a, kw), result))
            return result

        return wrapper

    def install(self) -> None:
        mods = [m for n, m in list(sys.modules.items()) if n == "photodyne" or n.startswith("photodyne.")]
        for modname, fname, name, attrs in TARGETS:
            original = getattr(sys.modules[modname], fname)
            wrapper = self._wrap(original, name, attrs)
            for mod in mods:
                for attr, val in list(vars(mod).items()):
                    if val is original:
                        self._saved.append((mod, attr, original))
                        setattr(mod, attr, wrapper)

    def uninstall(self) -> None:
        for mod, attr, original in reversed(self._saved):
            setattr(mod, attr, original)
        self._saved.clear()


# per-layer metrics -------------------------------------------------------

UNITS = {
    "cli.startup_s": "s", "cli.run_s": "s", "cli.analyze_s": "s", "cli.compare_s": "s", "cli.audit_s": "s",
    "quantum.unravel_s": "s", "quantum.traj_steps": "count", "quantum.ns_per_traj_step": "ns",
    "quantum.clicks": "count", "quantum.atom_jumps": "count",
    "quantum.steady_state_calls": "count", "quantum.steady_state_ms": "ms",
    "quantum.regression_s": "s", "quantum.regression_points": "count",
    "numerics.ode_steps": "count", "numerics.ode_s": "s",
    "records.rows_written": "count", "records.write_s": "s", "records.write_us_per_row": "us",
    "records.bytes_written": "B", "records.rows_read": "count", "records.read_s": "s",
    "records.read_us_per_row": "us", "records.reread_ratio": "ratio",
    "analyzers.g2_s": "s", "analyzers.g2_events": "count", "analyzers.g2_ns_per_event": "ns",
    "analyzers.h_s": "s", "analyzers.triggers": "count", "analyzers.trigger_use": "ratio",
    "analyzers.us_per_trigger": "us",
    "fields.path_s": "s", "fields.samples": "count", "fields.ns_per_sample": "ns",
    "detection.counts_s": "s", "detection.events": "count", "detection.thinning_acceptance": "ratio",
    "detection.bhd_s": "s", "detection.bhd_samples": "count", "detection.bhd_ns_per_sample": "ns",
    "trace.overhead_pct": "%",
}
TIMED_UNITS = {"s", "ms", "us", "ns", "%"}


def _ratio(num: float, den: float, scale: float = 1.0) -> float:
    return scale * num / den if den else 0.0


def layer_metrics(spans: list[list]) -> dict:
    """Per-layer metrics of the spans of one round."""
    dur = [s[2] - s[1] for s in spans]
    child = [0.0] * len(spans)
    for i, s in enumerate(spans):
        if s[3] >= 0:
            child[s[3]] += dur[i]

    def pick(name, top_only=False):
        return [
            i for i, s in enumerate(spans)
            if s[0] == name and not (top_only and s[3] >= 0 and spans[s[3]][0] == "detection.bhd")
        ]

    def total(idx):
        return sum(dur[i] for i in idx)

    def attr(idx, key):
        return sum(spans[i][4].get(key, 0) for i in idx)

    m = {f"cli.{st}_s": total(pick(f"cli.{st}")) for st in ("run", "analyze", "compare", "audit")}
    unravel = pick("quantum.unravel")
    steady = pick("quantum.steady_state")
    regression = pick("quantum.regression")
    ode = pick("numerics.ode")
    writes, reads = pick("records.write"), pick("records.read")
    g2, h = pick("analyzers.g2"), pick("analyzers.h")
    path = pick("fields.path")
    counts, bhd = pick("detection.counts", top_only=True), pick("detection.bhd")
    h_self = sum(dur[i] - child[i] for i in h)  # excludes the generator estimate_h pulls from
    m.update({
        "quantum.unravel_s": total(unravel),
        "quantum.traj_steps": attr(unravel, "traj_steps"),
        "quantum.ns_per_traj_step": _ratio(total(unravel), attr(unravel, "traj_steps"), 1e9),
        "quantum.clicks": attr(unravel, "clicks"),
        "quantum.atom_jumps": attr(unravel, "atom_jumps"),
        "quantum.steady_state_calls": len(steady),
        "quantum.steady_state_ms": _ratio(total(steady), len(steady), 1e3),
        "quantum.regression_s": total(regression),
        "quantum.regression_points": attr(regression, "points"),
        "numerics.ode_steps": attr(ode, "steps"),
        "numerics.ode_s": total(ode),
        "records.rows_written": attr(writes, "rows"),
        "records.write_s": total(writes),
        "records.write_us_per_row": _ratio(total(writes), attr(writes, "rows"), 1e6),
        "records.bytes_written": attr(writes, "bytes"),
        "records.rows_read": attr(reads, "rows"),
        "records.read_s": total(reads),
        "records.read_us_per_row": _ratio(total(reads), attr(reads, "rows"), 1e6),
        "records.reread_ratio": _ratio(attr(reads, "rows"), attr(writes, "rows")),
        "analyzers.g2_s": total(g2),
        "analyzers.g2_events": attr(g2, "events"),
        "analyzers.g2_ns_per_event": _ratio(total(g2), attr(g2, "events"), 1e9),
        "analyzers.h_s": h_self,
        "analyzers.triggers": attr(h, "triggers"),
        "analyzers.trigger_use": _ratio(attr(h, "triggers"), attr(h, "offered")),
        "analyzers.us_per_trigger": _ratio(h_self, attr(h, "triggers"), 1e6),
        "fields.path_s": total(path),
        "fields.samples": attr(path, "samples"),
        "fields.ns_per_sample": _ratio(total(path), attr(path, "samples"), 1e9),
        "detection.counts_s": total(counts),
        "detection.events": attr(counts, "events"),
        "detection.thinning_acceptance": _ratio(attr(counts, "events"), attr(counts, "candidates")),
        "detection.bhd_s": total(bhd),
        "detection.bhd_samples": attr(bhd, "samples"),
        "detection.bhd_ns_per_sample": _ratio(total(bhd), attr(bhd, "samples"), 1e9),
    })
    return m


def combine_rounds(per_round: list[dict]) -> dict:
    """Timings as the median over rounds; counts from the first round, since
    every round repeats the same inputs."""
    out = {}
    for key in per_round[0]:
        if UNITS[key] in TIMED_UNITS:
            out[key] = median(r[key] for r in per_round)
        else:
            out[key] = per_round[0][key]
    return out
