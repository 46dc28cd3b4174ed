"""One workload in a process of its own, so that its CPU time and peak memory
are its own. run.py starts it; it prints one JSON line.

  worker.py --refs OUT                      write the oracle arrays to OUT
  worker.py WORKLOAD SEED SECONDS TRACE WORKDIR REFS
"""
from __future__ import annotations

import contextlib
import ctypes
import json
import os
import platform
import re
import resource
import sys
import time
from pathlib import Path
from statistics import median

import numpy as np


def _cpu_seconds() -> float:
    """User and system time of this process and its waited-for children."""
    return sum(
        u.ru_utime + u.ru_stime
        for u in (resource.getrusage(resource.RUSAGE_SELF), resource.getrusage(resource.RUSAGE_CHILDREN))
    )


def _blas() -> dict:
    """BLAS library, version string and thread count, read from the library
    numpy loaded."""
    info = {"numpy": np.__version__, "python": platform.python_version()}
    with open("/proc/self/maps") as fh:
        libs = sorted(set(re.findall(r"(/\S*openblas\S*\.so\S*)", fh.read())))
    for lib in libs:
        dll = ctypes.CDLL(lib)
        for prefix, suffix in (("scipy_openblas_", "64_"), ("openblas_", "64_"), ("openblas_", "")):
            get_threads = getattr(dll, f"{prefix}get_num_threads{suffix}", None)
            get_config = getattr(dll, f"{prefix}get_config{suffix}", None)
            if get_threads is not None and get_config is not None:
                get_threads.restype = ctypes.c_int
                get_config.restype = ctypes.c_char_p
                info["blas"] = get_config().decode()
                info["blas_threads"] = get_threads()
                return info
    info["blas"] = "unknown"
    info["blas_threads"] = os.environ.get("OPENBLAS_NUM_THREADS", "unknown")
    return info


def run(workload: str, seed: int, seconds: float, trace: bool, workdir: Path, refs_file: str) -> dict:
    import workloads as W

    refs = dict(np.load(refs_file)) if refs_file != "-" else {}
    env = dict(os.environ)
    wl = W.WORKLOADS[workload](seed, workdir, refs, env)
    in_process = trace or workload != "quantum_cli"
    tracer = None
    if trace:
        import tracing as T

        tracer = T.Tracer()

    def one_round(traced: bool) -> dict:
        wl.reset()
        span = tracer.span if traced else (lambda name: contextlib.nullcontext())
        if traced:
            tracer.spans = []  # each round's spans, parents indexed within the round
            tracer.install()
        cpu0, wall0 = _cpu_seconds(), time.perf_counter()
        try:
            out = wl.run_round(in_process=in_process, stage_span=span)
        finally:
            if traced:
                tracer.uninstall()
        wall, cpu = time.perf_counter() - wall0, _cpu_seconds() - cpu0
        usage = resource.getrusage(resource.RUSAGE_SELF if in_process else resource.RUSAGE_CHILDREN)
        return {
            "wall": wall, "cpu": cpu, "peak_kb": usage.ru_maxrss, "record_bytes": out["record_bytes"],
            "outcomes": wl.check(out), "stage_s": out.get("stage_s"),
            "spans": tracer.spans if traced else None,
        }

    rounds, plain = [], []
    begin = time.perf_counter()
    while True:
        if trace:
            # an untraced round beside each traced one, run the same way,
            # gives the tracing overhead
            plain.append(one_round(False))
        rounds.append(one_round(trace))
        if time.perf_counter() - begin >= seconds:
            break

    failures, errors = [], []
    for r in plain + rounds:
        for o in r["outcomes"]:
            if not o.ok:
                (failures if o.fault else errors).append(o)
    result = {
        "rounds": len(rounds),
        "attempted": sum(len(r["outcomes"]) for r in plain + rounds),
        "failed": len(failures) + len(errors),
        "correct": not errors,
        "failures": sorted({f"{workload}/{o.name} [fault {o.fault}]: {o.detail}" for o in failures}),
        "errors": sorted({f"{workload}/{o.name}: {o.detail}" for o in errors}),
        "wall_s": median(r["wall"] for r in rounds),
        "cpu_s": median(r["cpu"] for r in rounds),
        # a user runs the workload once; later rounds can raise the
        # high-water mark by where the allocator happens to reuse memory
        "peak_rss_mb": (plain or rounds)[0]["peak_kb"] / 1024.0,
        "record_mb": median(r["record_bytes"] for r in rounds) / 1e6,
        "round_walls": [round(r["wall"], 4) for r in rounds],
        "round_cpus": [round(r["cpu"], 4) for r in rounds],
        "diagnostics": _blas(),
    }
    if rounds[0]["stage_s"]:
        result["stage_s"] = {k: round(median(r["stage_s"][k] for r in rounds), 4) for k in rounds[0]["stage_s"]}
    if trace:
        per_round = [T.layer_metrics(r["spans"]) for r in rounds]
        layers = T.combine_rounds(per_round)
        layers["trace.overhead_pct"] = 100.0 * (
            median(r["wall"] for r in rounds) / median(r["wall"] for r in plain) - 1.0
        )
        result["layers"] = layers
        result["layer_units"] = T.UNITS
        result["spans"] = sum(len(r["spans"]) for r in rounds)
    return result


def main(argv: list[str]) -> int:
    if argv[0] == "--refs":
        import workloads as W

        np.savez(argv[1], **W.references())
        return 0
    workload, seed, seconds, trace, workdir, refs_file = argv
    result = run(workload, int(seed), float(seconds), trace == "1", Path(workdir), refs_file)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
