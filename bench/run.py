"""photodyne benchmark. Run from the root of a checkout:

  python3 bench/run.py --workload quantum_cli|quantum_ensemble|classical_audit \
      --seed N --seconds S --trace 0|1

--trace 0 measures the end-to-end metrics, --trace 1 the per-layer ones.
Diagnostic lines start with '#'; the last line of standard output is one
JSON object with the keys correct, attempted, failed and metrics.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path
from statistics import median

BENCH = Path(__file__).resolve().parent
WORKLOADS = ("quantum_cli", "quantum_ensemble", "classical_audit")
# set-up is short and drifts with the host's load: the median of 13 cold
# starts, seven before the workload's rounds and six after them
SETUP_BEFORE, SETUP_AFTER = 7, 6
STARTUP_REPEATS = 3
DEADLINE = 170.0  # seconds; every run ends well within three minutes
END_TO_END_UNITS = {"setup_s": "s", "wall_s": "s", "cpu_s": "s", "peak_rss_mb": "MB", "record_mb": "MB"}


def _steal_seconds() -> float:
    """Host steal time summed over all CPUs so far, from /proc/stat."""
    with open("/proc/stat") as fh:
        fields = fh.readline().split()
    return int(fields[8]) / os.sysconf("SC_CLK_TCK")


def _revision(root: Path) -> dict:
    """git revision when the checkout is a repository, and a digest of the
    program sources either way."""
    digest = hashlib.sha256()
    for p in sorted((root / "src" / "photodyne").glob("*.py")):
        digest.update(p.name.encode() + p.read_bytes())
    try:
        rev = subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"], cwd=root, capture_output=True, text=True, timeout=10
        ).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        rev = ""
    return {"git": rev or "none", "src_sha256": digest.hexdigest()[:16]}


def _run(cmd: list[str], env: dict, timeout: float) -> tuple[str, str]:
    """Run cmd in a process group of its own; on timeout the whole group,
    grandchildren included, is killed before the error is raised."""
    proc = subprocess.Popen(
        cmd, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, start_new_session=True
    )
    try:
        out, err = proc.communicate(timeout=max(timeout, 1.0))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} exited {proc.returncode}: {err.strip()[-2000:]}")
    return out, err


def _timed(cmd: list[str], env: dict, timeout: float) -> float:
    t = time.perf_counter()
    _run(cmd, env, timeout)
    return time.perf_counter() - t


def _setup_command(workload: str, seed: int, work: Path) -> list[str]:
    if workload == "quantum_cli":
        # a user's `photodyne run` cut to one trajectory of two samples
        cfg = work / "setup.ini"
        cfg.write_text(f"[run]\nseed = {seed}\nn_trajectories = 1\nduration = 0.04\nburn_in = 0.0\n")
        return [sys.executable, "-m", "photodyne.cli", "run", "--config", str(cfg), "--outdir", str(work / "setup")]
    return [sys.executable, str(BENCH / "probe.py"), workload, str(seed)]


def measure(workload: str, seed: int, seconds: int, trace: bool, root: Path, work: Path) -> dict:
    start = time.perf_counter()

    def left() -> float:
        return DEADLINE - (time.perf_counter() - start)

    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(root / "src"), str(BENCH)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    refs = "-"
    if workload != "classical_audit":
        refs = str(work / "refs.npz")
        _timed([sys.executable, str(BENCH / "worker.py"), "--refs", refs], env, left())
    steal0, t0 = _steal_seconds(), time.perf_counter()
    startup = []

    def set_up(n: int) -> list[float]:
        return [_timed(_setup_command(workload, seed, work), env, left()) for _ in range(0 if trace else n)]

    setup = set_up(SETUP_BEFORE)
    if trace and workload == "quantum_cli":
        cmd = [sys.executable, "-m", "photodyne.cli", "--version"]
        startup = [_timed(cmd, env, left()) for _ in range(STARTUP_REPEATS)]
    out, _ = _run(
        [sys.executable, str(BENCH / "worker.py"), workload, str(seed), str(seconds), "1" if trace else "0",
         str(work), refs],
        env, left(),
    )
    res = json.loads(out.strip().splitlines()[-1])
    setup += set_up(SETUP_AFTER)
    res["setup_s"] = median(setup) if setup else None
    res["setup_runs"] = [round(s, 4) for s in setup]
    if startup:
        res["layers"]["cli.startup_s"] = median(startup)
    elif trace:
        res["layers"]["cli.startup_s"] = 0.0
    res["steal_s"] = _steal_seconds() - steal0
    res["measured_s"] = time.perf_counter() - t0
    return res


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seed < 0 or args.seconds < 1:
        ap.error("--seed must be >= 0 and --seconds >= 1")
    root = Path.cwd()
    if not (root / "src" / "photodyne" / "__init__.py").is_file():
        print("run.py: src/photodyne not found; run from the root of a photodyne checkout", file=sys.stderr)
        return 2
    work = root / ".bench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        res = measure(args.workload, args.seed, args.seconds, bool(args.trace), root, work)
    except (RuntimeError, subprocess.TimeoutExpired, ValueError) as exc:
        print(f"run.py: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)

    diag = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace, **_revision(root),
        "nproc": len(os.sched_getaffinity(0)), **res["diagnostics"],
        "host_steal_s": round(res["steal_s"], 2), "measured_s": round(res["measured_s"], 2),
        "rounds": res["rounds"], "round_wall_s": res["round_walls"], "round_cpu_s": res["round_cpus"],
        "setup_runs_s": res["setup_runs"],
    }
    if "stage_s" in res:
        diag["stage_median_s"] = res["stage_s"]
    if args.trace:
        diag["spans"] = res["spans"]
    print("# diagnostics " + json.dumps(diag))
    for line in res["failures"]:
        print("# failed " + line)
    for line in res["errors"]:
        print("# ERROR " + line)
    if args.trace:
        metrics = {k: {"value": v, "unit": res["layer_units"][k]} for k, v in res["layers"].items()}
    else:
        metrics = {k: {"value": res[k], "unit": u} for k, u in END_TO_END_UNITS.items()}
    print(json.dumps({"correct": res["correct"], "attempted": res["attempted"], "failed": res["failed"],
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
