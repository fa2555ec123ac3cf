#!/usr/bin/env python3
"""The repository benchmark: time to a verified MIS on three workloads.

    python3 perfbench/run.py --workload NAME --seed N --seconds T --trace 0|1

Run it from anywhere inside a checkout. It builds `arbmis`, `experiments`
and the benchmark's own harness (`perfbench/harness`) from source into
`$CARGO_TARGET_DIR` (default `.bench_build`), sets the workload up from
the seed, runs closed-loop ops for T seconds, checks every output, and
prints as its last stdout line one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With `--trace 0` the metrics are the end-to-end metrics of
`BENCHMARK.json`; with `--trace 1` they are its per-layer metrics,
produced by a separate traced run. See `perfbench/README.md`.
"""

import argparse
import hashlib
import json
import os
import re
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORK = ROOT / ".bench_work"

# Every child process is bounded so that a run ends within 180 s.
STEP_TIMEOUT_S = 150

WORKLOADS = ("arbmis_planar_1m", "churn_100k", "experiments_quick")

# Input sizes and set-up repetitions. `tiny` runs the same code on small
# inputs; the smoke test uses it.
SCALES = {
    "full": {"planar_n": 1_000_000, "flat_n": 4_000_000, "churn_n": 100_000,
             "churn_unit_ops": 131_072, "experiments": [], "reps": 3},
    "tiny": {"planar_n": 2_000, "flat_n": 20_000, "churn_n": 2_000,
             "churn_unit_ops": 4_096, "experiments": ["E1", "E9"], "reps": 2},
}

VERDICT = re.compile(r"MIS size (\d+), (\d+) CONGEST rounds, verified ✓$", re.M)
WROTE = re.compile(r"^wrote Graph\(n=(\d+), m=(\d+)\)", re.M)
CELLS = re.compile(r"resolved to (\d+) cells")


class BenchError(Exception):
    """A build or set-up step failed: the run prints no result."""


# ---------------------------------------------------------------- build


def build():
    """Builds both CLIs and the harness; returns their paths by name."""
    if not (ROOT / "Cargo.toml").is_file() or not (ROOT / "crates").is_dir():
        raise BenchError(f"{ROOT} is not an arbmis checkout (no Cargo.toml or crates/)")
    target = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    target = target if target.is_absolute() else ROOT / target
    env = {**os.environ, "CARGO_TARGET_DIR": str(target)}
    steps = [
        ["cargo", "build", "--release", "--offline", "-q", "-p", "arbmis", "--bin", "arbmis",
         "-p", "arbmis-bench", "--bin", "experiments"],
        ["cargo", "build", "--release", "--offline", "-q",
         "--manifest-path", str(BENCH / "harness" / "Cargo.toml")],
    ]
    for cmd in steps:
        # Build output goes to stderr: stdout carries only the result.
        if subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr).returncode != 0:
            raise BenchError("build failed: " + " ".join(cmd))
    return {name: target / "release" / name
            for name in ("arbmis", "experiments", "perfbench-harness")}


# ------------------------------------------------------------ processes


def run_op(cmd):
    """Runs one op process; returns (wall s, peak RSS MB, exit code, stdout, stderr).

    The child is reaped with wait4 so that its own peak RSS is read; output
    goes through files so that the wait cannot block on a full pipe.
    """
    WORK.mkdir(exist_ok=True)
    with open(WORK / "op.out", "w+b") as out, open(WORK / "op.err", "w+b") as err:
        start = time.perf_counter()
        proc = subprocess.Popen([str(c) for c in cmd], cwd=ROOT, stdout=out, stderr=err)
        watchdog = threading.Timer(STEP_TIMEOUT_S, proc.kill)
        watchdog.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            watchdog.cancel()
        wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        out.seek(0)
        err.seek(0)
        return (wall, usage.ru_maxrss / 1024.0, proc.returncode,
                out.read().decode(errors="replace"), err.read().decode(errors="replace"))


def harness(bins, *args):
    """Runs one harness subcommand; returns its JSON record."""
    cmd = [str(bins["perfbench-harness"])] + [str(a) for a in args]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=STEP_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        raise BenchError("harness timed out: " + " ".join(cmd))
    if proc.returncode != 0:
        raise BenchError(f"harness failed ({proc.returncode}): {' '.join(cmd)}\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


# ------------------------------------------------------------ workloads


class Run:
    """What one run measured: metrics by name, op tallies, facts."""

    def __init__(self):
        self.metrics = {}
        self.attempted = 0
        self.failed = 0
        self.facts = {}

    def op(self, ok):
        self.attempted += 1
        self.failed += 0 if ok else 1

    def metric(self, name, value, unit):
        self.metrics[name] = {"value": value, "unit": unit}

    def absorb(self, record):
        """Takes over a harness record's metrics, tallies and facts."""
        self.metrics.update(record["metrics"])
        self.attempted += record["attempted"]
        self.failed += record["failed"]
        self.facts.update(record["facts"])

    def op_times(self, wall_ms):
        self.facts["ops"] = len(wall_ms)
        self.metric("op_p50_ms", statistics.median(wall_ms), "ms")


def closed_loop(seconds, op):
    """Calls op() back to back for `seconds` (at least once)."""
    start = time.perf_counter()
    op()
    while time.perf_counter() - start < seconds:
        op()


def planar(bins, sc, seed, seconds, trace, run):
    """`arbmis run --input <1M-node Apollonian edge list> --algo arbmis`."""
    path = WORK / f"planar-{seed}.txt"
    gen = [bins["arbmis"], "gen", "--family", "apollonian", "--n", sc["planar_n"], "--seed", seed,
           "--output", path]
    cli = [bins["arbmis"], "run", "--input", path, "--algo", "arbmis", "--seed", seed]
    setup_s = []
    try:
        for _ in range(1 if trace else sc["reps"]):
            start = time.perf_counter()
            _, _, code, out, err = run_op(gen)
            wrote = WROTE.search(out)
            if code != 0 or not wrote:
                raise BenchError(f"arbmis gen failed ({code}): {err.strip()}")
            _, _, code, out, err = run_op(cli)
            if code != 0 or not VERDICT.search(out):
                raise BenchError(f"warm-up op failed ({code}): {err.strip()}")
            setup_s.append(time.perf_counter() - start)
        n, m = int(wrote.group(1)), int(wrote.group(2))
        # `Graph::as_csr`: n + 1 offsets and 2m adjacency entries, 8 bytes each.
        run.facts.update({"n": n, "m": m, "csr_bytes": (n + 1 + 2 * m) * 8})
        if trace:
            run.absorb(harness(bins, "planar-trace", "--input", path, "--seed", seed,
                               "--seconds", seconds, "--cli", bins["arbmis"],
                               "--trace-out", WORK / "trace-planar.jsonl"))
            return
        wall_ms, rss, rounds = [], [], []

        def op():
            wall, peak, code, out, _ = run_op(cli)
            verdict = VERDICT.search(out)
            run.op(code == 0 and verdict is not None)
            wall_ms.append(wall * 1e3)
            rss.append(peak)
            rounds.append(int(verdict.group(2)) if verdict else 0)

        closed_loop(seconds, op)
    finally:
        path.unlink(missing_ok=True)
    n = int(run.facts["n"])
    run.facts["threads"] = 1
    run.metric("setup_s", statistics.median(setup_s), "s")
    run.op_times(wall_ms)
    run.metric("updates_per_s", n * len(wall_ms) / (sum(wall_ms) / 1e3), "1/s")
    run.metric("peak_rss_mb", statistics.median(rss), "MB")
    run.metric("congest_rounds", statistics.mean(rounds), "count")


def churn(bins, sc, seed, seconds, trace, run):
    """`DynamicMis::apply` batches, in the harness's own process.

    Its traced run also holds the flat layer's section: the Luby/Métivier
    race on a 4M-node G(n, 4) graph (README: why it is not a workload)."""
    if trace:
        seconds /= 2
        run.absorb(harness(bins, "flat-trace", "--n", sc["flat_n"], "--seed", seed,
                           "--seconds", seconds, "--trace-out", WORK / "trace-flat.jsonl"))
    unit = WORK / f"churn-unit-{seed}.bin"
    try:
        run.absorb(harness(bins, "churn", "--n", sc["churn_n"], "--unit-ops",
                           sc["churn_unit_ops"], "--seed", seed, "--seconds", seconds,
                           "--reps", 1 if trace else sc["reps"], "--trace", trace,
                           "--unit", unit, "--trace-out", WORK / "trace-churn.jsonl"))
    finally:
        unit.unlink(missing_ok=True)
    check_digest(run, result_path("churn_100k", seed, 1 - trace))


def check_digest(run, other):
    """Fails every op unless the run's `Repair` transcript digest equals
    the one the other mode (timed or traced) recorded for the same seed,
    scale and source. Without such a record the comparison waits for the
    other mode's run, which makes it from its side."""
    try:
        facts = json.loads(other.read_text())["facts"]
    except (OSError, ValueError, KeyError):
        run.facts["digest_vs_other_mode"] = "no record yet"
        return
    same_input = all(facts.get(k) == run.facts.get(k)
                     for k in ("scale", "source_sha256", "n", "unit_ops"))
    if not same_input:
        run.facts["digest_vs_other_mode"] = "no record for this input"
    elif facts.get("transcript_digest") == run.facts["transcript_digest"]:
        run.facts["digest_vs_other_mode"] = "match"
    else:
        run.facts["digest_vs_other_mode"] = "mismatch"
        run.failed = run.attempted


def e9_mean_rounds(report):
    """Mean of the E9 table's rounds-to-a-complete-MIS entries (Luby,
    Métivier, Ghaffari and ArbMIS for each family)."""
    lines = report.split("== E9 ", 1)[1].split("\n")
    rows = lines[next(i for i, l in enumerate(lines) if l.startswith("---")) + 1:]
    values = []
    for row in rows:
        if row.startswith("note:") or not row.strip():
            break
        values += [float(x) for x in row.split()[-5:-1]]
    if not values:
        raise BenchError("E9 table has no rows")
    return statistics.mean(values)


def experiments(bins, sc, seed, seconds, trace, run):
    """`experiments --quick --no-cache --threads 2` (the seed is unused)."""
    threads = min(2, len(os.sched_getaffinity(0)))

    def suite(workers):
        return [bins["experiments"], "--quick", "--no-cache", "--threads", workers,
                *sc["experiments"]]

    cmd = suite(threads)
    setup_s = []
    for _ in range(1 if trace else sc["reps"]):
        wall, _, code, reference, err = run_op(cmd)
        if code != 0:
            raise BenchError(f"warm-up op failed ({code}): {err.strip()}")
        setup_s.append(wall)
    cells = int(CELLS.search(err).group(1))
    run.facts.update({"threads": threads, "cells": cells})
    if trace:
        expect = WORK / "experiments-quick.txt"
        expect.write_text(reference)
        args = ["--exp", ",".join(sc["experiments"])] if sc["experiments"] else []
        run.absorb(harness(bins, "suite-trace", "--seconds", seconds, "--threads", threads,
                           "--expect", expect, "--trace-out", WORK / "trace-suite.jsonl", *args))
        return
    wall_ms, rss = [], []

    def op():
        wall, peak, code, out, _ = run_op(cmd)
        run.op(code == 0 and out == reference)
        wall_ms.append(wall * 1e3)
        rss.append(peak)

    closed_loop(seconds, op)
    # The reports must not depend on the worker count.
    _, _, code, serial, _ = run_op(suite(1))
    run.op(code == 0 and serial == reference)
    run.metric("setup_s", statistics.median(setup_s), "s")
    run.op_times(wall_ms)
    run.metric("updates_per_s", cells * len(wall_ms) / (sum(wall_ms) / 1e3), "1/s")
    run.metric("peak_rss_mb", statistics.median(rss), "MB")
    run.metric("congest_rounds", e9_mean_rounds(reference), "count")


RUNNERS = {
    "arbmis_planar_1m": planar,
    "churn_100k": churn,
    "experiments_quick": experiments,
}


# ---------------------------------------------------------------- facts


def host_facts():
    """Host and source facts recorded with every result."""
    facts = {"host_threads": len(os.sched_getaffinity(0)), "cpu_model": "unknown",
             "llc": "unknown"}
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                facts["cpu_model"] = line.split(":", 1)[1].strip()
                break
        caches = Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")
        top = max(caches, key=lambda d: int((d / "level").read_text()))
        facts["llc"] = (top / "size").read_text().strip()
    except (OSError, ValueError):
        pass
    facts["git_rev"] = "unknown (not a git checkout)"
    try:
        rev = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True)
        if rev.returncode == 0:
            facts["git_rev"] = rev.stdout.strip()
    except OSError:
        pass
    # The program's sources and the benchmark's own: a record is comparable
    # with another only if both were made from the same of each.
    digest = hashlib.sha256()
    sources = sorted(p for top in ("crates", "src", "perfbench") for p in (ROOT / top).rglob("*")
                     if p.is_file() and not {"__pycache__", "target"} & set(p.parts))
    for path in sources + [ROOT / "Cargo.toml", ROOT / "Cargo.lock"]:
        digest.update(str(path.relative_to(ROOT)).encode() + b"\0" + path.read_bytes())
    facts["source_sha256"] = digest.hexdigest()[:16]
    return facts


# ----------------------------------------------------------------- main


def result_path(workload, seed, trace):
    """Where a run's full record (result and facts) is kept."""
    return WORK / "results" / f"{workload}-seed{seed}-trace{trace}.json"


def declared_metrics(trace):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return spec["per_layer" if trace else "end_to_end"]


def result(run, trace):
    """The final record: exactly the declared metrics, in declared order.

    A per-layer metric whose layer does no work in this workload reads 0
    (README: the layer table says which workload measures which layer).
    """
    metrics = {}
    for m in declared_metrics(trace):
        got = run.metrics.get(m["name"])
        if got is None and not trace:
            raise BenchError(f"end-to-end metric {m['name']} was not measured")
        if got is not None and got["unit"] != m["unit"]:
            raise BenchError(f"{m['name']}: measured in {got['unit']}, declared {m['unit']}")
        metrics[m["name"]] = {"value": got["value"] if got else 0, "unit": m["unit"]}
    return {"correct": run.failed == 0, "attempted": run.attempted, "failed": run.failed,
            "metrics": metrics}


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--scale", choices=tuple(SCALES), default="full")
    a = p.parse_args(argv)
    try:
        bins = build()
        WORK.mkdir(exist_ok=True)
        run = Run()
        run.facts.update(host_facts())
        run.facts.update({"workload": a.workload, "seed": a.seed, "seconds": a.seconds,
                          "trace": a.trace, "scale": a.scale})
        RUNNERS[a.workload](bins, SCALES[a.scale], a.seed, a.seconds, a.trace, run)
        out = result(run, a.trace)
    except BenchError as e:
        print(f"perfbench: {e}", file=sys.stderr)
        return 1
    if "csr_bytes" in run.facts:
        run.facts["csr_mb_vs_llc"] = f"{int(run.facts['csr_bytes']) / 1e6:.1f} MB vs {run.facts['llc']}"
    path = result_path(a.workload, a.seed, a.trace)
    path.parent.mkdir(exist_ok=True)
    path.write_text(json.dumps({**out, "facts": run.facts}, indent=1))
    print(f"# {a.workload} seed={a.seed} trace={a.trace}")
    for key, m in out["metrics"].items():
        samples = f" ({run.facts['ops']} ops)" if key == "op_p50_ms" else ""
        print(f"#   {key:<40} {m['value']:>16.6g} {m['unit']}{samples}")
    frac = out["failed"] / out["attempted"]
    print(f"#   {'fail_frac':<40} {frac:>16.6g} ({out['failed']}/{out['attempted']} ops)")
    print("# facts " + json.dumps(run.facts))
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
