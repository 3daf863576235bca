#!/usr/bin/env python3
"""The reproduction's benchmark: three workloads of the perspective CLI,
end-to-end host metrics with tracing off, per-layer metrics from a traced
in-process run (pvbench trace).

    python3 perfbench/run.py --workload perf|contracts|rerun \
        --seed N --seconds S --trace 0|1

Run it from the root of a source checkout.  It builds the CLI and
perfbench/pvbench.exe with dune, works only inside the checkout (scratch
files under .perfbench/, including TMPDIR for every child) and prints, as
its last line, one JSON object with the keys correct, attempted, failed and
metrics.  Metric names and units come from BENCHMARK.json: with --trace 0
every end_to_end metric, with --trace 1 every per_layer metric.  What each
workload and metric is for is in perfbench/METRICS.md.
"""

import argparse
import hashlib
import json
import math
import os
import random
import re
import shutil
import signal
import subprocess
import sys
import threading
import time

ROOT = os.getcwd()
HERE = os.path.dirname(os.path.abspath(__file__))
SCRATCH = os.path.join(ROOT, ".perfbench")
CLI = os.path.join(ROOT, "_build", "default", "bin", "perspective_cli.exe")
PVBENCH = os.path.join(ROOT, "_build", "default", "perfbench", "pvbench.exe")

WORKLOADS = ["perf", "contracts", "rerun"]

# The perf sweep is pinned: Figures 9.2 + 9.3, every standard and hardware
# scheme, at the CLI's default simulation seed, so every run can check the
# table bytes against the committed serial-path digest.
PERF_SEED = 42
SCALE = 0.3
JOBS = 2
PERF_CELLS = 207
CONTRACT_SEEDS = 10
CONTRACT_CELLS = 50
PERF_REPLAYS = 5
SETUP_REPS = 41
CHILD_TIMEOUT_S = 150

# Verdicts every contracts matrix must show (the leakage-contract
# taxonomy): UNSAFE leaks everywhere, FENCE never speculates, every other
# scheme is sequential constant-time except DSV-only Perspective under the
# passive v2 attack.
ATTACKS = ["v1-index", "v1-ptr", "v1-type", "v2", "rsb"]
SCHEMES = ["UNSAFE", "FENCE", "DOM", "STT", "PERSPECTIVE-STATIC", "PERSPECTIVE",
           "PERSPECTIVE++", "PERSPECTIVE-ALL", "SAFESPEC", "SPECBOX"]


def expected_verdict(scheme, attack):
    if scheme == "UNSAFE":
        return "CT-SPEC"
    if scheme == "FENCE":
        return "ARCH-SEQ"
    if scheme == "PERSPECTIVE-ALL" and attack == "v2":
        return "CT-SPEC"
    return "CT-SEQ"


class Failure(Exception):
    """The benchmark cannot produce a result at all."""


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def child_env():
    env = dict(os.environ)
    env["TMPDIR"] = os.path.join(SCRATCH, "tmp")
    env["DUNE_CACHE"] = "disabled"
    env["XDG_CACHE_HOME"] = os.path.join(SCRATCH, "xdg-cache")
    return env


def invoke(argv, out_path, err_path):
    """Run one child to completion.  Returns (exit code, wall s, cpu s,
    peak RSS MB); CPU and RSS cover the child and every descendant it
    waited for (the CLI's worker processes)."""
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        start = time.monotonic()
        proc = subprocess.Popen(argv, stdout=out, stderr=err, env=child_env(), cwd=ROOT)
        killer = threading.Timer(CHILD_TIMEOUT_S, lambda: os.kill(proc.pid, signal.SIGKILL))
        killer.start()
        try:
            _, status, ru = os.wait4(proc.pid, 0)
        finally:
            killer.cancel()
            killer.join()
        wall = time.monotonic() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, wall, ru.ru_utime + ru.ru_stime, ru.ru_maxrss / 1024.0


def read(path):
    with open(path, "rb") as f:
        return f.read()


def build():
    cmd = ["dune", "build", "--root", ".", "bin/perspective_cli.exe", "perfbench/pvbench.exe"]
    try:
        res = subprocess.run(cmd, cwd=ROOT, env=child_env(), stdout=subprocess.PIPE,
                             stderr=subprocess.STDOUT, timeout=850)
    except (OSError, subprocess.TimeoutExpired) as e:
        raise Failure(f"build failed: {e}")
    if res.returncode != 0:
        sys.stderr.write(res.stdout.decode(errors="replace")[-4000:])
        raise Failure("build failed")


REPORT = re.compile(r"^([\w-]+): (\d+) cells, .* (\d+) failed$", re.M)


class Run:
    """Counts of one benchmark run: cells attempted and cells failed (a
    failing cell or a failing output check)."""

    def __init__(self, workdir):
        self.dir = workdir
        self.attempted = 0
        self.failed = 0
        self.serial = 0

    def path(self, name):
        return os.path.join(self.dir, name)

    def fresh(self, name):
        p = self.path(name)
        shutil.rmtree(p, ignore_errors=True)
        return p

    def cli(self, args, cells):
        """One CLI invocation whose supervise report must name [cells]
        cells and no failures.  Returns (stdout bytes, wall, cpu, rss)."""
        self.serial += 1
        out = self.path(f"out-{self.serial}.txt")
        err = self.path(f"err-{self.serial}.txt")
        code, wall, cpu, rss = invoke([CLI] + args, out, err)
        self.attempted += cells
        stdout, stderr = read(out), read(err).decode(errors="replace")
        reports = REPORT.findall(stderr)
        reported = sum(int(n) for _, n, _ in reports)
        bad = sum(int(f) for _, _, f in reports)
        if code != 0 or reported != cells:
            log(f"check failed: {' '.join(args[:1])} exited {code}, reported {reported}/{cells} cells:\n{stderr[-2000:]}")
            bad = cells
        self.failed += bad
        os.remove(out)
        os.remove(err)
        return stdout, wall, cpu, rss

    def check(self, ok, cells, what):
        if not ok:
            log(f"check failed: {what}")
            self.failed += cells


def golden_perf_digest():
    with open(os.path.join(HERE, "perf_tables.sha256")) as f:
        for line in f:
            digest, seed = line.split()[:2]
            if int(seed) == PERF_SEED:
                return digest
    raise Failure("no committed perf digest")


def perf_args(cache, metrics=None):
    args = ["perf", "--scale", str(SCALE), "-j", str(JOBS), "--seed", str(PERF_SEED),
            "--cache", cache]
    return args + (["--metrics", metrics] if metrics else [])


def contracts_args(seed, cache, journal, resume=False):
    args = ["contracts", "--seed", str(seed), "--workers", str(JOBS),
            "--checkpoint", journal, "--cache", cache]
    return args + (["--resume"] if resume else [])


def contract_mismatches(text):
    """Cells of a rendered contracts matrix whose verdict breaks the
    taxonomy (missing cells count too)."""
    rows = {}
    for line in text.decode(errors="replace").splitlines():
        cols = [c.strip() for c in line.strip().strip("|").split("|")]
        if len(cols) == len(ATTACKS) + 1:
            rows[cols[0]] = [c.split(" ")[0] for c in cols[1:]]
    if rows.get("Scheme") != ATTACKS:
        return len(SCHEMES) * len(ATTACKS)
    bad = 0
    for s in SCHEMES:
        got = rows.get(s, [None] * len(ATTACKS))
        bad += sum(1 for a, v in zip(ATTACKS, got) if v != expected_verdict(s, a))
    return bad


def contract_seeds(seed):
    rng = random.Random(seed)
    seeds = []
    while len(seeds) < CONTRACT_SEEDS:
        s = rng.randrange(1, 1 << 30)
        if s not in seeds:
            seeds.append(s)
    return seeds


# --- workloads -------------------------------------------------------------
#
# Each rep_* function runs one repetition of a workload and returns its
# (wall s, cpu s, peak RSS MB): wall and CPU summed over the rep's CLI
# invocations, RSS the largest process seen.


def rep_perf(run, golden, keep=False, metrics=None):
    """The sweep on a fresh cold cache; [keep] leaves its tables in
    perf.txt and its cache in cache-perf/."""
    cache = run.fresh("cache-perf")
    out, wall, cpu, rss = run.cli(perf_args(cache, metrics), PERF_CELLS)
    run.check(hashlib.sha256(out).hexdigest() == golden, PERF_CELLS,
              "perf tables differ from the committed serial-path digest")
    if keep:
        with open(run.path("perf.txt"), "wb") as f:
            f.write(out)
    return wall, cpu, rss


def rep_contracts(run, seeds, keep=False):
    """One invocation per seed on a fresh cold cache; [keep] leaves each
    matrix in contracts-<s>.txt (journals are always in contracts-<s>.journal)."""
    cache = run.fresh("cache-contracts")
    wall = cpu = rss = 0.0
    for s in seeds:
        journal = run.path(f"contracts-{s}.journal")
        out, w, c, r = run.cli(contracts_args(s, cache, journal), CONTRACT_CELLS)
        bad = contract_mismatches(out)
        run.check(bad == 0, bad, f"contracts seed {s}: {bad} verdicts break the taxonomy")
        if keep:
            with open(run.path(f"contracts-{s}.txt"), "wb") as f:
                f.write(out)
        wall, cpu, rss = wall + w, cpu + c, max(rss, r)
    return wall, cpu, rss


def fill_rerun(run, golden, seeds):
    """rerun's set-up: the cold runs whose outputs, cache and journals the
    replays read."""
    rep_perf(run, golden, keep=True)
    rep_contracts(run, seeds, keep=True)


def rep_rerun(run, seeds):
    cache = run.path("cache-perf")
    cold_perf = read(run.path("perf.txt"))
    wall = cpu = rss = 0.0
    for _ in range(PERF_REPLAYS):
        out, w, c, r = run.cli(perf_args(cache), PERF_CELLS)
        run.check(out == cold_perf, PERF_CELLS, "replayed perf tables differ from the cold run")
        wall, cpu, rss = wall + w, cpu + c, max(rss, r)
    for s in seeds:
        out, w, c, r = run.cli(
            contracts_args(s, run.path("cache-contracts"), run.path(f"contracts-{s}.journal"),
                           resume=True),
            CONTRACT_CELLS)
        run.check(out == read(run.path(f"contracts-{s}.txt")), CONTRACT_CELLS,
                  f"resumed contracts matrix (seed {s}) differs from the cold run")
        wall, cpu, rss = wall + w, cpu + c, max(rss, r)
    return wall, cpu, rss


def setup_probe(run):
    """Set-up of perf and contracts: a fresh, cold cache directory and a
    start of the CLI (it renders the static Table 7.1)."""
    run.fresh("cache-probe")
    os.makedirs(run.path("cache-probe"))
    code, _, _, _ = invoke([CLI, "params"], run.path("probe.out"), run.path("probe.err"))
    if code != 0:
        raise Failure("the CLI does not start")


def timed(f, *args):
    t0 = time.monotonic()
    f(*args)
    return time.monotonic() - t0


# --- statistics ------------------------------------------------------------

# Host times report the fastest tenth of a run's repetitions (nearest-rank
# p10; the fastest repetition when there are ten or fewer).  Other programs
# on a shared host slow some repetitions for seconds at a time; the median
# moves with how much of a run they overlap, the fastest tenth much less.
# Every other metric reports the median.
LOW_PERCENTILE = {"wall_s", "cpu_s"}


def summarize(samples):
    """Order statistics of each named sample list, computed by pvbench
    (nearest rank).  Returns {name: dict}."""
    text = "".join(f"{k} {' '.join(repr(v) for v in vs)}\n" for k, vs in samples.items())
    res = subprocess.run([PVBENCH, "summarize"], input=text.encode(), stdout=subprocess.PIPE,
                         env=child_env(), timeout=60, check=True)
    stats = {}
    for line in res.stdout.decode().splitlines():
        name, n, p10, med, q1, q3, tail_p, tail_v, mx = line.split()
        stats[name] = {"n": int(n), "p10": float(p10), "median": float(med), "q1": float(q1),
                       "q3": float(q3),
                       "tail": None if tail_p == "-" else (float(tail_p), float(tail_v)),
                       "max": float(mx)}
    return stats


def describe(name, unit, s):
    tail = f" p{s['tail'][0]:g}={s['tail'][1]:.6g}" if s["tail"] else ""
    return (f"{name}: p10={s['p10']:.6g} {unit} median={s['median']:.6g} q1={s['q1']:.6g} q3={s['q3']:.6g}"
            f"{tail} max={s['max']:.6g} n={s['n']}")


# --- main ------------------------------------------------------------------


def measure(workload, seed, seconds, run, spec):
    golden = golden_perf_digest()
    seeds = contract_seeds(seed)
    units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    if workload == "rerun":
        setups = [timed(fill_rerun, run, golden, seeds)]
    else:
        setups = [timed(setup_probe, run) for _ in range(SETUP_REPS)]
    samples = {"wall_s": [], "cpu_s": [], "peak_rss_mb": []}
    t0 = time.monotonic()
    while not samples["wall_s"] or time.monotonic() - t0 < seconds:
        if workload == "perf":
            w, c, r = rep_perf(run, golden)
        elif workload == "contracts":
            w, c, r = rep_contracts(run, seeds)
        else:
            w, c, r = rep_rerun(run, seeds)
        samples["wall_s"].append(w)
        samples["cpu_s"].append(c)
        samples["peak_rss_mb"].append(r)
    samples["setup_s"] = setups
    stats = summarize(samples)
    for name, s in stats.items():
        print(describe(name, units[name], s))
    print(f"cells: attempted={run.attempted} failed={run.failed} "
          f"failed_frac={run.failed / max(1, run.attempted):.6g}")
    return {name: s["p10" if name in LOW_PERCENTILE else "median"] for name, s in stats.items()}


def trace(workload, seed, run, spec):
    golden = golden_perf_digest()
    seeds = contract_seeds(seed)
    args = ["--workload", workload, "--dir", run.dir, "--perf-seed", str(PERF_SEED),
            "--scale", str(SCALE), "--jobs", str(JOBS),
            "--contract-seeds", ",".join(str(s) for s in seeds)]
    if workload == "perf":
        metrics = run.path("perf-metrics.json")
        wall, _, _ = rep_perf(run, golden, keep=True, metrics=metrics)
        with open(metrics) as f:
            sweeps = json.load(f)["sweeps"]
        with open(run.path("perf.cycles"), "w") as f:
            for sweep in sweeps.values():
                for key, cell in sweep["cells"].items():
                    if cell is not None:
                        f.write(f"{key} {cell['pipeline.cycles']}\n")
        args += ["--cli-wall", repr(wall)]
    elif workload == "contracts":
        wall, _, _ = rep_contracts(run, seeds, keep=True)
        args += ["--cli-wall", repr(wall)]
    else:
        fill_rerun(run, golden, seeds)
    out, err = run.path("pvbench.out"), run.path("pvbench.err")
    code, _, _, _ = invoke([PVBENCH, "trace"] + args, out, err)
    sys.stderr.write(read(err).decode(errors="replace"))
    text = read(out).decode(errors="replace")
    lines = text.rstrip("\n").splitlines()
    if code != 0 or not lines:
        raise Failure(f"pvbench trace exited {code}")
    print("\n".join(lines[:-1]))
    result = json.loads(lines[-1])
    run.attempted += result["attempted"]
    run.failed += result["failed"]
    os.makedirs(SCRATCH, exist_ok=True)
    shutil.copy(run.path(f"trace-{workload}.json"),
                os.path.join(SCRATCH, f"trace-{workload}-{seed}.json"))
    print(f"spans: {os.path.join('.perfbench', f'trace-{workload}-{seed}.json')} "
          f"(Chrome Trace Event format)")
    return result["metrics"]


def run_workload(workload, seed, seconds, tracing, spec):
    """One benchmark run; prints its result line and returns the exit code."""
    wanted = spec["per_layer" if tracing else "end_to_end"]
    workdir = os.path.join(SCRATCH, f"run-{workload}-{seed}-{os.getpid()}")
    try:
        shutil.rmtree(workdir, ignore_errors=True)
        os.makedirs(workdir)
        run = Run(workdir)
        if tracing:
            values = trace(workload, seed, run, spec)
        else:
            values = measure(workload, seed, seconds, run, spec)
        missing = [m["name"] for m in wanted if m["name"] not in values]
        if missing:
            raise Failure(f"metrics not measured: {', '.join(missing)}")
        bad = [m["name"] for m in wanted if not math.isfinite(values[m["name"]])]
        if bad:
            raise Failure(f"metrics not finite: {', '.join(bad)}")
    except (Failure, OSError, ValueError, KeyError, subprocess.SubprocessError) as e:
        log(f"run.py: {e}")
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}
    print(json.dumps({"correct": run.failed == 0, "attempted": run.attempted,
                      "failed": run.failed, "metrics": metrics}), flush=True)
    return 0


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ["all"],
                    help="'all' runs the three workloads in turn, one result line each")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=20)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    a = ap.parse_args()
    for need in ["dune-project", "bin/perspective_cli.ml", "lib", "BENCHMARK.json"]:
        if not os.path.exists(os.path.join(ROOT, need)):
            log(f"run.py: {need} not found: run from the root of a source checkout")
            return 2
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    try:
        os.makedirs(os.path.join(SCRATCH, "tmp"), exist_ok=True)
        build()
    except (Failure, OSError) as e:
        log(f"run.py: {e}")
        return 1
    code = 0
    for w in WORKLOADS if a.workload == "all" else [a.workload]:
        if a.workload == "all":
            print(f"== {w} ==", flush=True)
        code = max(code, run_workload(w, a.seed, a.seconds, a.trace, spec))
    return code


if __name__ == "__main__":
    sys.exit(main())
