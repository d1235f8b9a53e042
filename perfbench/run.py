"""Benchmark of the u1higgs laboratory.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload pm_chain --seed 1 --seconds 35 --trace 0

Workloads (see workloads.py and BENCHMARK.json): pm_chain, loop_chain,
gaugefix_scan.  The program is imported from ./src, never from an installed
copy.  With --trace 0 the last stdout line carries the end-to-end metrics of
BENCHMARK.json; with --trace 1 rounds run twice, untraced and traced in
alternating order, and the last line carries the per-layer metrics.  Earlier
stdout lines print the run environment and every metric by name with its
unit.  Spans and a result record are written under .perfbench_out/.
"""

from __future__ import annotations

import os

# Pin native thread pools before numpy is imported anywhere in the process.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import hashlib
import json
import platform
import resource
import shutil
import statistics
import subprocess
import sys
from time import perf_counter

ROOT = os.getcwd()
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".perfbench_out")
SETUP_REPEATS = 3

# (name, unit): every workload reports every one of these with --trace 0.
END_TO_END = [("setup_s", "s"), ("wall_ref", "ref"), ("peak_rss_mb", "MB"),
              ("work_per_ref", "1/ref")]


def fail(msg: str) -> None:
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=35.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true",
                   help="import the program, prepare the workload and exit")
    return p.parse_args(argv)


def import_program():
    if not os.path.isfile(os.path.join(SRC, "u1higgs", "__init__.py")):
        fail(f"no program source at {SRC}/u1higgs; run from the root of a checkout")
    sys.path.insert(0, SRC)
    import u1higgs
    if os.path.dirname(os.path.abspath(u1higgs.__file__)) != os.path.join(SRC, "u1higgs"):
        fail(f"imported u1higgs from {u1higgs.__file__}, not from {SRC}")
    return u1higgs


def measure_setup(args) -> float:
    """Median wall time of fresh processes that import the program and
    prepare the workload (imports, fixed inputs, one warm-up call)."""
    cmd = [sys.executable, os.path.abspath(__file__), "--workload", args.workload,
           "--seed", str(args.seed), "--setup-only"]
    times = []
    for _ in range(SETUP_REPEATS):
        t0 = perf_counter()
        # No timeout: with one, the wait polls the child at up to 50 ms
        # intervals, and the times come out in steps of 50 ms.
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.DEVNULL)
        times.append(perf_counter() - t0)
        if proc.returncode != 0:
            fail(f"set-up process exited with {proc.returncode}")
    return statistics.median(times)


def environment(u1higgs) -> dict:
    import numpy
    import scipy
    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    digest = hashlib.sha256()
    pkg = os.path.join(SRC, "u1higgs")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            with open(os.path.join(pkg, name), "rb") as f:
                digest.update(name.encode() + b"\0" + f.read())
    sha = "unknown (not a git checkout)"
    if os.path.isdir(os.path.join(ROOT, ".git")) and shutil.which("git"):
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=30)
        sha = proc.stdout.strip() or sha
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__,
            "blas": f"{blas.get('name', '?')} {blas.get('version', '')}".strip(),
            "threads_env": os.environ["OPENBLAS_NUM_THREADS"], "git_sha": sha,
            "src_sha256": digest.hexdigest(), "u1higgs": u1higgs.__version__}


def main(argv=None) -> int:
    args = parse_args(argv)
    u1higgs = import_program()
    sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
    import metrics
    import tracer as tracer_mod
    from reference import Reference
    from workloads import WORKLOADS, ChainProbe, Runner

    if args.workload not in WORKLOADS:
        fail(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
    try:
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            spec = json.load(f)
    except (OSError, ValueError) as e:
        fail(f"cannot read BENCHMARK.json: {e}")
    tmp = os.path.join(OUT, f"tmp-{os.getpid()}")
    os.makedirs(tmp, exist_ok=True)
    try:
        wl = WORKLOADS[args.workload](args.seed, tmp)
        if args.setup_only:
            wl.prepare()
            return 0
        setup_s = measure_setup(args)
        # One core for the measuring process and its threads, so that the
        # reference readings are taken on the core the program runs on.
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
        wl.prepare()
        probe = ChainProbe()
        probe.install()
        reference = Reference()
        tracer = tracer_mod.Tracer() if args.trace else None
        specs = metrics.span_specs() if args.trace else []

        rounds = []
        start = perf_counter()
        r = 0
        while True:
            inp = wl.inputs(r)
            order = (False,) if not args.trace else ((False, True) if r % 2 == 0 else (True, False))
            for traced in order:
                probe.tag = {"round": r, "traced": traced}
                runner = probe.runner = Runner(reference, tracer if traced else None)
                if traced:
                    tracer.run_id = r
                    tracer.install(specs)
                try:
                    wl.run(inp, runner)
                finally:
                    if traced:
                        tracer.uninstall()
                rounds.append({"round": r, "traced": traced, "ops": runner.ops,
                               "seconds": sum(op.seconds for op in runner.ops),
                               "units": sum(op.units for op in runner.ops)})
            r += 1
            elapsed = perf_counter() - start
            if elapsed + elapsed / r > args.seconds:
                break

        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        ops = [op for rd in rounds for op in rd["ops"]]
        wl.finish(ops)
        failed = sum(op.failure is not None for op in ops)
        untraced = [rd for rd in rounds if not rd["traced"]]
        e2e = metrics.end_to_end(wl, untraced, probe.records, setup_s, peak_rss_mb)
        summary = metrics.summary(wl, untraced, probe.records, e2e, failed, len(ops))
        env = environment(u1higgs)
        print("env " + json.dumps(env, sort_keys=True))
        print(f"{wl.name}: {len(untraced)} rounds, {len(ops)} operations, {failed} failed")
        for name, (value, unit) in summary.items():
            print(f"  {name:<22} {value:.6g} {unit}")
        if args.trace:
            out, missing = metrics.per_layer(wl, rounds, probe.records, tracer, failed, len(ops),
                                             e2e, reference)
            tracer.write(os.path.join(OUT, f"spans-{wl.name}.csv"))
            print("  traced wall per round {:.6g} s = span self times {:.6g} s + "
                  "untraced remainder {:.6g} s".format(*(out[k][0] for k in (
                      "trace.wall_s", "trace.self_sum_s", "trace.remainder_s"))))
            expected = spec["per_layer"]
        else:
            out, missing = {k: (e2e[k], unit) for k, unit in END_TO_END}, []
            expected = spec["end_to_end"]
        if missing:
            print("missing (wrapped function not found): " + ", ".join(missing))
        listed = {m["name"]: m["unit"] for m in expected}
        produced = {k: u for k, (_, u) in out.items()}
        stray = set(produced) - set(listed)
        lost = set(listed) - set(produced) - set(missing)
        wrong_unit = [k for k in produced if k in listed and listed[k] != produced[k]]
        if stray or lost or wrong_unit:
            fail(f"metrics differ from BENCHMARK.json: extra {sorted(stray)}, "
                 f"absent {sorted(lost)}, unit mismatch {wrong_unit}")
        result = {"correct": failed == 0, "attempted": len(ops), "failed": failed,
                  "metrics": {k: {"value": v, "unit": u} for k, (v, u) in out.items()}}
        with open(os.path.join(OUT, f"result-{wl.name}-seed{args.seed}-trace{args.trace}.json"),
                  "w") as f:
            json.dump({"env": env, "summary": {k: v for k, (v, _) in summary.items()},
                       "missing": missing, "round_seconds": [rd["seconds"] for rd in untraced],
                       "reference_seconds": reference.readings,
                       "round_units": [rd["units"] for rd in untraced],
                       "round_work_per_s": [metrics.work_rate(wl, [rd], probe.records)
                                            for rd in untraced],
                       "round_work_per_ref": [metrics.work_rate(wl, [rd], probe.records, True)
                                              for rd in untraced],
                       **result}, f, indent=1, sort_keys=True)
        print(json.dumps(result))
        return 0
    finally:
        shutil.rmtree(tmp, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
