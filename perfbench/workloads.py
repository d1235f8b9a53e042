"""The benchmark's three workloads.

Each workload is a shortened copy of the acceptance criterion or CLI path it
stands for.  A round is one fixed batch of operations whose inputs come from
(seed, round index); an operation is one verify call, one sampler call, one
CLI call or one gauge-fixed field.  Every operation's output is checked for
properties, not bytes, so a correct batched or vectorised rewrite, or a
documented re-addressing of the random streams, still passes.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import math
import os
import shutil
import sys
import traceback
from dataclasses import dataclass, field
from time import perf_counter

import numpy as np

from tracer import lookup, patch_bindings
from u1higgs import cli, gauge_core, gauge_fixing, lattice_geom, loop_expansion, mc_verify, sampler

ACC_RANGE = (0.05, 0.95)
# Every verify call uses criterion 2's seed.  On random seeds the pure-gauge
# gate inside verify_mgf(mode="interacting") fails its two-sided 3-sigma test
# far more often than the policy allows (2.0% of 3000 seeds at eta=1, where
# e^{B^2} has infinite variance; 0.5% at eta=0.5), so a verdict check on
# random seeds would count that defect as a failed operation in most runs.
VERIFY_SEED = 20260102


def sub_seed(*key: int) -> int:
    """A 48-bit seed derived from the benchmark seed and a position."""
    return int(np.random.SeedSequence(list(key)).generate_state(1, np.uint64)[0] >> 16)


class CheckFailed(Exception):
    pass


def ensure(cond: bool, reason: str) -> None:
    if not cond:
        raise CheckFailed(reason)


@dataclass
class Op:
    kind: str
    seconds: float = 0.0
    units: float = 0.0        # `seconds` in reference units (reference.py)
    failure: str | None = None
    info: dict = field(default_factory=dict)


class Runner:
    """Runs operations, timing only the calls into the program, and takes a
    reading of the reference kernel (see reference.py) after each operation,
    and inside the calls of untraced operations; consecutive operations share
    the reading between them.  The body of an operation gets `timed`, which
    calls into the program; `timed.last` is the last call's time."""

    def __init__(self, reference, tracer=None):
        self.reference = reference
        reference.ticking = tracer is None
        self.tracer = tracer
        self.ops: list[Op] = []
        self.current: Op | None = None

    def op(self, kind: str, body) -> Op:
        op = self.current = Op(kind)
        ref = self.reference
        if not ref.readings:
            ref.reading()

        def timed(fn, *args, **kwargs):
            if self.tracer:
                self.tracer.active = True
            paused = ref.paused
            t0 = perf_counter()
            ref.begin()
            try:
                return fn(*args, **kwargs)
            finally:
                ref.end()
                timed.last = perf_counter() - t0 - (ref.paused - paused)
                op.seconds += timed.last
                if self.tracer:
                    self.tracer.active = False

        try:
            op.info = body(timed) or {}
        except CheckFailed as e:
            op.failure = str(e)
        except Exception as e:   # a failing operation is counted, the run goes on
            op.failure = f"error: {type(e).__name__}: {e}"
            traceback.print_exc(file=sys.stderr)
        if op.failure:
            print(f"{kind}: FAILED: {op.failure}", file=sys.stderr)
        ref.reading()
        op.units = ref.settle()
        self.current = None
        self.ops.append(op)
        return op


class ChainProbe:
    """Times every `sample_interacting` call, however it is reached, and keeps
    what the chain-throughput metrics need.  It is on in untraced runs too:
    two clock reads per call."""

    def __init__(self):
        self.records: list[dict] = []
        self.tag: dict = {}   # round and traced flag of the calls being made
        self.runner: Runner | None = None

    def install(self) -> None:
        fn = lookup("sampler", "sample_interacting")
        if fn is None:
            return
        records, probe = self.records, self

        def probe_wrapper(*args, **kwargs):
            paused = probe.runner.reference.paused
            t0 = perf_counter()
            res = fn(*args, **kwargs)
            dt = perf_counter() - t0 - (probe.runner.reference.paused - paused)
            cfg = kwargs["cfg"] if "cfg" in kwargs else args[2]
            post = cfg.n_chains * cfg.samples * cfg.thin
            records.append(dict(probe.tag, op=probe.runner.current, seconds=dt,
                                steps=post + cfg.n_chains * cfg.burn_in,
                                ess=post / max(float(res.iat), 1.0), iat=float(res.iat),
                                acceptance=[float(a) for a in res.acceptance]))
            return res

        patch_bindings(fn, probe_wrapper)


class Workload:
    name = ""
    work_unit = "chain step"   # what work_per_s counts

    def finish(self, ops: list) -> None:
        """Checks deferred until after the measurement."""


# ---------------------------------------------------------------- pm_chain

class PmChain(Workload):
    """Criterion 2's pseudo-marginal chain at N=2 plus an N=3 segment."""

    name = "pm_chain"
    VERIFY_SAMPLES = 150
    CHAIN_KW = {"burn_in": 2000, "thin": 4, "n_chains": 4, "n_is": 64}
    N3_CFG = {"samples": 200, "burn_in": 300, "thin": 4, "n_chains": 2, "n_is": 64}
    POT = sampler.PotentialSpec("quartic", c=1.0)

    def __init__(self, seed: int, tmp: str):
        self.seed = seed

    def prepare(self) -> None:
        self.geom3 = lattice_geom.build_lattice(3)
        warm = sampler.ChainConfig(samples=2, burn_in=2, thin=1, n_chains=1, tune=False)
        sampler.sample_interacting(self.geom3, self.POT, warm, method="monte-carlo")

    def inputs(self, r: int) -> dict:
        return {"n3_seed": sub_seed(self.seed, r)}

    def run(self, inp: dict, runner: Runner) -> None:
        def verify(timed):
            res = timed(mc_verify.verify_mgf, 2, eta=1.0, samples=self.VERIFY_SAMPLES,
                        mode="interacting", seed=VERIFY_SEED, pot=self.POT,
                        method="monte-carlo", chain_kw=dict(self.CHAIN_KW))
            ensure(res.verdict == "pass", f"diamagnetic verdict {res.verdict}")
            ensure(math.isfinite(res.estimate), f"estimate {res.estimate}")
            acc = res.extras["acceptance"]
            ensure(all(ACC_RANGE[0] <= a <= ACC_RANGE[1] for a in acc), f"acceptance {acc}")

        def segment(timed):
            cfg = sampler.ChainConfig(seed=inp["n3_seed"], **self.N3_CFG)
            res = timed(sampler.sample_interacting, self.geom3, self.POT, cfg,
                        method="monte-carlo")
            ensure(bool(np.isfinite(res.X).all()), "non-finite chain state")
            acc = res.acceptance
            ensure(bool(((acc >= ACC_RANGE[0]) & (acc <= ACC_RANGE[1])).all()),
                   f"acceptance {acc}")

        runner.op("verify_mgf", verify)
        runner.op("sample_n3", segment)

    def logw_sd(self, N: int, repeats: int = 200) -> float:
        """Spread of log D-hat over repeated estimates at one fixed field."""
        geom = lattice_geom.build_lattice(N)
        X = np.random.default_rng([self.seed, N]).normal(0.0, 2.0 ** -N, (geom.n, geom.n))
        g = gauge_core.psi(geom, X)
        logs = [math.log(sampler.higgs_weight_mc(
                    g, self.POT, np.random.default_rng([self.seed, N, k]),
                    self.CHAIN_KW["n_is"]).value)
                for k in range(repeats)]
        return float(np.std(logs, ddof=1))


# ---------------------------------------------------------------- loop_chain

class LoopChain(Workload):
    """The CLI path: short loop-expansion chains, one verify, one loopexp."""

    name = "loop_chain"
    SAMPLE_CALLS = 2
    SAMPLE_SAMPLES = 50
    VERIFY_SAMPLES = 1000
    LOOP_TOTAL = 8           # thousands of ledger terms on the graph below
    EDGES = (("x", "x"), ("y", "y"), ("x", "y"), ("y", "x"), ("x", "y"))
    QUAD = loop_expansion.QuadratureSpec(radial_nodes=24, angular_nodes=16)

    def __init__(self, seed: int, tmp: str):
        self.seed = seed
        self.tmp = tmp

    def prepare(self) -> None:
        self._cli(["lattice", "--N", "2", "--out", os.path.join(self.tmp, "warm")])

    @staticmethod
    def _cli(argv, timed=None):
        with contextlib.redirect_stdout(io.StringIO()):
            return timed(cli.run, argv) if timed else cli.run(argv)

    def inputs(self, r: int) -> dict:
        """Per-call seeds and potentials (no two calls share Higgs-weight
        coefficients), and a loopexp graph."""
        rng = np.random.default_rng([self.seed, r])
        E = len(self.EDGES)
        values = [float((0.02 + 0.03 * rng.uniform()) / E * rng.choice((-1.0, 1.0)))
                  for _ in range(E)]
        graph = os.path.join(self.tmp, f"graph-{r}.json")
        with open(graph, "w") as f:
            json.dump({"field": "C", "dim": 1, "vertices": ["x", "y"],
                       "edges": [{"from": a, "to": b, "value": v}
                                 for (a, b), v in zip(self.EDGES, values)]}, f)
        return {
            "sample": [(sub_seed(self.seed, r, k), f"{rng.uniform(0.9, 1.1):.6f}")
                       for k in range(self.SAMPLE_CALLS)],
            "graph": graph, "values": values,
        }

    def run(self, inp: dict, runner: Runner) -> None:
        def call(argv, tag, check=None):
            def body(timed):
                out = os.path.join(self.tmp, tag)
                try:
                    code = self._cli(argv + ["--out", out], timed)
                    ensure(code == 0, f"exit code {code}")
                    info = check(out) if check else {}
                    info["bytes"] = sum(os.path.getsize(os.path.join(out, f))
                                        for f in os.listdir(out))
                    return info
                finally:
                    shutil.rmtree(out, ignore_errors=True)
            return body

        for k, (seed, c) in enumerate(inp["sample"]):
            runner.op("cli_sample", call(
                ["sample", "interacting", "--N", "2", "--samples", str(self.SAMPLE_SAMPLES),
                 "--seed", str(seed), "--potential-c", c], f"sample{k}"))
        runner.op("cli_verify", call(
            ["verify", "mgf", "--N", "2", "--eta", "1.0", "--mode", "interacting",
             "--samples", str(self.VERIFY_SAMPLES), "--seed", str(VERIFY_SEED)],
            "verify"))

        def loopexp_read(out):
            with open(os.path.join(out, "ledger.csv"), newline="") as f:
                rows = list(csv.DictReader(f))
            value = sum(complex(float(r["contribution_re"]), float(r["contribution_im"]))
                        for r in rows)
            return {"terms": len(rows), "value": value, "values": inp["values"]}

        runner.op("cli_loopexp", call(
            ["loopexp", "--graph", inp["graph"], "--max-total", str(self.LOOP_TOTAL)],
            "loopexp", loopexp_read))

    def finish(self, ops: list) -> None:
        """Check each loopexp value against the quadrature oracle, as in
        criterion 5.  Runs after the measurement, so that neither the
        oracle's time nor its memory enters a metric."""
        G = loop_expansion.MultiGraph(("x", "y"), self.EDGES)
        lam = {v: loop_expansion.RadialMeasure.gaussian_type() for v in G.vertices}
        oracles = {}
        for op in ops:
            if op.kind != "cli_loopexp" or op.failure:
                continue
            values = tuple(op.info["values"])
            if values not in oracles:
                M = loop_expansion.OperatorAssignment.scalars(G, values, "C")
                oracles[values] = (
                    loop_expansion.brute_force_integral(G, M, lam, self.QUAD),
                    loop_expansion.expansion_value(G, M, lam, self.LOOP_TOTAL).tail_majorant)
            bf, tail = oracles[values]
            gap = abs(op.info["value"] - bf.value)
            if tail > 1e-5 * abs(bf.value):
                op.failure = f"tail majorant {tail:.3g} does not bound the truncation"
            elif gap > tail + 10 * bf.error_estimate + 1e-12:
                op.failure = f"loopexp value off the quadrature oracle by {gap:.3g}"
            if op.failure:
                print(f"{op.kind}: FAILED: {op.failure}", file=sys.stderr)


# ---------------------------------------------------------------- gaugefix_scan

class GaugefixScan(Workload):
    """Criterion 8's three gauge_fix paths on pure-gauge fields."""

    name = "gaugefix_scan"
    work_unit = "field"
    FIELDS = ((5, 6), (6, 1))   # (N, fields per round)
    ALPHA, BETAS, KAPPA, DAMP, FORCE_M = 0.5, (0.5,), 0.25, 0.05, 2

    def __init__(self, seed: int, tmp: str):
        self.seed = seed

    def prepare(self) -> None:
        self.geoms = {N: lattice_geom.build_lattice(N) for N, _ in self.FIELDS}
        g = gauge_core.psi(lattice_geom.build_lattice(3), np.zeros((8, 8)))
        gauge_fixing.gauge_fix(g, self.ALPHA, betas=self.BETAS, force_m=self.FORCE_M)

    def inputs(self, r: int) -> list:
        fields = []
        for N, count in self.FIELDS:
            geom = self.geoms[N]
            for k in range(count):
                X = np.random.default_rng([self.seed, r, N, k]).normal(
                    0.0, 2.0 ** -N, (geom.n, geom.n))
                fields.append((N, gauge_core.psi(geom, X), gauge_core.psi(geom, self.DAMP * X)))
        return fields

    def run(self, fields: list, runner: Runner) -> None:
        a, beta, kappa = self.ALPHA, self.BETAS[0], self.KAPPA
        for N, g, gd in fields:
            def body(timed):
                paths = {}
                for path, field_, kw in (("fallback", g, {}), ("damped", gd, {"kappa": kappa}),
                                         ("forced", g, {"force_m": self.FORCE_M})):
                    u, rep = timed(gauge_fixing.gauge_fix, field_, a, betas=self.BETAS, **kw)
                    paths[path] = (timed.last, rep)
                    ensure(bool(np.isfinite(u.angles).all()), f"{path}: non-finite transform")
                    if rep.used_m is not None:
                        bound = rep.axial_thin_sup * 2.0 ** (-a * rep.used_m / 2.0) + 1e-12
                        ensure(rep.axial_max_bond_log <= bound, f"{path}: axial bound")
                    if rep.hypothesis_simple and rep.hypothesis_landau:
                        ensure(rep.violations == 0, f"{path}: violation under hypothesis")
                        gr = rep.norms[beta]["norm_gr"]
                        ensure(gr <= rep.gr_bound[(beta, kappa)] + 1e-9, f"{path}: gr bound")
                ensure(paths["fallback"][1].fallback and paths["fallback"][1].used_m is None,
                       "raw field did not fall back")
                return {"N": N, "paths": {p: t for p, (t, _) in paths.items()},
                        "fell_back": sum(r.used_m is None for _, r in paths.values()),
                        "violations": sum(r.violations for _, r in paths.values())}
            runner.op(f"field_N{N}", body)


WORKLOADS = {w.name: w for w in (PmChain, LoopChain, GaugefixScan)}
