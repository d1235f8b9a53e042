"""Command-line entry point.

Subcommands: lattice, sample, gaugefix, norms, loopexp, verify.  Structured
outputs are JSON, tabular outputs CSV; every run writes a manifest (seed,
full configuration, outputs) from which the producing command can be
reconstructed.  Floats are serialized with 17 significant digits so files
round-trip bit-exactly; a fixed seed makes reruns byte-identical.

Exit codes: 0 success / all verdicts pass, 1 verdict failure, 2 usage
error, 3 numerical or resource error.
"""

from __future__ import annotations

import argparse
import inspect
import json
import os
import secrets
import sys
import typing
from dataclasses import asdict, fields

import numpy as np

from . import __version__
from .gauge_core import apply_gauge, load_gauge_field, psi
from .gauge_fixing import gauge_fix
from .lattice_geom import ConfigurationError, DomainError, ResourceError, build_lattice
from .loop_expansion import (
    MultiGraph,
    NumericalError,
    OperatorAssignment,
    RadialMeasure,
    expansion_value,
)
from .mc_verify import EXPERIMENTS, _plain
from .norms import log_oneform, norm_report
from .rng import stream
from .sampler import (
    WEIGHT_METHODS,
    ChainConfig,
    PotentialSpec,
    sample_interacting,
    sample_pure_angles,
)

USAGE_ERROR, VERDICT_FAIL, NUMERICAL_ERROR = 2, 1, 3


def fmt(x: float) -> str:
    return format(float(x), ".17g")


def _dump_json(path, obj):
    with open(path, "w") as f:
        json.dump(obj, f, indent=1, sort_keys=True, default=_json_default)
        f.write("\n")


def _json_default(x):
    if isinstance(x, np.generic):
        return x.item()
    if isinstance(x, np.ndarray):
        return x.tolist()
    raise TypeError(f"not JSON serializable: {type(x)}")


def _read_json(path, what):
    """The JSON document in file `path`; an unreadable file or malformed JSON
    is a usage error naming `what`."""
    try:
        with open(path) as f:
            return json.load(f)
    except (OSError, json.JSONDecodeError) as e:
        raise ConfigurationError(f"cannot read {what} {path!r}: {e}") from None


def _write_manifest(outdir, command, config, seed, outputs):
    _dump_json(os.path.join(outdir, "manifest.json"), {
        "package": "u1higgs", "version": __version__, "command": command,
        "config": config, "seed": seed, "outputs": sorted(outputs),
    })


def _ensure_outdir(args):
    out = args.out or os.environ.get("U1HIGGS_OUT", ".")
    os.makedirs(out, exist_ok=True)
    return out


def _seed_of(args):
    if getattr(args, "seed", None) is not None:
        return int(args.seed)
    return secrets.randbits(48)


def _potential(args) -> PotentialSpec:
    return PotentialSpec("quartic", c=getattr(args, "potential_c", 1.0))


# ---------------------------------------------------------------- lattice

def cmd_lattice(args):
    geom = build_lattice(args.N)
    out = _ensure_outdir(args)
    outputs = []
    if args.dump:
        path = os.path.join(out, "geometry.json")
        _dump_json(path, geom.to_json_dict())
        outputs.append("geometry.json")
    print(f"lattice N={args.N}: {geom.node_count} nodes, "
          f"{geom.pos_bond_count} bonds, {geom.plaquette_count} plaquettes")
    _write_manifest(out, "lattice", {"N": args.N, "dump": args.dump}, None, outputs)
    return 0


# ---------------------------------------------------------------- sample

def _write_chain_csv(path, X):
    """CSV: step, flattened plaquette angles, derived statistic."""
    with open(path, "w", newline="\n") as f:
        n_plaq = X.shape[1] * X.shape[2]
        header = ["step"] + [f"X{i}" for i in range(n_plaq)] + ["sum_sq"]
        f.write(",".join(header) + "\n")
        for i, x in enumerate(X):
            flat = x.T.reshape(-1)  # geometry row-major order
            row = [str(i)] + [fmt(v) for v in flat] + [fmt((x ** 2).sum())]
            f.write(",".join(row) + "\n")


def cmd_sample(args):
    geom = build_lattice(args.N)
    seed = _seed_of(args)
    out = _ensure_outdir(args)
    config = {"mode": args.mode, "N": args.N, "samples": args.samples,
              "seed": seed, "method": args.method,
              "potential_c": args.potential_c, "burn_in": args.burn_in,
              "thin": args.thin, "chains": args.chains}
    if args.mode == "pure":
        gen = stream(seed, geom.N, tag="")
        X = sample_pure_angles(geom, gen, count=args.samples)
        acc = None
    else:
        cfg = ChainConfig(samples=args.samples, burn_in=args.burn_in,
                          thin=args.thin, n_chains=args.chains, seed=seed)
        res = sample_interacting(geom, _potential(args), cfg, method=args.method)
        X = res.flat()
        acc = res.acceptance.tolist()
        config["iat"] = res.iat
        config["warnings"] = list(res.warnings)
    _write_chain_csv(os.path.join(out, "samples.csv"), X)
    g = psi(geom, X[-1])
    g.dump_json(os.path.join(out, "field.json"))
    manifest_cfg = dict(config)
    if acc is not None:
        manifest_cfg["acceptance"] = acc
    _write_manifest(out, "sample", manifest_cfg, seed,
                    ["samples.csv", "field.json"])
    print(f"wrote {len(X)} samples to {out}/samples.csv (seed {seed})")
    return 0


# ---------------------------------------------------------------- gaugefix

def cmd_gaugefix(args):
    g = load_gauge_field(_read_json(args.field, "gauge-field file"))
    out = _ensure_outdir(args)
    betas = tuple(args.beta) if args.beta else (0.5,)
    u, rep = gauge_fix(g, args.alpha, betas=betas, kappa=args.kappa,
                       force_m=args.force_m)
    fixed = apply_gauge(g, u)
    _dump_json(os.path.join(out, "transform.json"),
               {"N": g.geom.N, "angles": u.angles.tolist()})
    fixed.dump_json(os.path.join(out, "fixed_field.json"))
    _dump_json(os.path.join(out, "report.json"), _plain(asdict(rep)))
    _write_manifest(out, "gaugefix",
                    {"field": args.field, "alpha": args.alpha,
                     "betas": list(betas), "kappa": args.kappa,
                     "force_m": args.force_m}, None,
                    ["transform.json", "fixed_field.json", "report.json"])
    print(f"gauge fixed: m={rep.used_m} fallback={rep.fallback} "
          f"violations={rep.violations}")
    return 0


# ---------------------------------------------------------------- norms

def cmd_norms(args):
    g = load_gauge_field(_read_json(args.field, "gauge-field file"))
    A = log_oneform(g)
    rep = norm_report(A, args.alpha)
    out = _ensure_outdir(args)
    _dump_json(os.path.join(out, "norms.json"), rep)
    _write_manifest(out, "norms", {"field": args.field, "alpha": args.alpha},
                    None, ["norms.json"])
    print(f"|A|_gr = {rep['norm_gr']:.6g}, |A|_rho = {rep['seminorm_rho']:.6g}, "
          f"|A|_alpha = {rep['norm_full']:.6g}")
    return 0


# ---------------------------------------------------------------- loopexp

def _number(v, where):
    """A real number or a [re, im] pair from the graph file; anything else is
    a usage error naming where it stands."""
    parts = v if isinstance(v, list) and len(v) == 2 else [v]
    if not all(isinstance(p, (int, float)) for p in parts):
        raise DomainError(f"graph file: {where} {v!r} is not a number or [re, im] pair")
    return v


def _parse_matrix(entry, dim, where):
    if not (isinstance(entry, list) and len(entry) == dim
            and all(isinstance(row, list) and len(row) == dim for row in entry)):
        raise DomainError(f"graph file: {where} matrix is not {dim} x {dim}")
    M = np.zeros((dim, dim), dtype=complex)
    for i in range(dim):
        for j in range(dim):
            v = _number(entry[i][j], f"{where} matrix entry")
            M[i, j] = complex(v[0], v[1]) if isinstance(v, list) else v
    return M


def _graph_object(obj, where):
    """obj if it is a JSON object; anything else is a usage error naming where."""
    if not isinstance(obj, dict):
        raise ConfigurationError(f"graph file: {where} is not a JSON object")
    return obj


def _graph_key(obj, key, where):
    """obj[key] from the graph file; a missing key is a usage error naming it."""
    if key not in _graph_object(obj, where):
        raise ConfigurationError(f"graph file: {where} has no {key!r} key")
    return obj[key]


def _parse_measure(spec, where):
    kind = _graph_object(spec, where).get("kind", "gaussian_type")
    if kind == "gaussian_type":
        return RadialMeasure.gaussian_type()
    if kind == "dirac0":
        return RadialMeasure.dirac0()
    if kind == "discrete":
        return RadialMeasure.discrete([tuple(p) for p in _graph_key(spec, "points", where)])
    raise DomainError(f"unsupported measure kind {kind!r} in graph file")


def cmd_loopexp(args):
    desc = _graph_object(_read_json(args.graph, "graph file"), "the graph")
    fieldtag = desc.get("field", "C")
    dim = desc.get("dim", 1)
    if isinstance(dim, bool) or not isinstance(dim, int) or dim < 1:
        raise ConfigurationError(f"graph file: 'dim' = {dim!r} is not an integer >= 1")
    vertices = _graph_key(desc, "vertices", "the graph")
    edge_descs = _graph_key(desc, "edges", "the graph")
    if not (isinstance(vertices, list) and isinstance(edge_descs, list)):
        raise ConfigurationError("graph file: 'vertices' and 'edges' must be lists")
    vertices = tuple(vertices)
    edges = tuple((_graph_key(e, "from", f"edge {i}"), _graph_key(e, "to", f"edge {i}"))
                  for i, e in enumerate(edge_descs))
    G = MultiGraph(vertices, edges)
    mats = tuple(_parse_matrix(e["matrix"], dim, f"edge {i}") if "matrix" in e
                 else np.array([[_number(_graph_key(e, "value", f"edge {i} (no \"matrix\")"),
                                         f"edge {i} value")]])
                 for i, e in enumerate(edge_descs))
    M = OperatorAssignment(fieldtag, dim, mats, G)
    measures = _graph_object(desc.get("measures", {}), "'measures'")
    lam = {v: _parse_measure(measures.get(str(v), {}), f"measure of {v!r}") for v in vertices}
    res = expansion_value(G, M, lam, args.max_total)
    out = _ensure_outdir(args)
    path = os.path.join(out, "ledger.csv")
    with open(path, "w", newline="\n") as f:
        f.write("multiset,total_length,contribution_re,contribution_im\n")
        for (sig, tl, contrib) in res.ledger:
            c = complex(contrib)
            f.write(f"\"{sig}\",{tl},{fmt(c.real)},{fmt(c.imag)}\n")
    _write_manifest(out, "loopexp",
                    {"graph": args.graph, "max_total": args.max_total}, None,
                    ["ledger.csv"])
    v = complex(res.value)
    print(f"expansion value = {v.real:.12g}{v.imag:+.3g}i  "
          f"(truncation {args.max_total}, tail majorant {res.tail_majorant:.3g}, "
          f"{len(res.ledger)} terms)")
    return 0


# ---------------------------------------------------------------- verify

def _append_csv_ledger(path, result):
    header = "name,verdict,estimate,stderr,reference,sample_size,seed\n"
    exists = os.path.exists(path)
    with open(path, "a", newline="\n") as f:
        if not exists:
            f.write(header)
        ref = "" if result.reference is None else fmt(result.reference)
        f.write(f"{result.name},{result.verdict},{fmt(result.estimate)},"
                f"{fmt(result.stderr)},{ref},{result.sample_size},{result.seed}\n")


_KIND_NAMES = {int: "an integer", float: "a number", str: "a string",
               dict: "a JSON object", type(None): "null"}


def _fits(value, kind, default) -> bool:
    """Whether a JSON value can stand for a parameter of type `kind`; a
    tuple's items must fit the type of the default's first item."""
    if isinstance(value, bool):
        return kind is bool
    if kind is float:
        return isinstance(value, (int, float))
    if kind is tuple:
        return isinstance(value, list) and all(_fits(v, type(default[0]), None)
                                               for v in value)
    return kind in _KIND_NAMES and isinstance(value, kind)


def _want(kinds, default) -> str:
    """What a value of one of `kinds` is, for a usage error."""
    return " or ".join(
        "a list of " + {int: "integers", float: "numbers"}[type(default[0])]
        if kind is tuple else _KIND_NAMES.get(kind, f"a {kind.__name__}")
        for kind in kinds)


def _check_experiment_kwargs(experiment: str, kwargs: dict) -> None:
    """Refuse unknown, missing and mistyped experiment parameters before any
    work.  A value must fit the type of the parameter's default, or of its
    annotation where the default is missing or None.  The keys of `chain_kw`
    must be `ChainConfig` fields other than the two the experiment sets, and
    their values must fit the field defaults."""
    params = inspect.signature(EXPERIMENTS[experiment], eval_str=True).parameters
    unknown = sorted(set(kwargs) - set(params))
    if unknown:
        raise ConfigurationError(f"experiment {experiment!r} takes no "
                                 f"parameter {unknown[0]!r}; it takes {list(params)}")
    missing = [key for key, p in params.items() if p.default is p.empty and key not in kwargs]
    if missing:
        raise ConfigurationError(f"experiment {experiment!r} needs parameter {missing[0]!r}")
    for key, value in kwargs.items():
        p = params[key]
        if p.default is p.empty or p.default is None:
            kinds = typing.get_args(p.annotation) or (p.annotation,)
        else:
            kinds = (type(p.default),)
        if not any(_fits(value, kind, p.default) for kind in kinds):
            raise ConfigurationError(f"experiment {experiment!r}: parameter {key!r} = "
                                     f"{value!r} is not {_want(kinds, p.default)}")
    chain_fields = {f.name: f.default for f in fields(ChainConfig)
                    if f.name not in ("samples", "seed")}
    for key, value in (kwargs.get("chain_kw") or {}).items():
        if key not in chain_fields:
            raise ConfigurationError(f"experiment {experiment!r}: chain_kw takes no key "
                                     f"{key!r}; it takes {list(chain_fields)}")
        default = chain_fields[key]
        if not _fits(value, type(default), default):
            raise ConfigurationError(f"experiment {experiment!r}: chain_kw {key!r} = "
                                     f"{value!r} is not {_want((type(default),), default)}")


def cmd_verify(args):
    if args.experiment not in EXPERIMENTS:
        print(f"unknown experiment {args.experiment!r}; choose from "
              f"{sorted(EXPERIMENTS)}", file=sys.stderr)
        return USAGE_ERROR
    kwargs = {}
    if args.config:
        config = _read_json(args.config, "config file")
        if not isinstance(config, dict):
            raise ConfigurationError(f"config file {args.config!r} is not a JSON object")
        kwargs.update(config)
    for key in ("N", "seed", "samples", "eta", "mode"):
        if getattr(args, key) is not None:
            kwargs[key] = getattr(args, key)
    _check_experiment_kwargs(args.experiment, kwargs)
    if "N_list" in kwargs:
        kwargs["N_list"] = tuple(kwargs["N_list"])
    result = EXPERIMENTS[args.experiment](**kwargs)
    out = _ensure_outdir(args)
    _append_csv_ledger(os.path.join(out, "results.csv"), result)
    _dump_json(os.path.join(out, f"report_{args.experiment}.json"),
               result.to_json_dict())
    _write_manifest(out, "verify",
                    {"experiment": args.experiment, **{k: (list(v) if isinstance(v, tuple) else v)
                                                       for k, v in kwargs.items()}},
                    kwargs.get("seed"), ["results.csv",
                                         f"report_{args.experiment}.json"])
    print(f"{result.name}: {result.verdict} (estimate {result.estimate:.6g}, "
          f"reference {result.reference})")
    return 0 if result.verdict in ("pass", "informational") else VERDICT_FAIL


# ---------------------------------------------------------------- parser

def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="u1higgs",
                                description=__doc__.splitlines()[0])
    sub = p.add_subparsers(dest="command")

    q = sub.add_parser("lattice", help="build and dump a lattice geometry")
    q.add_argument("--N", type=int, required=True)
    q.add_argument("--dump", action="store_true")
    q.add_argument("--out")
    q.set_defaults(func=cmd_lattice)

    q = sub.add_parser("sample", help="draw pure-gauge or interacting samples")
    q.add_argument("mode", choices=["pure", "interacting"])
    q.add_argument("--N", type=int, required=True)
    q.add_argument("--samples", type=int, required=True)
    q.add_argument("--seed", type=int)
    q.add_argument("--method", default="loop-expansion", choices=list(WEIGHT_METHODS))
    q.add_argument("--potential-c", type=float, default=1.0)
    q.add_argument("--burn-in", type=int, default=1000)
    q.add_argument("--thin", type=int, default=4)
    q.add_argument("--chains", type=int, default=2)
    q.add_argument("--out")
    q.set_defaults(func=cmd_sample)

    q = sub.add_parser("gaugefix", help="run the gauge-fixing pipeline")
    q.add_argument("--field", required=True, help="gauge-field JSON")
    q.add_argument("--alpha", type=float, default=0.5)
    q.add_argument("--beta", type=float, action="append")
    q.add_argument("--kappa", type=float, default=0.25)
    q.add_argument("--force-m", type=int, default=None)
    q.add_argument("--out")
    q.set_defaults(func=cmd_gaugefix)

    q = sub.add_parser("norms", help="Holder-Besov norms of log g")
    q.add_argument("--field", required=True)
    q.add_argument("--alpha", type=float, default=0.5)
    q.add_argument("--out")
    q.set_defaults(func=cmd_norms)

    q = sub.add_parser("loopexp", help="evaluate a loop expansion on a multigraph")
    q.add_argument("--graph", required=True, help="multigraph description JSON")
    q.add_argument("--max-total", type=int, default=12)
    q.add_argument("--out")
    q.set_defaults(func=cmd_loopexp)

    q = sub.add_parser("verify", help="run a verification experiment")
    q.add_argument("experiment")
    q.add_argument("--config", help="JSON file with experiment parameters")
    q.add_argument("--N", type=int)
    q.add_argument("--seed", type=int)
    q.add_argument("--samples", type=int)
    q.add_argument("--eta", type=float)
    q.add_argument("--mode")
    q.add_argument("--out")
    q.set_defaults(func=cmd_verify)
    return p


def run(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return USAGE_ERROR if e.code not in (0, None) else 0
    if not getattr(args, "command", None):
        parser.print_help()
        return USAGE_ERROR
    try:
        return args.func(args)
    except (DomainError, ConfigurationError) as e:
        print(f"error: {e}", file=sys.stderr)
        return USAGE_ERROR
    except (ResourceError, NumericalError) as e:
        print(f"error: {e}", file=sys.stderr)
        return NUMERICAL_ERROR


def main():
    sys.exit(run())


if __name__ == "__main__":
    main()
