"""Metric definitions: end-to-end metrics from untraced rounds, per-layer
metrics from traced rounds, and the human-readable summary that names the
workload-specific end-to-end figures (chain steps, ESS, gauge-fixed fields).
"""

from __future__ import annotations

import math
import statistics

from layers import DERIVED, PER_N_SPANS, SPANS

SCALE = {"s": 1.0, "ms": 1e3, "us": 1e6}
GAUGEFIX_N = (5, 6)
GAUGEFIX_PATHS = ("fallback", "damped", "forced")


def _mean(xs):
    return statistics.fmean(xs) if xs else 0.0


def _tag_n(args, kwargs):
    return args[0].geom.N


def _observe_ess(args, kwargs, result):
    n = args[3] if len(args) > 3 else kwargs.get("n_samples", 4096)
    return result.ess / n


def _observe_len(attr):
    return lambda args, kwargs, result: len(getattr(result, attr))


OBSERVERS = {
    "sampler.higgs_weight_mc": _observe_ess,
    "loop_expansion.higgs_loop_coefficients": _observe_len("coeffs"),
    "loop_expansion.expansion_value": _observe_len("ledger"),
}


def span_specs():
    return [(name, module, attr, _tag_n if name in PER_N_SPANS else None,
             OBSERVERS.get(name)) for name, module, attr, *_ in SPANS]


def _field_ops(rounds):
    return [op for rd in rounds for op in rd["ops"] if op.kind.startswith("field_")]


def _chain(records, traced):
    return [rec for rec in records if rec["traced"] == traced]


def _typical(rounds, value) -> float:
    """A typical round: for each kind of operation, its count per round times
    the median of `value(op)` over the given rounds.  Seed-dependent outliers,
    such as a proposal tuning that runs all 8 of its iterations (about one
    CLI sample call in ten), move it only when they are the majority."""
    by_kind: dict[str, list] = {}
    for rd in rounds:
        for op in rd["ops"]:
            by_kind.setdefault(op.kind, []).append(value(op))
    return sum(len(v) / len(rounds) * statistics.median(v) for v in by_kind.values())


def _work(wl, rounds, records):
    """(units, seconds, reference units) of a typical round: production chain
    steps and the wall time of the sample_interacting calls, or gauge-fixed
    fields and their wall time.  A sample_interacting call is converted to
    reference units at the mean rate of the operation that made it."""
    if wl.work_unit == "field":
        return (len(_field_ops(rounds)) / len(rounds), _typical(rounds, lambda op: op.seconds),
                _typical(rounds, lambda op: op.units))
    calls: dict[int, list] = {}
    for rec in records:
        if not rec["traced"]:
            calls.setdefault(id(rec["op"]), []).append(rec)

    def seconds(op):
        return sum(rec["seconds"] for rec in calls.get(id(op), ()))

    return (_typical(rounds, lambda op: sum(rec["steps"] for rec in calls.get(id(op), ()))),
            _typical(rounds, seconds),
            _typical(rounds, lambda op: seconds(op) * op.units / op.seconds if op.seconds else 0.0))


def work_rate(wl, rounds, records, in_reference_units=False) -> float:
    units, seconds, ref_units = _work(wl, rounds, records)
    return units / (ref_units if in_reference_units else seconds)


def end_to_end(wl, rounds, records, setup_s, peak_rss_mb) -> dict:
    """Figures of a typical untraced round.  `wall_ref` and `work_per_ref`
    count time in units of the reference kernel (see reference.py), which
    cancels the drift of the shared host's speed; `wall_s` and `work_per_s`
    are the same figures in seconds."""
    units, seconds, ref_units = _work(wl, rounds, records)
    return {"setup_s": setup_s,
            "wall_ref": _typical(rounds, lambda op: op.units),
            "peak_rss_mb": peak_rss_mb,
            "work_per_ref": units / ref_units,
            "wall_s": _typical(rounds, lambda op: op.seconds),
            "work_per_s": units / seconds}


def tail(xs, percentiles=(99.9, 99.0, 95.0, 90.0, 75.0, 50.0)):
    """Highest listed percentile with at least ten samples beyond it
    (nearest rank) and its value; the median if there are too few."""
    xs = sorted(xs)
    n = len(xs)
    for p in percentiles:
        if n * (1.0 - p / 100.0) >= 10:
            return p, xs[max(math.ceil(p / 100.0 * n) - 1, 0)]
    return 50.0, statistics.median(xs) if xs else 0.0


def _ess_per_s(records) -> float:
    """Sum over untraced chains of post-burn steps / IAT, per second of
    sample_interacting wall time."""
    recs = _chain(records, False)
    seconds = sum(rec["seconds"] for rec in recs)
    return sum(rec["ess"] for rec in recs) / seconds if seconds else 0.0


def _config_ms(rounds):
    """(p50, tail percentile, tail value) of per-field wall time in ms."""
    ms = [op.seconds * 1e3 for op in _field_ops(rounds)]
    if not ms:
        return 0.0, 0.0, 0.0
    p, value = tail(ms)
    return statistics.median(ms), p, value


def summary(wl, rounds, records, e2e, failed, attempted) -> dict:
    """Every end-to-end figure by its workload-specific name: {name: (value, unit)}."""
    out = {"setup_s": (e2e["setup_s"], "s"), "wall_ref": (e2e["wall_ref"], "ref"),
           "wall_s": (e2e["wall_s"], "s"), "peak_rss_mb": (e2e["peak_rss_mb"], "MB"),
           "failed_frac": (failed / attempted, "ratio")}
    if wl.work_unit == "field":
        p50, p, value = _config_ms(rounds)
        out["configs_per_ref"] = (e2e["work_per_ref"], "1/ref")
        out["configs_per_s"] = (e2e["work_per_s"], "1/s")
        out["config_ms_p50"] = (p50, "ms")
        out[f"config_ms_tail(p{p:g})"] = (value, "ms")
    else:
        out["chain_steps_per_ref"] = (e2e["work_per_ref"], "1/ref")
        out["chain_steps_per_s"] = (e2e["work_per_s"], "1/s")
        out["ess_per_s"] = (_ess_per_s(records), "1/s")
    return out


def per_layer(wl, rounds, records, tracer, failed, attempted, e2e, reference):
    """Per-layer metrics {name: (value, unit)} from the traced rounds, and the
    names of metrics whose wrapped function was not found."""
    traced = [rd for rd in rounds if rd["traced"]]
    untraced = [rd for rd in rounds if not rd["traced"]]
    n_rounds = len(traced)
    spans = tracer.spans
    self_t, covered = tracer.self_times()
    out, missing = {}, []

    calls = {name: 0 for name, *_ in SPANS}
    self_sum = {name: 0.0 for name, *_ in SPANS}
    for rec, st in zip(spans, self_t):
        calls[rec[0]] += 1
        self_sum[rec[0]] += st
    for name, _, _, unit, *_ in SPANS:
        if name in tracer.missing:
            missing += [f"{name}.calls", f"{name}.self_{unit}"]
            continue
        out[f"{name}.calls"] = (calls[name] / n_rounds, "count")
        per_call = self_sum[name] / calls[name] if calls[name] else 0.0
        out[f"{name}.self_{unit}"] = (per_call * SCALE[unit], unit)

    # chain context: self time inside sample_interacting, outside tuning and
    # outside Higgs-weight model builds
    index = {id(rec): i for i, rec in enumerate(spans)}
    ctx = [None] * len(spans)
    for i, rec in enumerate(spans):
        inherited = ctx[index[id(rec[3])]] if rec[3] is not None else None
        if rec[0] in ("sampler.tune_proposal", "loop_expansion.higgs_loop_coefficients"):
            ctx[i] = "other"
        elif rec[0] == "sampler.sample_interacting" and inherited is None:
            ctx[i] = "chain"
        else:
            ctx[i] = inherited
    chain_self = sum(st for st, c in zip(self_t, ctx) if c == "chain")
    trecs = _chain(records, True)
    steps = sum(rec["steps"] for rec in trecs)
    observed = tracer.observed
    derived = {
        "rng.stream.per_step": calls["rng.stream"] / steps if steps else 0.0,
        "sampler.step_us": chain_self / steps * 1e6 if steps else 0.0,
        "sampler.acceptance": _mean([a for rec in trecs for a in rec["acceptance"]]),
        "sampler.iat": _mean([rec["iat"] for rec in trecs]),
        "sampler.weight_ess_frac": _mean(observed.get("sampler.higgs_weight_mc", [])),
        "sampler.logw_sd": wl.logw_sd(2) if hasattr(wl, "logw_sd") else 0.0,
        "sampler.logw_sd.N3": wl.logw_sd(3) if hasattr(wl, "logw_sd") else 0.0,
        "loop_expansion.higgs_loop_coefficients.windings":
            _mean(observed.get("loop_expansion.higgs_loop_coefficients", [])),
        "loop_expansion.expansion_value.terms":
            _mean(observed.get("loop_expansion.expansion_value", [])),
        "cli.bytes_written":
            sum(op.info.get("bytes", 0) for rd in traced for op in rd["ops"]) / n_rounds,
    }
    fields = _field_ops(traced)
    derived["gauge_fixing.fallback_frac"] = (
        sum(op.info.get("fell_back", 0) for op in fields)
        / (len(GAUGEFIX_PATHS) * len(fields)) if fields else 0.0)
    derived["gauge_fixing.violations"] = (
        sum(op.info.get("violations", 0) for op in fields) / n_rounds)
    span_of = {"rng.stream.per_step": "rng.stream", "sampler.step_us": "sampler.sample_interacting",
               "sampler.weight_ess_frac": "sampler.higgs_weight_mc",
               "loop_expansion.higgs_loop_coefficients.windings":
                   "loop_expansion.higgs_loop_coefficients",
               "loop_expansion.expansion_value.terms": "loop_expansion.expansion_value",
               "cli.bytes_written": "cli.run"}
    for name, unit, *_ in DERIVED:
        if span_of.get(name) in tracer.missing:
            missing.append(name)
        else:
            out[name] = (derived[name], unit)

    # per-N breakdown of the gauge-fixing layers (reported, not gated)
    for N in GAUGEFIX_N:
        for name in PER_N_SPANS:
            durations = [rec[2] - rec[1] for rec in spans if rec[0] == name and rec[6] == N]
            if name in tracer.missing:
                missing.append(f"{name}.ms.N{N}")
            else:
                out[f"{name}.ms.N{N}"] = (_mean(durations) * 1e3, "ms")
        for path in GAUGEFIX_PATHS:
            times = [op.info["paths"][path] for op in _field_ops(untraced)
                     if op.info.get("N") == N]
            out[f"gauge_fixing.gauge_fix.{path}_ms.N{N}"] = (_mean(times) * 1e3, "ms")

    # end-to-end figures that have no meaning on every workload, from the
    # untraced executions of this run
    p50, p, value = _config_ms(untraced)
    out["config_ms_p50"] = (p50, "ms")
    out["config_ms_tail"] = (value, "ms")
    out["config_tail_pct"] = (p, "%")
    out["ess_per_s"] = (_ess_per_s(records), "1/s")
    out["failed_frac"] = (failed / attempted, "ratio")

    # wall_ref and work_per_ref in seconds, and the reference kernel's median time
    out["host.wall_s"] = (e2e["wall_s"], "s")
    out["host.work_per_s"] = (e2e["work_per_s"], "1/s")
    out["host.ref_ms"] = (statistics.median(reference.readings) * 1e3, "ms")

    def ref_units(rds):
        return sum(op.units for rd in rds for op in rd["ops"])

    traced_wall = sum(rd["seconds"] for rd in traced)
    out["trace.overhead_frac"] = (ref_units(traced) / ref_units(untraced) - 1.0, "ratio")
    out["trace.wall_s"] = (traced_wall / n_rounds, "s")
    out["trace.self_sum_s"] = (covered / n_rounds, "s")
    out["trace.remainder_s"] = ((traced_wall - covered) / n_rounds, "s")
    return out, missing
