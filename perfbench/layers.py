"""Layer table of the benchmark: which public functions the traced run wraps,
the unit of each one's per-call self time, and the end-to-end metric each
layer metric is expected to move, on which workload.  On a workload a row
does not name, the prediction is no change.  `wall_ref` and `work_per_ref`
are the gated round time and work rate in units of the reference kernel
(reference.py); `work_per_ref` is chain_steps_per_ref (chain workloads) or
configs_per_ref (gaugefix_scan).  `ess_per_s` and `config_ms_*` are reported
by every run but not gated.

A span is named after the module that defines the function; the wrapper is
installed on every binding a caller looks it up through (module attributes
of the u1higgs package and entries of module-level dicts).
"""

from __future__ import annotations

# (span name, defining module, attribute, self-time unit, moves, on)
SPANS = [
    ("rng.stream", "rng", "stream", "us",
     "work_per_ref", "loop_chain (~1/2 of a step), pm_chain (~1/4)"),
    ("sampler.higgs_weight_mc", "sampler", "higgs_weight_mc", "us",
     "work_per_ref", "pm_chain"),
    ("gauge_core.covariant_laplacian", "gauge_core", "covariant_laplacian", "us",
     "work_per_ref", "pm_chain"),
    ("gauge_core.psi", "gauge_core", "psi", "us", "work_per_ref", "pm_chain"),
    ("sampler.tune_proposal", "sampler", "tune_proposal", "s",
     "work_per_ref", "pm_chain, loop_chain"),
    ("sampler.sample_interacting", "sampler", "sample_interacting", "s",
     "work_per_ref", "pm_chain, loop_chain"),
    ("loop_expansion.higgs_loop_coefficients", "loop_expansion",
     "higgs_loop_coefficients", "ms", "wall_ref, work_per_ref", "loop_chain"),
    ("loop_expansion.expansion_value", "loop_expansion", "expansion_value", "ms",
     "wall_ref", "loop_chain"),
    ("mc_verify.verify_mgf", "mc_verify", "verify_mgf", "s",
     "wall_ref", "pm_chain, loop_chain"),
    ("cli.run", "cli", "run", "ms", "wall_ref", "loop_chain"),
    ("gauge_fixing.landau_extend", "gauge_fixing", "landau_extend", "ms",
     "work_per_ref, config_ms_tail", "gaugefix_scan"),
    ("gauge_fixing.flatness", "gauge_fixing", "flatness", "ms",
     "work_per_ref, config_ms_p50", "gaugefix_scan"),
    ("norms.seminorm_rho", "norms", "seminorm_rho", "ms",
     "work_per_ref, config_ms_p50", "gaugefix_scan"),
    ("norms.norm_gr", "norms", "norm_gr", "ms",
     "work_per_ref, config_ms_p50", "gaugefix_scan"),
    ("gauge_fixing.thin_rect_holonomy_sup", "gauge_fixing",
     "thin_rect_holonomy_sup", "ms", "work_per_ref", "gaugefix_scan"),
    ("gauge_fixing.coarse_restrict", "gauge_fixing", "coarse_restrict", "ms",
     "work_per_ref", "gaugefix_scan"),
    ("gauge_fixing.gauge_fix", "gauge_fixing", "gauge_fix", "ms",
     "work_per_ref", "gaugefix_scan"),
    ("gauge_core.to_axial", "gauge_core", "to_axial", "ms",
     "work_per_ref", "gaugefix_scan"),
    ("gauge_core.apply_gauge", "gauge_core", "apply_gauge", "ms",
     "work_per_ref", "gaugefix_scan"),
    ("lattice_geom.build_lattice", "lattice_geom", "build_lattice", "us",
     "work_per_ref", "gaugefix_scan"),
]

# Spans whose calls are broken down by the lattice scale of their first
# argument (a gauge field or a one-form).
PER_N_SPANS = ("gauge_fixing.flatness", "norms.seminorm_rho")

# Metrics derived from spans, results and chain records rather than from one
# span's self time: (name, unit, moves, on).
DERIVED = [
    ("rng.stream.per_step", "count", "work_per_ref", "loop_chain, pm_chain"),
    ("sampler.step_us", "us", "work_per_ref", "pm_chain, loop_chain"),
    ("sampler.acceptance", "ratio", "ess_per_s", "pm_chain"),
    ("sampler.iat", "steps", "ess_per_s", "pm_chain"),
    ("sampler.weight_ess_frac", "ratio", "ess_per_s", "pm_chain"),
    ("sampler.logw_sd", "1", "ess_per_s", "pm_chain (N=2)"),
    ("sampler.logw_sd.N3", "1", "ess_per_s", "pm_chain (N=3)"),
    ("loop_expansion.higgs_loop_coefficients.windings", "count",
     "wall_ref, work_per_ref", "loop_chain"),
    ("loop_expansion.expansion_value.terms", "count", "wall_ref", "loop_chain"),
    ("cli.bytes_written", "bytes", "wall_ref", "loop_chain"),
    ("gauge_fixing.fallback_frac", "ratio", "none (work shape)", "gaugefix_scan"),
    ("gauge_fixing.violations", "count", "none (work shape)", "gaugefix_scan"),
]
