#!/usr/bin/env python3
"""Batch driver: run every verification experiment at desk-scale defaults
and write their combined JSON report (one record per experiment) to --out."""

import argparse
import json
import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from u1higgs.mc_verify import (
    verify_decorrelation,
    verify_flatness_moments,
    verify_mgf,
    verify_plaquette_sum_moments,
    verify_tail,
    verify_uv_stability,
)


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seed", type=int, default=7)
    ap.add_argument("--samples", type=int, default=50_000)
    ap.add_argument("--out", default="experiment_report.json")
    args = ap.parse_args()

    runs = [
        verify_mgf(4, eta=1.0, samples=args.samples, seed=args.seed),
        verify_mgf(2, eta=1.0, samples=max(1000, args.samples // 20),
                   mode="interacting", seed=args.seed,
                   chain_kw={"burn_in": 1000, "thin": 4, "n_chains": 2}),
        verify_tail(3, samples=args.samples, seed=args.seed),
        verify_plaquette_sum_moments(3, samples=args.samples, seed=args.seed),
        verify_decorrelation(1.0, 1.0, 0.5, 0.2),
        verify_flatness_moments((2, 3, 4), alpha=0.5, q=5,
                                samples=max(50, args.samples // 500),
                                seed=args.seed),
        verify_uv_stability((2, 3, 4), beta=0.5, q=2.0,
                            samples=max(50, args.samples // 500),
                            seed=args.seed),
    ]
    report = [r.to_json_dict() for r in runs]
    with open(args.out, "w") as f:
        json.dump(report, f, indent=1)
        f.write("\n")
    for r in runs:
        print(f"{r.name:24s} {r.verdict:13s} estimate={r.estimate:.6g}")
    bad = [r for r in runs if r.verdict == "fail"]
    sys.exit(1 if bad else 0)


if __name__ == "__main__":
    main()
