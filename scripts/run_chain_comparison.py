#!/usr/bin/env python3
"""Nonlinear oscillator chain: amplitude expansion vs full time integration.

Drives a cubic spring-mass chain with band-limited random forcing applied
at both ends, computes the bounded steady response by recursive Taylor
expansion, and checks it against a full Newmark integration of the same
signal. Prints the error metric, the runtime of each route and the
process's peak memory after the expansion route (before the full
integration runs), and can write both trajectories to CSV for inspection.

Example:
    python3 scripts/run_chain_comparison.py --order 10 --duration 100 \
        --dt 0.001 --out-dir out_chain
"""

import argparse
import json
import os
import resource
import time

from steadystate import (
    build_oscillator_chain,
    compute_taylor_gss,
    evaluate_at_amplitude,
    generate_forcing,
    newmark_full,
    nmte,
    select_modes,
)
from steadystate.serialize import write_trajectory_csv


def parse_args():
    p = argparse.ArgumentParser(description=__doc__,
                                formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--n", type=int, default=20, help="number of masses")
    p.add_argument("--mass", type=float, default=0.1, help="mass per node [kg]")
    p.add_argument("--k-lin", type=float, default=100.0, help="linear spring [N/m]")
    p.add_argument("--kappa3", type=float, default=2500.0, help="cubic spring [N/m^3]")
    p.add_argument("--c", type=float, default=0.1, help="dashpot [Ns/m]")
    p.add_argument("--delta", type=float, default=2.8, help="forcing amplitude [N]")
    p.add_argument("--f-cut", type=float, default=7.5, help="low-pass cutoff [Hz]")
    p.add_argument("--duration", type=float, default=100.0, help="signal length [s]")
    p.add_argument("--dt", type=float, default=0.001, help="sampling step [s]")
    p.add_argument("--pad", type=int, default=1000, help="leading zero samples")
    p.add_argument("--order", type=int, default=10, help="expansion order")
    p.add_argument("--seed", type=int, default=42)
    p.add_argument("--out-dir", default=None, help="write trajectory CSVs here")
    return p.parse_args()


def main():
    args = parse_args()
    system = build_oscillator_chain(args.n, m=args.mass, k_lin=args.k_lin,
                                    c=args.c, kappa3=args.kappa3)
    forcing = generate_forcing("filtered_gaussian", n=args.n,
                               duration=args.duration, dt=args.dt,
                               delta=args.delta, seed=args.seed,
                               f_cut=args.f_cut, pad=args.pad,
                               dofs=(0, args.n - 1))

    t0 = time.perf_counter()
    expansion = compute_taylor_gss(system, forcing, order=args.order)
    trajectory = evaluate_at_amplitude(expansion, forcing.max_magnitude)
    t_expansion = time.perf_counter() - t0
    # peak resident set so far, the expansion route's; ru_maxrss is in KiB on Linux
    expansion_peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    t0 = time.perf_counter()
    reference = newmark_full(system, forcing)
    t_reference = time.perf_counter() - t0

    summary = {
        "n": args.n,
        "order": args.order,
        "samples": forcing.length,
        "nmte": nmte(trajectory, reference, skip=forcing.pad_length),
        "expansion_seconds": round(t_expansion, 3),
        "newmark_seconds": round(t_reference, 3),
        "speedup": round(t_reference / t_expansion, 2),
        "expansion_peak_rss_mb": round(expansion_peak_rss_mb, 1),
        "retained_modes": len(select_modes(expansion.spectral, args.dt,
                                           eps=expansion.eps_trunc)),
    }
    print(json.dumps(summary, indent=2))

    if args.out_dir:
        os.makedirs(args.out_dir, exist_ok=True)
        write_trajectory_csv(os.path.join(args.out_dir, "expansion.csv"),
                             trajectory, forcing.dt, t0=forcing.t0)
        write_trajectory_csv(os.path.join(args.out_dir, "newmark.csv"),
                             reference, forcing.dt, t0=forcing.t0)
        print(f"trajectories written to {args.out_dir}/")


if __name__ == "__main__":
    main()
