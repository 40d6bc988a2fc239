#!/usr/bin/env python3
"""Cubic oscillator under a frequency sweep: expansion vs full integration.

A chirp is the textbook aperiodic signal: the instantaneous frequency
crosses the resonance, so no periodic or quasiperiodic steady-state
method applies, while the amplitude-expansion route handles it like any
other sampled forcing. This script pushes a chirp through a cubic
oscillator, solved once at the highest requested order, and reports how
the error of each order's partial sum against a full Newmark integration
falls as the order grows.

Example:
    python3 scripts/run_chirp_demo.py --rate 0.002 --delta 0.15 \
        --orders 1 3 5 7 --out-dir out_chirp
"""

import argparse
import math
import os

from steadystate import (
    build_duffing,
    compute_taylor_gss,
    evaluate_at_amplitude,
    generate_forcing,
    newmark_full,
    nmte,
)
from steadystate.serialize import write_trajectory_csv


def parse_args():
    p = argparse.ArgumentParser(description=__doc__,
                                formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--omega", type=float, default=1.0, help="natural frequency")
    p.add_argument("--zeta", type=float, default=0.2, help="damping ratio")
    p.add_argument("--kappa3", type=float, default=1.0, help="cubic coefficient")
    p.add_argument("--delta", type=float, default=0.15, help="forcing amplitude")
    p.add_argument("--f0", type=float, default=0.05, help="start frequency [Hz]")
    p.add_argument("--rate", type=float, default=0.002, help="sweep rate [Hz/s]")
    p.add_argument("--duration", type=float, default=120.0)
    p.add_argument("--dt", type=float, default=0.01)
    p.add_argument("--pad", type=int, default=500, help="leading zero samples")
    p.add_argument("--orders", type=int, nargs="+", default=[1, 3, 5, 7])
    p.add_argument("--out-dir", default=None, help="write trajectory CSVs here")
    return p.parse_args()


def main():
    args = parse_args()
    system = build_duffing(omega=args.omega, zeta=args.zeta, kappa3=args.kappa3)
    forcing = generate_forcing("chirp", n=1, duration=args.duration, dt=args.dt,
                               delta=args.delta, pad=args.pad,
                               f0=args.f0, rate=args.rate)
    reference = newmark_full(system, forcing)

    print(f"chirp {args.f0} Hz + {args.rate} Hz/s across resonance "
          f"{args.omega / (2 * math.pi):.3f} Hz, delta {args.delta}")
    # lower orders do not depend on the top one: one solve at the top
    # order gives every partial sum
    expansion = compute_taylor_gss(system, forcing, order=max(args.orders))
    for order in sorted(args.orders):
        trajectory = evaluate_at_amplitude(expansion, forcing.max_magnitude, max_order=order)
        err = nmte(trajectory, reference, skip=forcing.pad_length)
        print(f"  order {order:2d}: NMTE {err:.3e}")
        best = trajectory

    if args.out_dir:
        os.makedirs(args.out_dir, exist_ok=True)
        write_trajectory_csv(os.path.join(args.out_dir, "expansion.csv"),
                             best, forcing.dt, t0=forcing.t0)
        write_trajectory_csv(os.path.join(args.out_dir, "newmark.csv"),
                             reference, forcing.dt, t0=forcing.t0)
        print(f"trajectories written to {args.out_dir}/")


if __name__ == "__main__":
    main()
