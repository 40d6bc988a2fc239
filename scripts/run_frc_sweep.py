#!/usr/bin/env python3
"""Forced response curves of the cubic chain across damping levels.

Sweeps a sinusoidal forcing frequency over a grid, computes the steady
amplitude of a chosen mass from the closed-form quasiperiodic route at
each point, and repeats the sweep for several dashpot values. The result
is one CSV per damping level with columns omega, amp_z0, amp_z1, ...;
grid points whose harmonics fall too close to a resonance are flagged
and reported as NaN rows.

Example:
    python3 scripts/run_frc_sweep.py --omega-min 2 --omega-max 20 \
        --points 60 --dampings 0.01 0.1 3.0 --dof 4 --out-dir out_frc
"""

import argparse
import os

import numpy as np

from steadystate import build_oscillator_chain, frc_sweep


def parse_args():
    p = argparse.ArgumentParser(description=__doc__,
                                formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--n", type=int, default=20, help="number of masses")
    p.add_argument("--mass", type=float, default=0.1, help="mass per node [kg]")
    p.add_argument("--k-lin", type=float, default=100.0, help="linear spring [N/m]")
    p.add_argument("--kappa3", type=float, default=2500.0, help="cubic spring [N/m^3]")
    p.add_argument("--dampings", type=float, nargs="+", default=[0.01, 0.1, 3.0],
                   help="dashpot values to sweep [Ns/m]")
    p.add_argument("--omega-min", type=float, default=2.0)
    p.add_argument("--omega-max", type=float, default=20.0)
    p.add_argument("--points", type=int, default=60)
    p.add_argument("--delta", type=float, default=4.0, help="forcing amplitude [N]")
    p.add_argument("--dof", type=int, default=4, help="forced mass index")
    p.add_argument("--order", type=int, default=7, help="expansion order")
    p.add_argument("--harmonics", type=int, default=None,
                   help="harmonic budget (default: the order, which keeps the "
                        "expansion free of truncation)")
    p.add_argument("--out-dir", default="out_frc")
    return p.parse_args()


def main():
    args = parse_args()
    omegas = np.linspace(args.omega_min, args.omega_max, args.points)
    os.makedirs(args.out_dir, exist_ok=True)
    for c in args.dampings:
        system = build_oscillator_chain(args.n, m=args.mass, k_lin=args.k_lin,
                                        c=c, kappa3=args.kappa3)
        result = frc_sweep(system, omegas, delta=args.delta, order=args.order,
                           harmonic_budget=(args.harmonics if args.harmonics is not None
                                            else args.order),
                           dofs=(args.dof,))
        path = os.path.join(args.out_dir, f"frc_c{c:g}.csv")
        header = "omega," + ",".join(
            f"amp_z{j}" for j in range(result.amplitude.shape[1]))
        np.savetxt(path, np.column_stack([result.omega, result.amplitude]),
                   fmt="%.17g", delimiter=",", header=header, comments="")
        flagged = [f"{omegas[i]:g}" for i, fl in enumerate(result.flags) if fl]
        note = f", flagged near resonance: {', '.join(flagged)}" if flagged else ""
        print(f"c = {c:g}: {path}{note}")


if __name__ == "__main__":
    main()
