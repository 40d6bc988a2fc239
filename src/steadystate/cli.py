"""Command line front end.

Subcommands:

  compute    amplitude expansion for a config + forcing, saved as an
             expansion container and/or an evaluated trajectory CSV
  compare    expansion versus full nonlinear time integration (NMTE)
  pade       rational resummation of a saved expansion container
  frc        forced-response sweep over a frequency grid
  diagnose   decomposition summary and contraction certificate

Exit codes: 0 success; 2 the input's fault, any errors.InputError (a
malformed config or forcing, an argument out of range, an output path
that cannot be written); 3 any other library error, a numerical failure;
4 resonance guard. Exits 2, 3 and 4 print one `Category: message` line
on stderr and no traceback.

The --forcing argument takes either a CSV path or a generator
expression `kind,key=value,...` (kinds: chirp, filtered_gaussian,
rossler, two_tone) with keys duration, dt, delta, plus the kind's own
parameters; --seed feeds the seeded kinds and --pad sets the leading
zeros (the keys seed, pad, n and kind are refused).
"""

from __future__ import annotations

import argparse
import json
import os
import sys

import numpy as np

from . import bench, serialize
from .errors import ConfigError, InputError, NearResonance, SteadyStateError
from .gss import _decompose, compute_taylor_gss, evaluate_at_amplitude, evaluate_pade, pade_resum
from .model import _check_int
from .oracle import newmark_full
from .spectral import check_contraction, select_modes

# generator keys that would collide with generate_forcing's own arguments
_RESERVED_KEYS = {"seed", "pad", "n", "kind"}


def _parse_generator(expr: str) -> tuple[str, dict]:
    parts = expr.split(",")
    kind = parts[0].strip()
    params: dict = {}
    for chunk in parts[1:]:
        if "=" not in chunk:
            raise ConfigError(f"generator parameter {chunk!r} is not key=value")
        key, value = chunk.split("=", 1)
        key = key.strip()
        value = value.strip()
        try:
            if key == "dofs":
                params[key] = tuple(int(v) for v in value.split("+"))
            else:
                params[key] = float(value)
        except ValueError:
            raise ConfigError(f"generator parameter {key}={value!r} is not numeric") from None
    return kind, params


def _load_forcing_arg(args, system):
    expr = args.forcing
    if os.path.exists(expr):
        return serialize.read_forcing_csv(
            expr, dt=getattr(args, "dt", None), pad_length=args.pad
        )
    kind, params = _parse_generator(expr)
    if kind not in ("chirp", "filtered_gaussian", "rossler", "two_tone"):
        raise ConfigError(f"--forcing {expr!r}: no such file and no such generator")
    clash = sorted(_RESERVED_KEYS & params.keys())
    if clash:
        raise ConfigError(
            f"generator key(s) {', '.join(clash)} not allowed: the seed comes from --seed, "
            "the pad from --pad, n from the config and the kind from the expression"
        )
    duration = params.pop("duration", None)
    dt = params.pop("dt", None)
    delta = params.pop("delta", 1.0)
    dofs = params.pop("dofs", None)
    if duration is None or dt is None:
        raise ConfigError("generator expressions need duration=... and dt=...")
    return bench.generate_forcing(
        kind,
        system.n,
        duration,
        dt,
        delta,
        seed=args.seed,
        pad=args.pad,
        dofs=dofs,
        **params,
    )


def _print(obj):
    print(json.dumps(obj, sort_keys=True))


def _expand(args, system, forcing, delta):
    """compute_taylor_gss with the solver options compute and compare share."""
    return compute_taylor_gss(
        system, forcing, args.order, backend=args.backend, eps_trunc=args.eps_trunc,
        delta=delta, base_frequencies=args.base_freq, harmonic_budget=args.harmonic,
    )


def _cmd_compute(args):
    system = serialize.load_system(args.config)
    forcing = _load_forcing_arg(args, system)
    expansion = _expand(args, system, forcing, args.delta)
    if args.out:
        serialize.save_expansion(expansion, args.out)
    if args.trajectory:
        delta = args.delta if args.delta is not None else expansion.delta_ref
        traj = evaluate_at_amplitude(expansion, delta)
        serialize.write_trajectory_csv(
            args.trajectory, traj, expansion.tensor.dt, expansion.tensor.t0
        )
    _print(
        {
            "order": expansion.order,
            "backend": expansion.backend,
            "delta_ref": expansion.delta_ref,
            "forcing_sup": expansion.forcing_sup,
            "retained_modes": len(expansion.spectral.retained),
            "length": expansion.length,
            "cache": expansion.cache_stats,
            "out": args.out,
        }
    )
    return 0


def _cmd_compare(args):
    system = serialize.load_system(args.config)
    forcing = _load_forcing_arg(args, system)
    skip = args.skip if args.skip is not None else forcing.pad_length
    _check_int(skip, "skip", 0, forcing.length - 1)  # before either solve
    delta = args.delta if args.delta is not None else forcing.max_magnitude
    expansion = _expand(args, system, forcing, delta)
    taylor = evaluate_at_amplitude(expansion, delta)
    scale = delta / forcing.max_magnitude if forcing.max_magnitude > 0 else 0.0
    reference = newmark_full(system, forcing.scaled(scale))
    err = bench.nmte(taylor, reference, skip=skip)
    sup = float(np.linalg.norm(taylor - reference, axis=0).max())
    if args.trajectory:
        serialize.write_trajectory_csv(
            args.trajectory, taylor, expansion.tensor.dt, expansion.tensor.t0
        )
    _print(
        {
            "order": expansion.order,
            "backend": expansion.backend,
            "delta": delta,
            "nmte": err,
            "sup_error": sup,
            "skip": skip,
        }
    )
    return 0


def _parse_pade(expr: str):
    try:
        left, right = expr.split(":")
        return int(left), int(right)
    except ValueError:
        raise ConfigError(f"--pade wants L:M, got {expr!r}")


def _cmd_pade(args):
    expansion = serialize.load_expansion(args.expansion)
    L, M = _parse_pade(args.pade)
    pade = pade_resum(expansion, L, M)
    if args.out:
        serialize.save_pade(pade, args.out)
    poles = pade.poles
    summary = {
        "L": L,
        "M": M,
        "sigma": pade.sigma,
        "ill_conditioned": list(pade.ill_conditioned),
        "nearest_pole": [poles[0].real, poles[0].imag] if poles.size else None,
        "out": args.out,
    }
    if args.delta is not None:
        traj = evaluate_pade(pade, args.delta)
        if args.trajectory:
            serialize.write_trajectory_csv(args.trajectory, traj, pade.dt, pade.t0)
        summary["delta"] = args.delta
        summary["sup_amplitude"] = float(np.abs(traj).max())
    _print(summary)
    return 0


def _cmd_frc(args):
    if args.points < 1:
        raise ConfigError(f"--points must be at least 1, got {args.points}")
    system = serialize.load_system(args.config)
    grid = np.linspace(args.omega_min, args.omega_max, args.points)
    result = bench.frc_sweep(
        system,
        grid,
        delta=args.delta if args.delta is not None else 1.0,
        order=args.order,
        harmonic_budget=args.harmonic,
        threads=args.threads,
        dofs=args.dof if args.dof else None,
    )
    if args.out:
        header = "omega," + ",".join(f"amp_z{j}" for j in range(result.amplitude.shape[1]))
        serialize._write_csv(args.out, header, np.column_stack([result.omega, result.amplitude]))
    flagged = [i for i, f in enumerate(result.flags) if f]
    _print(
        {
            "points": len(grid),
            "order": result.order,
            "delta": result.delta,
            "flagged": flagged,
            "out": args.out,
        }
    )
    return 0


def _cmd_diagnose(args):
    system = serialize.load_system(args.config)
    spec = _decompose(system)
    if spec.kind == "structural":
        modes = [
            {"omega": float(w), "zeta": float(z)}
            for w, z in zip(spec.omega, spec.zeta)
        ]
    else:
        modes = [
            {"re": float(l.real), "im": float(l.imag)} for l in spec.eigenvalues
        ]
    summary = {
        "kind": spec.kind,
        "state_dim": spec.state_dim,
        "gamma": spec.gamma,
        "modes": modes,
    }
    if args.dt is not None:
        summary["retained_at_dt"] = list(select_modes(spec, args.dt, eps=args.eps_trunc))
    if args.delta is not None:
        report = check_contraction(
            system,
            spec,
            delta=args.delta,
            forcing_delta=args.forcing_delta if args.forcing_delta is not None else args.delta,
        )
        summary["contraction"] = {
            "delta": report.delta,
            "lipschitz_F": report.lipschitz_F,
            "contraction_factor": report.contraction_factor,
            "admissible_delta_bound": report.admissible_delta_bound,
            "satisfied": report.satisfied,
            "strict_satisfied": report.strict_satisfied,
        }
    _print(summary)
    return 0


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="gss", description="Steady states of forced nonlinear mechanical systems"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, forcing=True):
        p.add_argument("--config", required=True, help="system config JSON")
        if forcing:
            p.add_argument(
                "--forcing",
                required=True,
                help="forcing CSV path or generator expression kind,key=value,...",
            )
            p.add_argument("--dt", type=float, default=None, help="sampling step for CSVs without a time column")
            p.add_argument("--pad", type=int, default=0, help="leading zero samples to prepend")
            p.add_argument("--seed", type=int, default=None, help="seed for generated forcing")
        p.add_argument("--eps-trunc", type=float, default=1e-3, help="mode retention threshold")

    def solver(p):  # the expansion options of _expand
        p.add_argument("--order", type=int, required=True)
        p.add_argument("--backend", choices=("kernel", "qp"), default="kernel")
        p.add_argument("--base-freq", type=float, nargs="*", default=None, help="qp backend base frequencies")
        p.add_argument("--harmonic", type=int, default=5, help="qp backend harmonic index budget")

    p = sub.add_parser("compute", help="compute an amplitude expansion")
    common(p)
    solver(p)
    p.add_argument("--delta", type=float, default=None, help="evaluation amplitude")
    p.add_argument("--out", default=None, help="expansion container directory")
    p.add_argument("--trajectory", default=None, help="evaluated trajectory CSV")
    p.set_defaults(func=_cmd_compute)

    p = sub.add_parser("compare", help="expansion vs full nonlinear integration")
    common(p)
    solver(p)
    p.add_argument("--delta", type=float, default=None)
    p.add_argument("--skip", type=int, default=None, help="samples to skip in metrics (default: pad)")
    p.add_argument("--trajectory", default=None)
    p.set_defaults(func=_cmd_compare)

    p = sub.add_parser("pade", help="rational resummation of a saved expansion")
    p.add_argument("--expansion", required=True, help="expansion container directory")
    p.add_argument("--pade", required=True, help="numerator:denominator orders, e.g. 10:10")
    p.add_argument("--delta", type=float, default=None, help="evaluation amplitude")
    p.add_argument("--out", default=None, help="resummation container directory")
    p.add_argument("--trajectory", default=None)
    p.set_defaults(func=_cmd_pade)

    p = sub.add_parser("frc", help="forced response over a frequency grid")
    p.add_argument("--config", required=True)
    p.add_argument("--omega-min", type=float, required=True)
    p.add_argument("--omega-max", type=float, required=True)
    p.add_argument("--points", type=int, required=True)
    p.add_argument("--delta", type=float, default=None)
    p.add_argument("--order", type=int, default=5)
    p.add_argument("--harmonic", type=int, default=5, help="harmonic index budget")
    p.add_argument("--threads", type=int, default=1, help="an integer >= 1; no effect")
    p.add_argument("--dof", type=int, nargs="*", default=None, help="forced dofs (default: all)")
    p.add_argument("--out", default=None, help="amplitude CSV")
    p.set_defaults(func=_cmd_frc)

    p = sub.add_parser("diagnose", help="spectral summary and contraction check")
    p.add_argument("--config", required=True)
    p.add_argument("--dt", type=float, default=None, help="report mode retention at this step")
    p.add_argument("--eps-trunc", type=float, default=1e-3)
    p.add_argument("--delta", type=float, default=None, help="state ball radius for the certificate")
    p.add_argument("--forcing-delta", type=float, default=None)
    p.set_defaults(func=_cmd_diagnose)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except NearResonance as exc:
        print(f"NearResonance: {exc}", file=sys.stderr)
        return 4
    except InputError as exc:
        print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
        return 2
    except SteadyStateError as exc:
        print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
