"""File formats: system configs, forcing and trajectory CSV, expansion
and resummation containers.

All floating point text is written with %.17g (or repr, for JSON),
which round-trips float64 exactly; the loaders therefore reproduce
saved grids bit for bit. An expansion container is a directory holding
manifest.json plus one CSV per order; the CSVs carry a redundant time
column for inspection, which loaders ignore in favor of the manifest's
dt and t0.
"""

from __future__ import annotations

import json
import os

import numpy as np

from .errors import ConfigError
from .gss import GssExpansion, PadeGss
from .composition import CoefficientTensor
from .model import ForcingSignal, MechanicalSystem, build_system, load_forcing

__all__ = [
    "save_system",
    "load_system",
    "write_forcing_csv",
    "read_forcing_csv",
    "write_trajectory_csv",
    "read_trajectory_csv",
    "save_expansion",
    "load_expansion",
    "save_pade",
    "load_pade",
]

_FMT = "%.17g"


def _system_dict(system: MechanicalSystem) -> dict:
    terms = []
    for exponents, coeff in system.nonlinearity.terms:
        for dof, c in enumerate(np.asarray(coeff)):
            if c != 0.0:
                terms.append(
                    {
                        "exponents": list(int(e) for e in exponents),
                        "target_dof": int(dof),
                        "coefficient": float(c),
                    }
                )
    return {
        "n": system.n,
        "M": system.M.tolist(),
        "C": system.C.tolist(),
        "K": system.K.tolist(),
        "terms": terms,
        "damping": system.damping_class.kind,
    }


def save_system(system: MechanicalSystem, path: str) -> None:
    """Write a system config as JSON (matrices, polynomial terms, damping)."""
    with open(path, "w") as fh:
        json.dump(_system_dict(system), fh, indent=1)
        fh.write("\n")


def load_system(path: str) -> MechanicalSystem:
    """Build a system from a JSON config.

    Structural problems (missing keys, ragged matrices, bad term
    entries) raise ConfigError; the physical validations (symmetry,
    definiteness) raise their own model errors.
    """
    try:
        with open(path) as fh:
            raw = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from None
    try:
        n = int(raw["n"])
        M = np.asarray(raw["M"], dtype=float)
        C = np.asarray(raw["C"], dtype=float)
        K = np.asarray(raw["K"], dtype=float)
        terms = [
            (
                tuple(int(e) for e in t["exponents"]),
                int(t["target_dof"]),
                float(t["coefficient"]),
            )
            for t in raw.get("terms", [])
        ]
        damping = raw.get("damping")
    except (KeyError, TypeError, ValueError) as exc:
        raise ConfigError(f"malformed config {path}: {exc}") from None
    if M.shape != (n, n):
        raise ConfigError(f"M has shape {M.shape}, config says n={n}")
    return build_system(M, C, K, terms=terms, damping=damping)


def write_forcing_csv(signal: ForcingSignal, path: str) -> None:
    """CSV with a time column and one column per dof (pad rows included)."""
    header = "t," + ",".join(f"g{j}" for j in range(signal.n))
    data = np.column_stack([signal.times(), signal.samples])
    np.savetxt(path, data, fmt=_FMT, delimiter=",", header=header, comments="")


def read_forcing_csv(
    path: str, dt: float | None = None, t0: float = 0.0, pad_length: int = 0
) -> ForcingSignal:
    """Load forcing samples; a leading t/time column overrides dt and t0."""
    try:
        with open(path) as fh:
            first = fh.readline().strip()
    except OSError as exc:
        raise ConfigError(f"cannot read forcing {path}: {exc}") from None
    names = [s.strip().lower() for s in first.split(",")]
    has_header = any(not _is_float(s) for s in names)
    data = np.loadtxt(path, delimiter=",", skiprows=1 if has_header else 0, ndmin=2)
    if has_header and names and names[0] in ("t", "time"):
        return load_forcing(
            data[:, 1:], t0=t0, pad_length=pad_length, time=data[:, 0]
        )
    if dt is None:
        raise ConfigError(f"{path} has no time column; a sampling step is required")
    return load_forcing(data, dt=dt, t0=t0, pad_length=pad_length)


def _is_float(s: str) -> bool:
    try:
        float(s)
        return True
    except ValueError:
        return False


def write_trajectory_csv(path: str, Z: np.ndarray, dt: float, t0: float = 0.0) -> None:
    """State trajectory (state_dim, T) with labeled columns."""
    Z = np.asarray(Z)
    dim, T = Z.shape
    n = dim // 2
    if 2 * n == dim:
        labels = [f"x{j}" for j in range(n)] + [f"v{j}" for j in range(n)]
    else:
        labels = [f"z{j}" for j in range(dim)]
    header = "t," + ",".join(labels)
    times = t0 + dt * np.arange(T)
    np.savetxt(
        path,
        np.column_stack([times, Z.T]),
        fmt=_FMT,
        delimiter=",",
        header=header,
        comments="",
    )


def read_trajectory_csv(path: str):
    """Returns (Z, dt, t0) with Z of shape (state_dim, T)."""
    data = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    times = data[:, 0]
    dt = float(times[1] - times[0]) if len(times) > 1 else 0.0
    return data[:, 1:].T.copy(), dt, float(times[0])


def save_expansion(expansion: GssExpansion, directory: str) -> None:
    """Expansion container: manifest.json + order_XXX.csv per order."""
    os.makedirs(directory, exist_ok=True)
    tensor = expansion.tensor
    manifest = {
        "format": "gss-expansion",
        "version": 1,
        "state_dim": int(tensor.state_dim),
        "order": int(expansion.order),
        "orders_complete": int(tensor.orders_complete),
        "length": int(tensor.length),
        "dt": tensor.dt,
        "t0": tensor.t0,
        "pad_length": int(tensor.pad_length),
        "delta_ref": expansion.delta_ref,
        "forcing_sup": expansion.forcing_sup,
        "backend": expansion.backend,
        "eps_trunc": expansion.eps_trunc,
        "cache_stats": expansion.cache_stats,
    }
    with open(os.path.join(directory, "manifest.json"), "w") as fh:
        json.dump(manifest, fh, indent=1)
        fh.write("\n")
    times = tensor.times()
    header = "t," + ",".join(f"z{j}" for j in range(tensor.state_dim))
    for nu in range(1, tensor.orders_complete + 1):
        np.savetxt(
            os.path.join(directory, f"order_{nu:03d}.csv"),
            np.column_stack([times, tensor.order_slice(nu).T]),
            fmt=_FMT,
            delimiter=",",
            header=header,
            comments="",
        )


def load_expansion(directory: str) -> GssExpansion:
    """Rebuild an expansion from its container.

    The model and decomposition are not serialized; the result carries
    the grids and metadata (enough for evaluation and resummation), with
    system and spectral set to None.
    """
    manifest_path = os.path.join(directory, "manifest.json")
    try:
        with open(manifest_path) as fh:
            manifest = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigError(f"cannot read {manifest_path}: {exc}") from None
    if manifest.get("format") != "gss-expansion":
        raise ConfigError(f"{directory} is not an expansion container")
    tensor = CoefficientTensor.empty(
        manifest["state_dim"],
        manifest["order"],
        manifest["length"],
        manifest["dt"],
        t0=manifest["t0"],
        pad_length=manifest["pad_length"],
    )
    for nu in range(1, manifest["orders_complete"] + 1):
        data = np.loadtxt(
            os.path.join(directory, f"order_{nu:03d}.csv"),
            delimiter=",",
            skiprows=1,
            ndmin=2,
        )
        tensor.insert_slice(nu, data[:, 1:].T)
    return GssExpansion(
        system=None,
        spectral=None,
        tensor=tensor,
        order=manifest["order"],
        backend=manifest["backend"],
        delta_ref=manifest["delta_ref"],
        forcing_sup=manifest["forcing_sup"],
        eps_trunc=manifest["eps_trunc"],
        cache_stats=manifest.get("cache_stats", {}),
    )


def save_pade(pade: PadeGss, directory: str) -> None:
    """Resummation container: manifest.json, den.csv, num_XXX.csv per order."""
    os.makedirs(directory, exist_ok=True)
    manifest = {
        "format": "gss-pade",
        "version": 1,
        "L": pade.L,
        "M": pade.M,
        "sigma": pade.sigma,
        "state_dim": int(pade.num.shape[0]),
        "length": int(pade.num.shape[2]),
        "dt": pade.dt,
        "t0": pade.t0,
        "pad_length": int(pade.pad_length),
        "backend": pade.backend,
        "ill_conditioned": list(pade.ill_conditioned),
    }
    with open(os.path.join(directory, "manifest.json"), "w") as fh:
        json.dump(manifest, fh, indent=1)
        fh.write("\n")
    np.savetxt(os.path.join(directory, "den.csv"), pade.den, fmt=_FMT, delimiter=",")
    for k in range(pade.L):
        np.savetxt(
            os.path.join(directory, f"num_{k + 1:03d}.csv"),
            pade.num[:, k, :],
            fmt=_FMT,
            delimiter=",",
        )


def load_pade(directory: str) -> PadeGss:
    manifest_path = os.path.join(directory, "manifest.json")
    try:
        with open(manifest_path) as fh:
            manifest = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigError(f"cannot read {manifest_path}: {exc}") from None
    if manifest.get("format") != "gss-pade":
        raise ConfigError(f"{directory} is not a resummation container")
    dim, T, L = manifest["state_dim"], manifest["length"], manifest["L"]
    den = np.loadtxt(os.path.join(directory, "den.csv"), delimiter=",", ndmin=2)
    num = np.empty((dim, L, T))
    for k in range(L):
        num[:, k, :] = np.loadtxt(
            os.path.join(directory, f"num_{k + 1:03d}.csv"), delimiter=",", ndmin=2
        )
    return PadeGss(
        L=L,
        M=manifest["M"],
        sigma=manifest["sigma"],
        num=num,
        den=den,
        ill_conditioned=tuple(manifest.get("ill_conditioned", [])),
        dt=manifest["dt"],
        t0=manifest["t0"],
        pad_length=manifest["pad_length"],
        backend=manifest.get("backend", "kernel"),
    )
