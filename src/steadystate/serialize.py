"""File formats: system configs, forcing and trajectory CSV, expansion
and resummation containers.

Text floats are written with %.17g in CSV (forcing, trajectories) and
with repr in JSON; both round-trip float64 exactly, so the loaders
reproduce saved grids bit for bit.

A container (version 2) is a directory holding manifest.json (format,
version, dtype, dimensions, grid and metadata) plus one NumPy .npy file
per array: tensor.npy for an expansion, num.npy and den.npy for a
resummation (den.npy holds the one denominator, shape (M,); a
container with one denominator per coordinate, shape (state_dim, M),
is refused with ConfigError: refit it with pade_resum). An expansion's
tensor.npy holds only the orders its tensor stores, listed in the
manifest's "orders"; the others are zero.
A manifest without that key stores every order (as every container did
before the key was added). The arrays are stored as raw float64 and
loaded as read-only memory maps, so a round trip is bit-exact and a
reader pays only for the orders it touches. Saving replaces each file
atomically.
Version 1 (CSV per order) containers are rejected with ConfigError.
"""

from __future__ import annotations

import json
import os

import numpy as np

from .errors import ConfigError, DimensionMismatch
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
_CONTAINER_VERSION = 2
# manifest keys a loader reads without a default
_EXPANSION_KEYS = (
    "dtype", "state_dim", "order", "orders_complete", "length", "dt", "t0",
    "pad_length", "delta_ref", "forcing_sup", "backend", "eps_trunc",
)
_PADE_KEYS = ("dtype", "L", "M", "sigma", "state_dim", "length", "dt", "t0", "pad_length")


def _term_entries(terms) -> list:
    """One {exponents, target_dof, coefficient} entry per nonzero
    coefficient of each term."""
    entries = []
    for exponents, coeff in terms:
        for dof, c in enumerate(np.asarray(coeff)):
            if c != 0.0:
                entries.append(
                    {
                        "exponents": list(int(e) for e in exponents),
                        "target_dof": int(dof),
                        "coefficient": float(c),
                    }
                )
    return entries


def _system_dict(system: MechanicalSystem) -> dict:
    fld = system.nonlinearity
    out = {
        "n": system.n,
        "M": system.M.tolist(),
        "C": system.C.tolist(),
        "K": system.K.tolist(),
        "damping": system.damping_class.kind,
    }
    if fld.forms is None:
        out["terms"] = _term_entries(fld.form_terms)
    else:
        out["forms"] = fld.forms.tolist()
        out["form_terms"] = _term_entries(fld.form_terms)
    return out


def save_system(system: MechanicalSystem, path: str) -> None:
    """Write a system config as JSON (matrices, polynomial terms, damping).

    The field is written once, as stored: a field on the identity as
    "terms" (its monomials in the state coordinates), a field on forms
    as "forms" (its form matrix, one row per form) and "form_terms" (its
    terms over the forms, in the same entry format), with no expansion.
    """
    with open(path, "w") as fh:
        json.dump(_system_dict(system), fh, indent=1)
        fh.write("\n")


def _read_terms(entries):
    return [
        (tuple(int(e) for e in t["exponents"]), int(t["target_dof"]), float(t["coefficient"]))
        for t in entries
    ]


def load_system(path: str) -> MechanicalSystem:
    """Build a system from a JSON config.

    With "forms" the field is built on them from "form_terms"; without,
    from "terms" with the identity as its forms. A "terms" key beside
    "forms" (the expansion older configs also wrote) is not read.

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
        forms = raw.get("forms")
        if forms is None:
            terms = _read_terms(raw.get("terms", []))
        else:
            forms = np.asarray(forms, dtype=float)
            terms = _read_terms(raw["form_terms"])
        damping = raw.get("damping")
    except (KeyError, TypeError, ValueError) as exc:
        raise ConfigError(f"malformed config {path}: {exc}") from None
    if M.shape != (n, n):
        raise ConfigError(f"M has shape {M.shape}, config says n={n}")
    return build_system(M, C, K, terms=terms, damping=damping, forms=forms)


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
    try:
        data = np.loadtxt(path, delimiter=",", skiprows=1 if has_header else 0, ndmin=2)
    except ValueError as exc:
        raise ConfigError(f"cannot parse forcing {path}: {exc}") from None
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


def _write_container(directory: str, manifest: dict, arrays: dict) -> None:
    """Write name.npy per array, then manifest.json, each atomically.

    Every file is first written under a temporary name in the directory
    and then moved into place with os.replace, manifest last. A container
    loaded earlier keeps reading its own data: the rename leaves the old
    file alive under the mapping, where saving onto the name would
    truncate it underneath (and a mapped read past the new end faults).
    A reader never meets a manifest whose arrays are not yet written.
    """
    os.makedirs(directory, exist_ok=True)
    staged = [
        _stage(
            directory,
            f"{name}.npy",
            lambda fh, a=array: np.save(fh, a, allow_pickle=False),
        )
        for name, array in arrays.items()
    ]
    text = json.dumps(manifest, indent=1) + "\n"
    staged.append(_stage(directory, "manifest.json", lambda fh: fh.write(text.encode())))
    for tmp, final in staged:
        os.replace(tmp, final)


def _stage(directory: str, name: str, write) -> tuple[str, str]:
    final = os.path.join(directory, name)
    tmp = os.path.join(directory, f".{name}.tmp")
    with open(tmp, "wb") as fh:
        write(fh)
    return tmp, final


def _read_manifest(directory: str, fmt: str, what: str, keys: tuple) -> dict:
    """The container's manifest, checked: format, version, every one of
    keys present and a dtype NumPy understands, or ConfigError."""
    manifest_path = os.path.join(directory, "manifest.json")
    try:
        with open(manifest_path) as fh:
            manifest = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigError(f"cannot read {manifest_path}: {exc}") from None
    if not isinstance(manifest, dict) or manifest.get("format") != fmt:
        raise ConfigError(f"{directory} is not {what}")
    version = manifest.get("version")
    if version != _CONTAINER_VERSION:
        raise ConfigError(
            f"{directory} is a version {version} container; this reader needs "
            f"version {_CONTAINER_VERSION} (recompute and save it again)"
        )
    missing = [key for key in keys if key not in manifest]
    if missing:
        raise ConfigError(f"{manifest_path} lacks the key(s) {', '.join(missing)}")
    dtype = manifest["dtype"]
    try:
        if isinstance(dtype, str):
            np.dtype(dtype)
            return manifest
    except (TypeError, ValueError):
        pass
    raise ConfigError(f"{manifest_path} has dtype {dtype!r}, not a NumPy dtype string")


def _map_array(directory: str, name: str, shape: tuple, dtype: str) -> np.ndarray:
    """Read-only memory map of name.npy, checked against the manifest."""
    path = os.path.join(directory, f"{name}.npy")
    try:
        array = np.load(path, mmap_mode="r", allow_pickle=False)
    except (OSError, ValueError, EOFError) as exc:
        raise ConfigError(f"cannot read {path}: {exc}") from None
    if array.shape != tuple(shape) or array.dtype != np.dtype(dtype):
        raise ConfigError(
            f"{path} holds {array.dtype} {array.shape}; "
            f"the manifest says {np.dtype(dtype)} {tuple(shape)} (recompute an expansion, "
            "or refit with pade_resum, and save it again)"
        )
    return array


def save_expansion(expansion: GssExpansion, directory: str) -> None:
    """Expansion container: manifest.json plus tensor.npy.

    tensor.npy holds the stored slots of the completed orders, shape
    (state_dim, len(orders), length), with the manifest's "orders"
    listing them: slot [:, s, :] is the grid of order orders[s], and
    every other order up to orders_complete is zero. The grid's times
    follow from the manifest's dt, t0 and length.
    """
    tensor = expansion.tensor
    complete = tensor.orders_complete
    orders = [nu for nu in tensor.stored if nu <= complete]
    slab = tensor.data[:, : len(orders), :]
    manifest = {
        "format": "gss-expansion",
        "version": _CONTAINER_VERSION,
        "dtype": slab.dtype.str,
        "state_dim": int(tensor.state_dim),
        "order": int(expansion.order),
        "orders_complete": int(complete),
        "orders": orders,
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
    _write_container(directory, manifest, {"tensor": slab})


def load_expansion(directory: str) -> GssExpansion:
    """Rebuild an expansion from its container.

    The tensor is a read-only memory map of tensor.npy, so evaluation and
    resummation read only the orders they use. It stores the manifest's
    "orders", or every completed order when the key is absent. The model
    and decomposition are not serialized; the result carries the grids
    and metadata (enough for evaluation and resummation), with system
    and spectral set to None.
    """
    manifest = _read_manifest(
        directory, "gss-expansion", "an expansion container", _EXPANSION_KEYS
    )
    complete = manifest["orders_complete"]
    orders = manifest.get("orders", list(range(1, complete + 1)))
    if not isinstance(orders, list) or not all(type(nu) is int for nu in orders):
        raise ConfigError(f"{directory}: orders {orders!r} is not a list of orders")
    data = _map_array(
        directory,
        "tensor",
        (manifest["state_dim"], len(orders), manifest["length"]),
        manifest["dtype"],
    )
    try:
        tensor = CoefficientTensor(
            data=data,
            dt=float(manifest["dt"]),
            t0=float(manifest["t0"]),
            pad_length=int(manifest["pad_length"]),
            _filled=set(range(1, complete + 1)),
            stored=orders,
            order_max=complete,
        )
    except DimensionMismatch as exc:
        raise ConfigError(f"{directory}: {exc}") from None
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
    """Resummation container: manifest.json, num.npy and den.npy.

    num.npy has shape (state_dim, L, length) and den.npy (M,), the one
    denominator, both in the scaled variable s = delta / sigma.
    """
    manifest = {
        "format": "gss-pade",
        "version": _CONTAINER_VERSION,
        "dtype": pade.num.dtype.str,
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
    _write_container(directory, manifest, {"num": pade.num, "den": pade.den})


def load_pade(directory: str) -> PadeGss:
    """Rebuild a resummation from its container (arrays memory-mapped)."""
    manifest = _read_manifest(directory, "gss-pade", "a resummation container", _PADE_KEYS)
    dim, T = manifest["state_dim"], manifest["length"]
    L, M, dtype = manifest["L"], manifest["M"], manifest["dtype"]
    return PadeGss(
        L=L,
        M=M,
        sigma=manifest["sigma"],
        num=_map_array(directory, "num", (dim, L, T), dtype),
        den=_map_array(directory, "den", (M,), dtype),
        ill_conditioned=tuple(manifest.get("ill_conditioned", [])),
        dt=manifest["dt"],
        t0=manifest["t0"],
        pad_length=manifest["pad_length"],
        backend=manifest.get("backend", "kernel"),
    )
