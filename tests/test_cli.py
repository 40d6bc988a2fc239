"""Tests for the file formats and the command line front end."""

import ast
import builtins
import json
import pathlib
import re

import numpy as np
import pytest

from steadystate import (
    CoefficientTensor,
    assemble_phi,
    build_duffing,
    build_oscillator_chain,
    build_system,
    compute_taylor_gss,
    evaluate_at_amplitude,
    evaluate_pade,
    generate_forcing,
    pade_resum,
)
import steadystate
from steadystate import serialize
from steadystate.cli import main
from steadystate.errors import ConfigError, HarmonicTruncationWarning
from steadystate.model import evaluate_field
from tests.test_kernel import _general_2dof


def _two_tone(n=1, duration=20.0, dt=0.05, delta=0.1, pad=100):
    return generate_forcing("two_tone", n=n, duration=duration, dt=dt,
                            delta=delta, pad=pad, w1=1.3, w2=0.45)


class TestSystemConfig:
    def test_round_trip(self, tmp_path, rng):
        sys_ = build_oscillator_chain(3, m=1.2, k_lin=2.0, c=0.1, kappa3=0.4)
        path = tmp_path / "chain.json"
        serialize.save_system(sys_, path)
        back = serialize.load_system(path)
        assert np.array_equal(back.M, sys_.M)
        assert np.array_equal(back.C, sys_.C)
        assert np.array_equal(back.K, sys_.K)
        assert back.damping_class.kind == sys_.damping_class.kind
        for _ in range(5):
            z = rng.standard_normal(6)
            assert np.abs(
                evaluate_field(back.nonlinearity, z)
                - evaluate_field(sys_.nonlinearity, z)
            ).max() <= 1e-14

    def test_round_trip_keeps_the_forms(self, tmp_path, rng):
        sys_ = build_oscillator_chain(4, kappa3=0.3)
        path = tmp_path / "chain.json"
        serialize.save_system(sys_, path)
        raw = json.loads(path.read_text())
        assert len(raw["forms"]) == 5 and len(raw["form_terms"]) == 8
        back = serialize.load_system(path)
        fld, got = sys_.nonlinearity, back.nonlinearity
        assert np.array_equal(got.forms, fld.forms)
        assert [m for m, _ in got.form_terms] == [m for m, _ in fld.form_terms]
        for (_, c), (_, w) in zip(got.form_terms, fld.form_terms):
            assert c.tobytes() == w.tobytes()
        tensor = CoefficientTensor.empty(8, 3, 20, dt=0.1)
        for nu in (1, 2):
            tensor.insert_slice(nu, rng.standard_normal((8, 20)))
        assert np.array_equal(assemble_phi(back, tensor, 3), assemble_phi(sys_, tensor, 3))

    def test_config_on_forms_is_written_once(self, tmp_path):
        # forms and form_terms are the field; its expansion is not written
        sys_ = build_oscillator_chain(4, kappa3=0.3)
        path, again = tmp_path / "chain.json", tmp_path / "again.json"
        serialize.save_system(sys_, path)
        assert "terms" not in json.loads(path.read_text())
        back = serialize.load_system(path)
        serialize.save_system(back, again)
        assert again.read_bytes() == path.read_bytes()
        fld, got = sys_.nonlinearity, back.nonlinearity
        assert got.forms.tobytes() == fld.forms.tobytes()
        assert [(m, c.tobytes()) for m, c in got.form_terms] == [
            (m, c.tobytes()) for m, c in fld.form_terms
        ]

    def test_config_with_the_expansion_beside_the_forms_loads(self, tmp_path):
        # configs written with all three keys: "terms" is not read
        sys_ = build_oscillator_chain(4, kappa3=0.3)
        path = tmp_path / "chain.json"
        serialize.save_system(sys_, path)
        raw = json.loads(path.read_text())
        raw["terms"] = serialize._term_entries(sys_.nonlinearity.terms)
        assert len(raw["terms"]) > len(raw["form_terms"])
        path.write_text(json.dumps(raw))
        fld, got = sys_.nonlinearity, serialize.load_system(path).nonlinearity
        assert np.array_equal(got.forms, fld.forms)
        assert [(m, c.tobytes()) for m, c in got.form_terms] == [
            (m, c.tobytes()) for m, c in fld.form_terms
        ]
        assert [(m, c.tobytes()) for m, c in got.terms] == [
            (m, c.tobytes()) for m, c in fld.terms
        ]

    def test_config_without_forms_loads_on_the_identity(self, tmp_path):
        path = tmp_path / "duffing.json"
        serialize.save_system(build_duffing(kappa3=0.7), path)
        assert "forms" not in json.loads(path.read_text())
        fld = serialize.load_system(path).nonlinearity
        assert fld.forms is None and fld.form_terms is fld.terms
        assert [m for m, _ in fld.terms] == [(3, 0)]

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError):
            serialize.load_system(tmp_path / "nope.json")

    def test_malformed_json(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        with pytest.raises(ConfigError):
            serialize.load_system(path)

    def test_shape_mismatch(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({
            "n": 2, "M": [[1.0]], "C": [[0.1]], "K": [[1.0]], "terms": [],
        }))
        with pytest.raises(ConfigError):
            serialize.load_system(path)


class TestForcingCsv:
    def test_round_trip_with_time_column(self, tmp_path):
        f = _two_tone(n=2, duration=5.0, pad=10)
        path = tmp_path / "forcing.csv"
        serialize.write_forcing_csv(f, path)
        back = serialize.read_forcing_csv(path)
        # %.17g round-trips float64 exactly; pad rows come back as data
        assert np.array_equal(back.samples, f.samples)
        assert back.dt == pytest.approx(f.dt, rel=1e-12)
        assert back.t0 == pytest.approx(f.times()[0], rel=1e-12)

    def test_headerless_needs_dt(self, tmp_path):
        path = tmp_path / "raw.csv"
        np.savetxt(path, np.linspace(0, 1, 20)[:, None], delimiter=",")
        back = serialize.read_forcing_csv(path, dt=0.1)
        assert back.n == 1
        assert back.length == 20
        with pytest.raises(ConfigError):
            serialize.read_forcing_csv(path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError):
            serialize.read_forcing_csv(tmp_path / "nope.csv")


class TestTrajectoryCsv:
    def test_round_trip(self, tmp_path, rng):
        Z = rng.standard_normal((4, 30))
        path = tmp_path / "traj.csv"
        serialize.write_trajectory_csv(path, Z, dt=0.05, t0=1.5)
        back, dt, t0 = serialize.read_trajectory_csv(path)
        assert np.array_equal(back, Z)
        assert dt == pytest.approx(0.05, rel=1e-12)
        assert t0 == 1.5

    def test_odd_state_dimension_labels(self, tmp_path, rng):
        Z = rng.standard_normal((3, 10))
        path = tmp_path / "traj.csv"
        serialize.write_trajectory_csv(path, Z, dt=0.1)
        header = path.read_text().splitlines()[0]
        assert header == "t,z0,z1,z2"


class TestExpansionContainer:
    def _expansion(self, zeta=0.2):
        sys_ = build_duffing(zeta=zeta, kappa3=1.0)
        return compute_taylor_gss(sys_, _two_tone(), order=3)

    def _general_expansion(self):
        # non-proportional damping with a cubic coupling: complex modes
        base = _general_2dof()
        sys_ = build_system(base.M, base.C, base.K, terms=[((2, 1, 0, 0), 1, 0.4)],
                            damping="general")
        return compute_taylor_gss(sys_, _two_tone(n=2, delta=0.3), order=4)

    def test_round_trip(self, tmp_path):
        exp = self._expansion()
        d = tmp_path / "container"
        serialize.save_expansion(exp, d)
        back = serialize.load_expansion(d)
        assert sorted(p.name for p in d.iterdir()) == ["manifest.json", "tensor.npy"]
        assert json.loads((d / "manifest.json").read_text())["version"] == 2
        assert isinstance(back.tensor.data, np.memmap)
        assert not back.tensor.data.flags.writeable
        for nu in (1, 2, 3):
            assert np.array_equal(back.tensor.order_slice(nu),
                                  exp.tensor.order_slice(nu))
        assert back.tensor.orders_complete == 3
        assert back.order == 3
        assert back.backend == exp.backend
        assert back.delta_ref == exp.delta_ref
        assert back.forcing_sup == exp.forcing_sup
        assert back.tensor.dt == exp.tensor.dt
        assert back.tensor.t0 == exp.tensor.t0
        assert back.tensor.pad_length == exp.tensor.pad_length
        assert back.cache_stats == exp.cache_stats
        for k in (1, 2, 3):
            a = evaluate_at_amplitude(exp, 0.07, max_order=k)
            b = evaluate_at_amplitude(back, 0.07, max_order=k)
            assert np.array_equal(a, b)

    def test_pade_round_trip(self, tmp_path):
        exp = self._expansion()
        pade = pade_resum(exp, 2, 1)
        d = tmp_path / "pade"
        serialize.save_pade(pade, d)
        back = serialize.load_pade(d)
        assert sorted(p.name for p in d.iterdir()) == [
            "den.npy", "manifest.json", "num.npy"]
        assert isinstance(back.num, np.memmap) and isinstance(back.den, np.memmap)
        assert np.array_equal(back.num, pade.num)
        assert np.array_equal(back.den, pade.den)
        assert back.sigma == pade.sigma
        assert back.ill_conditioned == pade.ill_conditioned
        assert (back.L, back.M) == (2, 1)
        assert np.array_equal(evaluate_pade(back, 0.06), evaluate_pade(pade, 0.06))

    def test_general_damping_round_trip(self, tmp_path):
        exp = self._general_expansion()
        serialize.save_expansion(exp, tmp_path / "exp")
        back = serialize.load_expansion(tmp_path / "exp")
        assert np.array_equal(back.tensor.data, exp.tensor.data)
        for k in range(1, 5):
            assert np.array_equal(evaluate_at_amplitude(back, 0.25, max_order=k),
                                  evaluate_at_amplitude(exp, 0.25, max_order=k))
        pade = pade_resum(exp, 2, 2)
        from_loaded = pade_resum(back, 2, 2)
        assert np.array_equal(from_loaded.num, pade.num)
        assert np.array_equal(from_loaded.den, pade.den)
        serialize.save_pade(from_loaded, tmp_path / "pade")
        pade_back = serialize.load_pade(tmp_path / "pade")
        assert np.array_equal(evaluate_pade(pade_back, 0.25), evaluate_pade(pade, 0.25))

    def test_save_over_a_loaded_container(self, tmp_path):
        # a later save replaces the files; the earlier map keeps its data
        first, second = self._expansion(), self._expansion(zeta=0.3)
        assert not np.array_equal(first.tensor.data, second.tensor.data)
        serialize.save_expansion(first, tmp_path)
        back = serialize.load_expansion(tmp_path)
        serialize.save_expansion(second, tmp_path)
        assert np.array_equal(evaluate_at_amplitude(back, 0.07),
                              evaluate_at_amplitude(first, 0.07))
        again = serialize.load_expansion(tmp_path)
        assert np.array_equal(again.tensor.data, second.tensor.data)
        assert sorted(p.name for p in tmp_path.iterdir()) == [
            "manifest.json", "tensor.npy"]

    def test_backend_is_only_a_label(self, tmp_path):
        # a container saved by the per-order newmark backend of earlier
        # versions still loads: the field names the backend, it selects
        # nothing, so the grids evaluate and refit as they were written
        exp = self._expansion()
        serialize.save_expansion(exp, tmp_path / "kernel")
        serialize.save_expansion(exp, tmp_path / "old")
        manifest = tmp_path / "old" / "manifest.json"
        fields = json.loads(manifest.read_text())
        fields["backend"] = "newmark"
        manifest.write_text(json.dumps(fields))
        old = serialize.load_expansion(tmp_path / "old")
        ref = serialize.load_expansion(tmp_path / "kernel")
        assert (old.backend, ref.backend) == ("newmark", "kernel")
        for k in (1, 2, 3):
            assert np.array_equal(evaluate_at_amplitude(old, 0.07, max_order=k),
                                  evaluate_at_amplitude(ref, 0.07, max_order=k))
        pade_old, pade_ref = pade_resum(old, 2, 1), pade_resum(ref, 2, 1)
        assert pade_old.backend == "newmark"
        assert np.array_equal(evaluate_pade(pade_old, 0.06), evaluate_pade(pade_ref, 0.06))

    def test_not_a_container(self, tmp_path):
        with pytest.raises(ConfigError):
            serialize.load_expansion(tmp_path)
        (tmp_path / "manifest.json").write_text(json.dumps({"format": "other"}))
        with pytest.raises(ConfigError):
            serialize.load_expansion(tmp_path)
        with pytest.raises(ConfigError):
            serialize.load_pade(tmp_path)

    @pytest.mark.parametrize("fmt,load", [
        ("gss-expansion", serialize.load_expansion),
        ("gss-pade", serialize.load_pade),
    ])
    def test_version_1_manifest(self, tmp_path, fmt, load):
        (tmp_path / "manifest.json").write_text(json.dumps({"format": fmt, "version": 1}))
        with pytest.raises(ConfigError, match="version 1.*version 2"):
            load(tmp_path)

    @pytest.mark.parametrize("save,load,key", [
        *((serialize.save_expansion, serialize.load_expansion, key) for key in (
            "dtype", "state_dim", "order", "orders_complete", "length", "dt", "t0",
            "pad_length", "delta_ref", "forcing_sup", "backend", "eps_trunc")),
        *((serialize.save_pade, serialize.load_pade, key) for key in (
            "dtype", "L", "M", "sigma", "state_dim", "length", "dt", "t0", "pad_length")),
    ])
    def test_manifest_lacks_a_key(self, tmp_path, save, load, key):
        exp = self._expansion()
        save(exp if save is serialize.save_expansion else pade_resum(exp, 2, 1), tmp_path)
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        del manifest[key]
        (tmp_path / "manifest.json").write_text(json.dumps(manifest))
        with pytest.raises(ConfigError, match=f"lacks the key\\(s\\) {key}$"):
            load(tmp_path)

    @pytest.mark.parametrize("dtype", ["float128x", None, 8])
    @pytest.mark.parametrize("save,load", [
        (serialize.save_expansion, serialize.load_expansion),
        (serialize.save_pade, serialize.load_pade),
    ])
    def test_manifest_bad_dtype(self, tmp_path, save, load, dtype):
        exp = self._expansion()
        save(exp if save is serialize.save_expansion else pade_resum(exp, 2, 1), tmp_path)
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        manifest["dtype"] = dtype
        (tmp_path / "manifest.json").write_text(json.dumps(manifest))
        with pytest.raises(ConfigError, match=f"dtype {dtype!r}"):
            load(tmp_path)

    @pytest.mark.parametrize("corrupt", [
        lambda data: data[:, :-1, :],  # a stored order short
        lambda data: data.astype(np.float32),
    ], ids=["shape", "dtype"])
    def test_array_disagrees_with_manifest(self, tmp_path, corrupt):
        exp = self._expansion()
        serialize.save_expansion(exp, tmp_path)
        np.save(tmp_path / "tensor.npy", corrupt(exp.tensor.data))
        with pytest.raises(ConfigError, match="manifest says"):
            serialize.load_expansion(tmp_path)

    def test_stores_only_the_live_orders(self, tmp_path):
        exp = self._expansion()  # cubic: orders 1 and 3
        serialize.save_expansion(exp, tmp_path)
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        assert manifest["orders"] == [1, 3]
        assert np.load(tmp_path / "tensor.npy").shape == (2, 2, exp.length)
        back = serialize.load_expansion(tmp_path)
        assert back.tensor.stored == (1, 3)
        for nu in (1, 2, 3):
            assert np.array_equal(back.tensor.order_slice(nu), exp.tensor.order_slice(nu))

    def test_manifest_without_orders_stores_every_order(self, tmp_path):
        # the layout of a container saved before the manifest listed its
        # orders: every completed order has a slot
        exp = self._expansion()
        serialize.save_expansion(exp, tmp_path)
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        del manifest["orders"]
        (tmp_path / "manifest.json").write_text(json.dumps(manifest))
        dense = np.stack([exp.tensor.order_slice(nu) for nu in (1, 2, 3)], axis=1)
        np.save(tmp_path / "tensor.npy", dense)
        back = serialize.load_expansion(tmp_path)
        assert back.tensor.stored == (1, 2, 3)
        assert np.array_equal(back.tensor.data, dense)

    @pytest.mark.parametrize("orders", [[1, 1], [3, 1], [1, 4], "13", [1.0, 3.0]])
    def test_bad_orders_rejected(self, tmp_path, orders):
        serialize.save_expansion(self._expansion(), tmp_path)
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        manifest["orders"] = orders
        (tmp_path / "manifest.json").write_text(json.dumps(manifest))
        with pytest.raises(ConfigError):
            serialize.load_expansion(tmp_path)

    def test_per_coordinate_denominator_refused(self, tmp_path):
        # a container of the earlier fit, one denominator per coordinate:
        # den.npy (state_dim, M) against the manifest's (M,)
        pade = pade_resum(self._expansion(), 2, 1)
        serialize.save_pade(pade, tmp_path)
        np.save(tmp_path / "den.npy", np.tile(pade.den, (pade.num.shape[0], 1)))
        with pytest.raises(ConfigError, match=r"\(1,\).*refit with pade_resum"):
            serialize.load_pade(tmp_path)

    def test_truncated_or_missing_array(self, tmp_path):
        pade = pade_resum(self._expansion(), 2, 1)
        serialize.save_pade(pade, tmp_path)
        num = tmp_path / "num.npy"
        full = num.read_bytes()
        for cut in (len(full) - 8, 100, 3, 0):
            num.write_bytes(full[:cut])
            with pytest.raises(ConfigError):
                serialize.load_pade(tmp_path)
        num.unlink()
        with pytest.raises(ConfigError):
            serialize.load_pade(tmp_path)


def _config(tmp_path, system=None, name="system.json"):
    path = tmp_path / name
    serialize.save_system(system if system is not None else
                          build_duffing(zeta=0.2, kappa3=1.0), path)
    return str(path)


_GEN = "two_tone,duration=20,dt=0.05,delta=0.1,w1=1.3,w2=0.45"


def _last_json(capsys):
    return json.loads(capsys.readouterr().out.strip().splitlines()[-1])


class TestCliCompute:
    def test_generator_forcing_and_outputs(self, tmp_path, capsys):
        cfg = _config(tmp_path)
        out = tmp_path / "expansion"
        traj = tmp_path / "traj.csv"
        code = main(["compute", "--config", cfg, "--forcing", _GEN,
                     "--pad", "50", "--order", "3",
                     "--out", str(out), "--trajectory", str(traj)])
        assert code == 0
        summary = _last_json(capsys)
        assert summary["order"] == 3
        assert summary["backend"] == "kernel"
        assert summary["retained_modes"] >= 1
        assert (out / "manifest.json").exists()
        Z, dt, _ = serialize.read_trajectory_csv(traj)
        assert Z.shape[0] == 2
        assert dt == pytest.approx(0.05, rel=1e-12)

    def test_csv_forcing(self, tmp_path, capsys):
        cfg = _config(tmp_path)
        fpath = tmp_path / "forcing.csv"
        serialize.write_forcing_csv(_two_tone(duration=10.0), fpath)
        code = main(["compute", "--config", cfg, "--forcing", str(fpath),
                     "--order", "2"])
        assert code == 0
        assert _last_json(capsys)["order"] == 2

    def test_saved_container_reusable(self, tmp_path, capsys):
        cfg = _config(tmp_path)
        out = tmp_path / "expansion"
        assert main(["compute", "--config", cfg, "--forcing", _GEN,
                     "--order", "3", "--out", str(out)]) == 0
        capsys.readouterr()
        code = main(["pade", "--expansion", str(out), "--pade", "2:1",
                     "--delta", "0.08"])
        assert code == 0
        summary = _last_json(capsys)
        assert (summary["L"], summary["M"]) == (2, 1)
        assert summary["sup_amplitude"] > 0.0

    def test_pade_reports_its_nearest_pole(self, tmp_path, capsys):
        for kappa3, name in ((1.0, "cubic"), (0.0, "linear")):
            cfg = _config(tmp_path, build_duffing(zeta=0.2, kappa3=kappa3), f"{name}.json")
            out = tmp_path / name
            assert main(["compute", "--config", cfg, "--forcing", _GEN,
                         "--order", "4", "--out", str(out)]) == 0
            capsys.readouterr()
            assert main(["pade", "--expansion", str(out), "--pade", "2:2"]) == 0
            poles = pade_resum(serialize.load_expansion(out), 2, 2).poles
            pole = _last_json(capsys)["nearest_pole"]
            if kappa3:
                assert pole == [poles[0].real, poles[0].imag]
            else:  # a linear series has no pole: every order above 1 is zero
                assert poles.size == 0 and pole is None

    def test_compare_reports_small_error(self, tmp_path, capsys):
        cfg = _config(tmp_path)
        code = main(["compare", "--config", cfg, "--forcing", _GEN,
                     "--pad", "50", "--order", "3"])
        assert code == 0
        summary = _last_json(capsys)
        assert summary["nmte"] < 0.05
        assert summary["sup_error"] >= 0.0
        assert summary["skip"] == 50

    @pytest.mark.parametrize("command", ["compute", "compare"])
    def test_qp_harmonic_budget_reaches_the_solver(self, tmp_path, capsys, command):
        cfg = _config(tmp_path)
        qp = ["--config", cfg, "--forcing", _GEN, "--pad", "50", "--order", "3",
              "--backend", "qp", "--base-freq", "1.3", "0.45"]
        with pytest.warns(HarmonicTruncationWarning, match="harmonic_budget 2"):
            assert main([command, *qp, "--harmonic", "2"]) == 0
        assert main([command, *qp[:-2]]) == 2  # --base-freq without values
        assert capsys.readouterr().err.startswith("InvalidParameters:")


class TestCliFrc:
    def test_sweep_writes_csv(self, tmp_path, capsys):
        cfg = _config(tmp_path)
        out = tmp_path / "frc.csv"
        code = main(["frc", "--config", cfg, "--omega-min", "0.6",
                     "--omega-max", "1.4", "--points", "5",
                     "--delta", "0.05", "--order", "3", "--out", str(out)])
        assert code == 0
        summary = _last_json(capsys)
        assert summary["points"] == 5
        assert summary["flagged"] == []
        rows = out.read_text().strip().splitlines()
        assert rows[0].startswith("omega,amp_z0")
        assert len(rows) == 6

    def test_budget_zero_is_a_usage_error(self, tmp_path, capsys):
        # the forcing sits at harmonics +-1, outside a budget-0 ball
        code = main(["frc", "--config", _config(tmp_path), "--omega-min", "0.6",
                     "--omega-max", "1.4", "--points", "3", "--harmonic", "0"])
        assert code == 2
        assert capsys.readouterr().err.startswith("InvalidParameters: harmonic_budget")


class TestCliDiagnose:
    def test_structural_summary(self, tmp_path, capsys):
        cfg = _config(tmp_path, build_oscillator_chain(3, kappa3=0.2))
        code = main(["diagnose", "--config", cfg, "--dt", "0.05",
                     "--delta", "0.1"])
        assert code == 0
        summary = _last_json(capsys)
        assert summary["kind"] == "structural"
        assert summary["state_dim"] == 6
        assert len(summary["modes"]) == 3
        assert summary["gamma"] > 0.0
        assert set(summary["retained_at_dt"]) <= {0, 1, 2}
        assert "contraction_factor" in summary["contraction"]

    def test_critical_damping_certificate(self, tmp_path, capsys):
        # no first-order eigenbasis at zeta = 1: an unsatisfied
        # certificate, not a numerical failure
        cfg = _config(tmp_path, build_duffing(zeta=1.0, kappa3=1.0))
        assert main(["diagnose", "--config", cfg, "--delta", "0.5"]) == 0
        contraction = _last_json(capsys)["contraction"]
        assert contraction["satisfied"] is False
        assert contraction["admissible_delta_bound"] == 0.0

    def test_general_summary(self, tmp_path, capsys):
        from steadystate import build_gyroscopic_2dof
        cfg = _config(tmp_path, build_gyroscopic_2dof())
        assert main(["diagnose", "--config", cfg]) == 0
        summary = _last_json(capsys)
        assert summary["kind"] == "general"
        assert len(summary["modes"]) == 4
        assert all(m["re"] < 0 for m in summary["modes"])


class TestCliExitCodes:
    def test_missing_config_is_2(self, tmp_path, capsys):
        code = main(["compute", "--config", str(tmp_path / "nope.json"),
                     "--forcing", _GEN, "--order", "2"])
        assert code == 2
        assert "ConfigError" in capsys.readouterr().err

    def test_bad_generator_is_2(self, tmp_path, capsys):
        cfg = _config(tmp_path)
        assert main(["compute", "--config", cfg,
                     "--forcing", "sawtooth,duration=1,dt=0.1",
                     "--order", "2"]) == 2
        assert main(["compute", "--config", cfg,
                     "--forcing", "two_tone,delta=0.1",
                     "--order", "2"]) == 2
        assert main(["compute", "--config", cfg,
                     "--forcing", "two_tone,duration=1,dt=0.1,delta=bad",
                     "--order", "2"]) == 2

    def test_one_sample_forcing_is_2(self, tmp_path, capsys):
        cfg = _config(tmp_path)
        assert main(["compute", "--config", cfg, "--forcing", "chirp,duration=0.01,dt=0.1",
                     "--order", "2"]) == 2
        assert "EmptySignal" in capsys.readouterr().err

    @pytest.mark.parametrize("command", [
        ["compute", "--forcing", _GEN],
        ["frc", "--omega-min", "0.5", "--omega-max", "1.5", "--points", "3"],
    ], ids=["compute", "frc"])
    def test_invalid_order_is_2(self, tmp_path, capsys, command):
        cfg = _config(tmp_path)
        assert main(command[:1] + ["--config", cfg] + command[1:] + ["--order", "0"]) == 2
        assert "InvalidParameters" in capsys.readouterr().err

    @pytest.mark.parametrize("bad", ["nan", "inf"])
    def test_non_finite_forcing_csv_is_2(self, tmp_path, capsys, bad):
        cfg = _config(tmp_path)
        rows = [f"{0.1 * k:.1f},{0.01 * k}" for k in range(20)]
        rows[7] = f"0.7,{bad}"
        path = tmp_path / "forcing.csv"
        path.write_text("t,f0\n" + "\n".join(rows) + "\n")
        assert main(["compute", "--config", cfg, "--forcing", str(path), "--order", "2"]) == 2
        assert "non-finite" in capsys.readouterr().err

    def test_numerical_failure_is_3(self, tmp_path, capsys):
        undamped = build_system(np.eye(1), np.zeros((1, 1)), np.eye(1),
                                terms=[((3, 0), 0, 1.0)])
        cfg = _config(tmp_path, undamped, name="undamped.json")
        code = main(["compute", "--config", cfg, "--forcing", _GEN,
                     "--order", "2"])
        assert code == 3
        err = capsys.readouterr().err
        assert err.startswith("UnstableLinearPart:")

    def test_resonance_guard_is_4(self, tmp_path, capsys):
        cfg = _config(tmp_path, build_duffing(zeta=1e-8, kappa3=0.5),
                      name="sharp.json")
        code = main(["compute", "--config", cfg,
                     "--forcing", "two_tone,duration=20,dt=0.05,delta=0.01,w1=1.0,w2=0.45",
                     "--order", "2", "--backend", "qp",
                     "--base-freq", "1.0", "0.45"])
        assert code == 4
        assert "NearResonance" in capsys.readouterr().err

    def test_pade_expression_validated(self, tmp_path, capsys):
        cfg = _config(tmp_path)
        out = tmp_path / "expansion"
        assert main(["compute", "--config", cfg, "--forcing", _GEN,
                     "--order", "3", "--out", str(out)]) == 0
        assert main(["pade", "--expansion", str(out), "--pade", "22"]) == 2

    @pytest.mark.parametrize("case", [
        "eps-trunc", "pad", "diagnose-delta", "diagnose-dt", "damping", "csv-cell",
        "dofs", "points", "seed", "compute-dt-inf", "diagnose-dt-nan", "compute-delta-nan",
        "pade-delta-nan", "frc-harmonic", "frc-dof", "frc-omega-nan", "frc-delta-inf",
    ])
    def test_bad_input_is_2(self, tmp_path, capsys, case):
        cfg = _config(tmp_path)
        compute = ["compute", "--config", cfg, "--order", "2", "--forcing"]
        if case == "damping":
            raw = json.loads(pathlib.Path(cfg).read_text())
            raw["damping"] = "foo"
            pathlib.Path(cfg).write_text(json.dumps(raw))
        csv = tmp_path / "forcing.csv"
        csv.write_text("t,g0\n0.0,1.0\n0.05,abc\n0.1,0.5\n")
        untimed = tmp_path / "untimed.csv"
        untimed.write_text("0.0\n1.0\n0.5\n")
        if case == "pade-delta-nan":
            assert main([*compute, _GEN, "--out", str(tmp_path / "expansion")]) == 0
            capsys.readouterr()
        argv = {
            "eps-trunc": [*compute, _GEN, "--eps-trunc", "2"],
            "pad": [*compute, _GEN, "--pad", "-1"],
            "diagnose-delta": ["diagnose", "--config", cfg, "--delta", "0"],
            "diagnose-dt": ["diagnose", "--config", cfg, "--dt", "0"],
            "damping": [*compute, _GEN],
            "csv-cell": [*compute, str(csv)],
            "dofs": [*compute, _GEN + ",dofs=x"],
            "points": ["frc", "--config", cfg, "--omega-min", "0.6",
                       "--omega-max", "1.4", "--points", "-1"],
            "frc-harmonic": ["frc", "--config", cfg, "--omega-min", "0.6",
                             "--omega-max", "1.4", "--points", "3", "--harmonic", "200"],
            "frc-dof": ["frc", "--config", cfg, "--omega-min", "0.6",
                        "--omega-max", "1.4", "--points", "3", "--dof", "7"],
            "frc-omega-nan": ["frc", "--config", cfg, "--omega-min", "nan",
                              "--omega-max", "1.4", "--points", "3"],
            "frc-delta-inf": ["frc", "--config", cfg, "--omega-min", "0.6",
                              "--omega-max", "1.4", "--points", "3", "--delta", "inf"],
            "seed": [*compute, "filtered_gaussian,duration=2,dt=0.05,f_cut=2", "--seed", "-1"],
            "compute-dt-inf": [*compute, str(untimed), "--dt", "inf"],
            "diagnose-dt-nan": ["diagnose", "--config", cfg, "--delta", "0.5", "--dt", "nan"],
            "compute-delta-nan": [*compute, _GEN, "--delta", "nan"],
            "pade-delta-nan": ["pade", "--expansion", str(tmp_path / "expansion"),
                               "--pade", "1:1", "--delta", "nan"],
        }[case]
        assert main(argv) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and re.fullmatch(r"[A-Z][A-Za-z]+: \S.*", err[0])

    def test_library_raises_only_its_own_errors(self):
        # every builtin exception would escape the CLI's exit-code mapping
        package = pathlib.Path(steadystate.__file__).parent
        builtin_errors = {
            name for name, obj in vars(builtins).items()
            if isinstance(obj, type) and issubclass(obj, BaseException)
        }
        found = []
        for path in sorted(package.glob("*.py")):
            for node in ast.walk(ast.parse(path.read_text())):
                if isinstance(node, ast.Raise) and node.exc is not None:
                    exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
                    if isinstance(exc, ast.Name) and exc.id in builtin_errors:
                        found.append(f"{path.name}:{node.lineno} {exc.id}")
        assert found == []

    @pytest.mark.parametrize("command", ["compute", "compare"])
    def test_newmark_backend_is_a_usage_error(self, tmp_path, capsys, command):
        # newmark names no backend: compare runs newmark_full as its
        # reference whatever the backend
        with pytest.raises(SystemExit) as ei:
            main([command, "--config", _config(tmp_path), "--forcing", _GEN,
                  "--order", "2", "--backend", "newmark"])
        assert ei.value.code == 2
        assert "invalid choice: 'newmark'" in capsys.readouterr().err

    def test_usage_errors_exit_2(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as ei:
            main(["compute", "--order", "2"])
        assert ei.value.code == 2
        with pytest.raises(SystemExit) as ei:
            main([])
        assert ei.value.code == 2
        capsys.readouterr()
        # a grid too large to allocate is refused before allocating
        assert main(["compute", "--config", _config(tmp_path), "--order", "2",
                     "--forcing", "two_tone,duration=1e300,dt=0.1"]) == 2
        assert capsys.readouterr().err.startswith("InvalidParameters:")
