"""End-to-end acceptance checks.

Each test covers one gate of the build contract and prints a single
verdict line (visible with `pytest -s` or in failure output). The
expected values come from independent routes: adaptive quadrature,
direct enumeration, full nonlinear time integration, fixed-point
iteration, and closed-form linear responses.
"""

import json
import math
import time
import warnings

import numpy as np
import pytest

from steadystate import (
    CoefficientTensor,
    GssExpansion,
    build_duffing,
    build_oscillator_chain,
    compute_taylor_gss,
    decompose_structural,
    evaluate_at_amplitude,
    evaluate_pade,
    faadibruno_phi,
    frc_sweep,
    generate_forcing,
    load_forcing,
    newmark_full,
    nmte,
    pade_resum,
    picard_gss,
    quadrature_weight_reference,
    reduced_gss,
    reduced_model,
    with_retained,
)
from steadystate.cli import main
from steadystate.composition import assemble_phi
from steadystate.errors import NearResonance
from steadystate.kernel import qmat_structural, qvec_general
from steadystate.spectral import check_contraction
from steadystate import serialize
from tests.conftest import first_order_field, identity_lift, random_system
from tests.test_gss import _modal_reduced_model


def _verdict(num: int, label: str, ok: bool, detail: str) -> None:
    print(f"[criterion {num:02d}] {label}: {'PASS' if ok else 'FAIL'} ({detail})")


def _two_tone(duration=60.0, dt=0.01, n=1, delta=1.0, pad=300, w1=1.3, w2=0.45):
    return generate_forcing("two_tone", n=n, duration=duration, dt=dt,
                            delta=delta, pad=pad, w1=w1, w2=w2)


def test_criterion_01_kernel_weights_match_quadrature():
    rng = np.random.default_rng(2024)
    worst = 0.0

    for _ in range(200):  # scalar modes
        x_mag = 10.0 ** rng.uniform(-6, 1)          # |lambda * dt| in [1e-6, 10]
        dt = 10.0 ** rng.uniform(-4, 0)
        angle = rng.uniform(0.51 * math.pi, 1.49 * math.pi)
        lam = (x_mag / dt) * complex(math.cos(angle), math.sin(angle))
        q = qvec_general(lam, dt)
        ref = quadrature_weight_reference(dt, lam=lam)
        worst = max(worst, float(np.abs(q - ref).max() / np.abs(ref).max()))

    zetas = 10.0 ** rng.uniform(-2, 1, size=194)
    zetas = np.concatenate([zetas, [1.0, 1.0 + 1e-7, 1.0 - 1e-7, 0.999, 1.001, 5.0]])
    for zeta in zetas:  # oscillators: under / critical / overdamped
        omega = 10.0 ** rng.uniform(-2, 2)
        x_mag = 10.0 ** rng.uniform(-6, 1)
        dt = x_mag / (omega * (1.0 + zeta))         # slowest root keeps |lam*dt| ~ x
        Q = qmat_structural(omega, float(zeta), dt)[0]
        ref = quadrature_weight_reference(dt, omega=omega, zeta=float(zeta))
        worst = max(worst, float(np.abs(Q - ref).max() / np.abs(ref).max()))

    ok = worst <= 1e-10
    _verdict(1, "kernel weights vs adaptive quadrature, 400 cases",
             ok, f"max rel err {worst:.2e}, limit 1e-10")
    assert ok


def test_criterion_02_composition_matches_direct_enumeration():
    rng = np.random.default_rng(77)
    worst = 0.0
    for case in range(50):
        n = int(rng.integers(1, 4))
        sys_ = random_system(rng, n, max_degree=4, n_terms=4)
        dim, T = 2 * n, 8
        tensor = CoefficientTensor.empty(dim, 5, T, dt=0.05)
        for nu in range(1, 5):
            tensor.insert_slice(nu, rng.standard_normal((dim, T)))
        for nu in range(2, 6):
            fast = assemble_phi(sys_, tensor, nu)
            ref = faadibruno_phi(sys_, tensor, nu)
            scale = max(float(np.abs(ref).max()), 1e-30)
            worst = max(worst, float(np.abs(fast - ref).max()) / scale)
    ok = worst <= 1e-12
    _verdict(2, "shared-product recursion vs direct enumeration, 50 systems",
             ok, f"max rel err {worst:.2e}, limit 1e-12")
    assert ok


def test_criterion_03_linear_exactness_and_harmonic_amplitude():
    omega0, zeta, Omega, delta = 1.0, 0.3, 1.7, 0.5
    sys_ = build_duffing(omega=omega0, zeta=zeta, kappa3=0.0)
    dt, duration = 1e-3, 120.0
    T = int(round(duration / dt)) + 1
    t = dt * np.arange(T)
    f = load_forcing(delta * np.sin(Omega * t)[:, None], dt=dt)
    exp = compute_taylor_gss(sys_, f, order=3)
    # linear system: the expansion terminates at order 1
    terminated = (np.abs(exp.tensor.order_slice(2)).max() == 0.0
                  and np.abs(exp.tensor.order_slice(3)).max() == 0.0)
    traj = evaluate_at_amplitude(exp, delta)
    tail = slice(int(0.7 * T), None)
    basis = np.column_stack([np.sin(Omega * t[tail]), np.cos(Omega * t[tail])])
    coeffs, *_ = np.linalg.lstsq(basis, traj[0, tail], rcond=None)
    fitted = math.hypot(*coeffs)
    expected = delta / math.hypot(omega0**2 - Omega**2, 2 * zeta * omega0 * Omega)
    rel = abs(fitted - expected) / expected
    ok = terminated and rel <= 1e-6
    _verdict(3, "linear termination at order 1 + analytic harmonic amplitude",
             ok, f"terminated={terminated}, amplitude rel err {rel:.2e}, limit 1e-6")
    assert ok


def test_criterion_04_chain_vs_full_integration():
    sys_ = build_oscillator_chain(20, m=0.1, k_lin=100.0, c=0.1, kappa3=2500.0)
    f = generate_forcing("filtered_gaussian", n=20, duration=100.0, dt=0.001,
                         delta=2.8, seed=42, f_cut=7.5, pad=1000, dofs=(0, 19))
    t0 = time.perf_counter()
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)
        exp = compute_taylor_gss(sys_, f, order=10)
    traj = evaluate_at_amplitude(exp, f.max_magnitude)
    t_gss = time.perf_counter() - t0
    t0 = time.perf_counter()
    ref = newmark_full(sys_, f)
    t_full = time.perf_counter() - t0
    err = nmte(traj, ref, skip=f.pad_length)
    ratio = t_full / t_gss
    ok = err <= 0.03
    _verdict(4, "20-mass chain, order 10 vs full integration",
             ok, f"NMTE {err:.4f}, limit 0.03; runtime ratio {ratio:.1f} "
                 f"(informational target >= 1.5; expansion {t_gss:.1f} s, "
                 f"full {t_full:.1f} s)")
    assert ok


def test_criterion_05_order_convergence_slope():
    sys_ = build_duffing(omega=1.0, zeta=0.2, kappa3=1.0)
    f = _two_tone(duration=60.0, dt=0.005, pad=400)
    skip = f.length // 2
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)
        exp3 = compute_taylor_gss(sys_, f, order=3)
    errs = []
    for delta in (0.4, 0.2):  # one octave
        ref = newmark_full(sys_, f.scaled(delta / f.max_magnitude))
        t3 = evaluate_at_amplitude(exp3, delta)
        errs.append(float(np.abs((t3 - ref)[:, skip:]).max()))
    ratio = errs[0] / errs[1]
    ok = ratio >= 2.0**3.5
    _verdict(5, "order-3 truncation error vs amplitude halving",
             ok, f"sup errs {errs[0]:.2e} -> {errs[1]:.2e}, "
                 f"ratio {ratio:.1f}, limit {2.0**3.5:.1f}")
    assert ok


@pytest.mark.filterwarnings("ignore::UserWarning")
def test_criterion_06_picard_taylor_agreement_under_certificate():
    sys_ = build_duffing(omega=1.0, zeta=0.5, kappa3=1.0)
    f = _two_tone(duration=60.0, dt=0.01, pad=300)
    ball, target, tol = 0.1, 0.012, 1e-13
    report = check_contraction(sys_, decompose_structural(sys_),
                               delta=ball, forcing_delta=target)
    exp5 = compute_taylor_gss(sys_, f, order=5)

    def sup_diff(delta):
        pc = picard_gss(sys_, f.scaled(delta / f.max_magnitude),
                        tol=tol, max_iter=200)
        return float(np.abs(pc.trajectory
                            - evaluate_at_amplitude(exp5, delta)).max()), pc

    consts = []
    for delta in (0.1, 0.07, 0.05):  # amplitude sweep fixes the error constant
        e, _ = sup_diff(delta)
        consts.append(e / delta**6)
    fitted = math.exp(float(np.mean(np.log(consts))))
    err, picard = sup_diff(target)
    bound = 10.0 * fitted * target**6
    # Banach iteration count from the certificate's own pieces
    q = report.contraction_factor
    amplification = q / (2.0 * (report.lipschitz_F + report.lipschitz_G))
    d1 = amplification * 1.0 * ball**3               # first correction bound
    l_max = math.ceil(math.log(tol * (1.0 - q) / d1) / math.log(q))
    ok = (report.satisfied and err <= bound and picard.iterations <= l_max)
    _verdict(6, "certified Picard vs order-5 expansion",
             ok, f"certificate satisfied={report.satisfied}, sup diff {err:.2e} "
                 f"<= {bound:.2e}, iterations {picard.iterations} <= {l_max}")
    assert ok


def test_criterion_07_pade_recovers_divergent_expansion():
    sys_ = build_duffing(omega=1.0, zeta=0.5, kappa3=1.0)
    f = _two_tone(duration=40.0, dt=0.02, pad=200)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)
        exp = compute_taylor_gss(sys_, f, order=20, check_divergence=False)
    pade = pade_resum(exp, 10, 10)

    chosen = None
    for delta in (0.8, 1.0, 1.2, 1.4, 1.6, 1.8):  # sweep for the divergent regime
        ref = newmark_full(sys_, f.scaled(delta / f.max_magnitude))
        amp = float(np.abs(ref).max())
        sups = [float(np.abs(evaluate_at_amplitude(exp, delta, max_order=N)).max())
                for N in range(12, 21)]
        monotone = all(sups[k + 1] >= sups[k] * (1.0 - 1e-12)
                       for k in range(len(sups) - 1))
        if monotone and sups[-1] > 10.0 * amp:
            chosen = (delta, ref, amp, sups[-1])
            break
    diverged = chosen is not None
    if diverged:
        delta, ref, amp, s20 = chosen
        err = nmte(evaluate_pade(pade, delta), ref, skip=f.pad_length)
    else:
        delta, err, amp, s20 = float("nan"), float("inf"), 0.0, 0.0

    # synthetic geometric slices: rational structure recovered exactly
    rng = np.random.default_rng(5)
    base = rng.standard_normal((2, 40))
    r, orders = 2.0, 6
    tensor = CoefficientTensor.empty(2, orders, 40, dt=0.1)
    for nu in range(1, orders + 1):
        tensor.insert_slice(nu, base * r**nu)
    synth = GssExpansion(system=None, spectral=None, tensor=tensor, order=orders,
                         backend="kernel", delta_ref=1.0, forcing_sup=1.0,
                         eps_trunc=1e-3, cache_stats={})
    beyond = 1.7 / r                                  # Taylor radius is 1/r
    exact = base * (r * beyond) / (1.0 - r * beyond)
    got = evaluate_pade(pade_resum(synth, 1, 1), beyond)
    synth_err = float(np.abs(got - exact).max() / np.abs(exact).max())

    ok = diverged and err <= 0.05 and synth_err <= 1e-8
    _verdict(7, "rational resummation where the power series fails",
             ok, f"delta {delta}, order-20 sum {s20 / max(amp, 1e-300):.0f}x reference, "
                 f"resummed NMTE {err:.4f} (limit 0.05), geometric check "
                 f"{synth_err:.2e} (limit 1e-8)")
    assert ok


def test_criterion_08_quasiperiodic_backend():
    # (a) closed-form and piecewise-linear backends converge together at
    #     second order in the step
    sys_ = build_duffing(omega=1.0, zeta=0.5, kappa3=1.0)
    diffs = []
    for dt in (0.04, 0.02, 0.01):
        f = generate_forcing("two_tone", n=1, duration=60.0, dt=dt, delta=0.4,
                             pad=int(round(3.0 / dt)), w1=1.3, w2=0.45)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)
            ek = compute_taylor_gss(sys_, f, order=5, backend="kernel")
            eq = compute_taylor_gss(sys_, f, order=5, backend="qp",
                                    base_frequencies=(1.3, 0.45))
        window = slice(int(40.0 / dt), None)
        diffs.append(float(np.abs(
            (evaluate_at_amplitude(ek, f.max_magnitude)
             - evaluate_at_amplitude(eq, f.max_magnitude))[:, window]).max()))
    ratios = [diffs[i] / diffs[i + 1] for i in range(2)]
    second_order = all(3.0 <= r <= 5.5 for r in ratios)

    # (b) the resonance guard trips on a harmonic near an eigenvalue
    sharp = build_duffing(omega=1.0, zeta=1e-4, kappa3=0.5)
    f_res = generate_forcing("two_tone", n=1, duration=30.0, dt=0.02, delta=0.01,
                             pad=100, w1=1.0, w2=0.45)
    with pytest.raises(NearResonance) as excinfo:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)
            compute_taylor_gss(sharp, f_res, order=3, backend="qp",
                               base_frequencies=(1.0, 0.45), resonance_tol=1e-2)
    guard = abs(excinfo.value.distance - 1e-4) <= 1e-6

    # (c) forced-response sweep on the heavily damped chain vs Newmark
    chain = build_oscillator_chain(20, m=0.1, k_lin=100.0, c=3.0, kappa3=2500.0)
    omegas = np.array([7.0, 11.7, 16.3])  # between the chain resonances
    delta = 4.0
    sweep = frc_sweep(chain, omegas, delta=delta, order=5, harmonic_budget=5,
                      dofs=(4,))
    worst = 0.0
    for i, W in enumerate(omegas):
        period = 2.0 * math.pi / W
        spp = 256
        dt = period / spp
        T = (int(math.ceil(30.0 / period)) + 2) * spp + 1
        t = dt * np.arange(T)
        samples = np.zeros((T, 20))
        samples[:, 4] = delta * np.sin(W * t)
        ref = newmark_full(chain, load_forcing(samples, dt=dt))
        amp_ref = np.abs(ref[:, -spp:]).max(axis=1)
        mask = amp_ref > 0.01 * amp_ref.max()
        worst = max(worst, float((np.abs(sweep.amplitude[i] - amp_ref)[mask]
                                  / amp_ref[mask]).max()))
    frc_ok = worst <= 0.02 and not any(sweep.flags)

    ok = second_order and guard and frc_ok
    _verdict(8, "closed-form quasiperiodic backend",
             ok, f"step-halving ratios {ratios[0]:.2f}/{ratios[1]:.2f} (want ~4), "
                 f"guard distance ok={guard}, sweep max rel err {worst:.4f} "
                 f"(limit 0.02)")
    assert ok


def test_criterion_09_reduced_model_identities():
    rng = np.random.default_rng(13)

    # trivial reduction: lifting the identity reproduces the full computation
    sys_ = random_system(rng, 2, max_degree=3, n_terms=3)
    f = _two_tone(duration=40.0, dt=0.02, n=2, pad=300, delta=0.05)
    spec = decompose_structural(sys_)
    dim = sys_.state_dim
    model = reduced_model(first_order_field(sys_), identity_lift(dim),
                          np.eye(dim), np.eye(dim))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)
        red = reduced_gss(model, with_retained(spec, tuple(range(sys_.n))),
                          f, order=4)
        full = compute_taylor_gss(sys_, f, order=4, eps_trunc=1e-16)
    a = evaluate_at_amplitude(red, f.max_magnitude)
    b = evaluate_at_amplitude(full, f.max_magnitude)
    trivial = float(np.abs(a - b).max() / max(np.abs(b).max(), 1e-300))

    # exact modal split of a linear system: the retained mode goes through
    # the reduced path, the complement stays linear; their sum is the full
    # response
    lin = random_system(rng, 3, n_terms=0)
    f3 = _two_tone(duration=40.0, dt=0.02, n=3, pad=300, delta=0.1)
    spec_lin = decompose_structural(lin)
    model = _modal_reduced_model(lin, spec_lin, 0)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)
        red = reduced_gss(model, with_retained(spec_lin, (0,)), f3, order=1)
        full_lin = compute_taylor_gss(lin, f3, order=1, eps_trunc=1e-16)
    za = evaluate_at_amplitude(red, f3.max_magnitude)
    zb = evaluate_at_amplitude(full_lin, f3.max_magnitude)
    split = float(np.abs(za - zb).max() / max(np.abs(zb).max(), 1e-300))

    ok = trivial <= 1e-10 and split <= 1e-8
    _verdict(9, "reduced-model identities",
             ok, f"trivial embedding rel err {trivial:.2e} (limit 1e-10), "
                 f"modal split rel err {split:.2e} (limit 1e-8)")
    assert ok


def test_criterion_10_determinism_and_thread_count(tmp_path, capsys):
    cfg = tmp_path / "system.json"
    serialize.save_system(build_duffing(zeta=0.2, kappa3=1.0), cfg)
    gen = "two_tone,duration=20,dt=0.05,delta=0.1,w1=1.3,w2=0.45"

    def run(argv):
        code = main(argv)
        out = capsys.readouterr().out.strip().splitlines()[-1]
        assert code == 0, out
        return json.loads(out)

    results = {}
    for tag in ("a", "b"):
        exp_dir = tmp_path / f"exp_{tag}"
        traj = tmp_path / f"traj_{tag}.csv"
        run(["compute", "--config", str(cfg), "--forcing", gen, "--pad", "40",
             "--order", "4", "--out", str(exp_dir), "--trajectory", str(traj)])
        pade_dir = tmp_path / f"pade_{tag}"
        pade_sum = run(["pade", "--expansion", str(exp_dir), "--pade", "2:2",
                        "--delta", "0.08"])
        cmp_sum = run(["compare", "--config", str(cfg), "--forcing", gen,
                       "--pad", "40", "--order", "4"])
        diag = run(["diagnose", "--config", str(cfg), "--dt", "0.05",
                    "--delta", "0.1"])
        frc1 = tmp_path / f"frc1_{tag}.csv"
        frc4 = tmp_path / f"frc4_{tag}.csv"
        run(["frc", "--config", str(cfg), "--omega-min", "0.6", "--omega-max",
             "1.4", "--points", "5", "--delta", "0.05", "--order", "3",
             "--threads", "1", "--out", str(frc1)])
        run(["frc", "--config", str(cfg), "--omega-min", "0.6", "--omega-max",
             "1.4", "--points", "5", "--delta", "0.05", "--order", "3",
             "--threads", "4", "--out", str(frc4)])
        results[tag] = {
            # every file of the container, by name and bytes (manifest
            # included): at least as strict as comparing the grids' text
            "expansion": [
                (p.name, p.read_bytes()) for p in sorted(exp_dir.iterdir())
            ],
            "traj": traj.read_text(),
            "pade": pade_sum,
            "compare": cmp_sum,
            "diagnose": diag,
            "frc1": frc1.read_text(),
            "frc4": frc4.read_text(),
        }
        assert [name for name, _ in results[tag]["expansion"]] == [
            "manifest.json", "tensor.npy"]
        # thread count must not move any number (text equality: %.17g is
        # an exact float64 round trip, so equal text == equal values)
        assert results[tag]["frc1"] == results[tag]["frc4"]

    rerun_equal = results["a"] == results["b"]
    serial = np.loadtxt(tmp_path / "frc1_a.csv", delimiter=",", skiprows=1)
    threaded = np.loadtxt(tmp_path / "frc4_b.csv", delimiter=",", skiprows=1)
    thread_rel = float(np.abs(threaded - serial).max()
                       / max(np.abs(serial).max(), 1e-300))
    ok = rerun_equal and thread_rel <= 1e-12
    _verdict(10, "rerun and thread-count determinism",
             ok, f"rerun outputs identical={rerun_equal}, "
                 f"threads 1 vs 4 rel diff {thread_rel:.1e} (limit 1e-12)")
    assert ok
