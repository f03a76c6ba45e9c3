"""End-to-end acceptance gate.

Each test evaluates one numbered criterion, prints a single
"ACCEPTANCE n: PASS/FAIL -- ..." line, and then asserts.  Criteria 6 and
8 currently FAIL for physics reasons documented in the threshold-scan
and reproduce-report notes: after calibrating the first excited
dissolution point to 220 keV, universal scaling places the second
crossing at ~3e-3 keV (not in [70, 210] keV), and the elastic curves are
monotone threshold shapes with no resonance, so the cross-curve Fano
fits do not converge to a shared q.  The tests state the requirement
faithfully rather than weakening it.
"""

import math
import sys
from dataclasses import replace

import numpy as np
import pytest
from scipy.optimize import brentq

from trihalo.fanofit import (
    FanoParameters,
    _bw_jacobian,
    _bw_value,
    _fano_jacobian,
    _fano_value,
    fano_profile,
    fit,
)
from trihalo.model import (
    HBAR_C,
    ChannelLabel,
    boron19_config,
    default_c20_config,
    epsilon2_from_scattering_length,
    reduced_mass,
    scattering_length_from_pole,
)
from trihalo.pipeline import run_fig1_fig2
from trihalo.quadrature import build_grid
from trihalo.scattering import cross_section_curve
from trihalo.spectrum import (
    ResonantPairs,
    _Engine,
    efimov_scale_factor,
    threshold_scan,
)


def report(n, ok, detail):
    # write past pytest's capture so every run shows one line per criterion
    line = f"ACCEPTANCE {n}: {'PASS' if ok else 'FAIL'} -- {detail}"
    print(line)
    print(line, file=sys.__stdout__)
    assert ok, detail


def test_acceptance_01_fano_identities():
    rng = np.random.default_rng(1)
    worst = 0.0
    for _ in range(1000):
        p = FanoParameters(
            sigma0_fm2=float(rng.uniform(1e-3, 1e3)),
            q=float(rng.uniform(-20, 20)) or 1.0,
            E_r_keV=float(rng.uniform(-50, 50)),
            Gamma_keV=float(rng.uniform(1e-3, 50)),
        )
        zero = fano_profile(p.E_r_keV - p.q * p.Gamma_keV / 2, p)
        peak = fano_profile(p.E_r_keV + p.Gamma_keV / (2 * p.q), p)
        mid = fano_profile(p.E_r_keV, p)
        worst = max(
            worst,
            abs(zero) / (p.sigma0_fm2 * (1 + p.q**2)),
            abs(peak - p.sigma0_fm2 * (1 + p.q**2)) / (p.sigma0_fm2 * (1 + p.q**2)),
            abs(mid - p.sigma0_fm2 * p.q**2) / (p.sigma0_fm2 * max(p.q**2, 1e-30)),
        )
    report(1, worst < 1e-12, f"worst relative identity error {worst:.2e} over 1000 draws")


def test_acceptance_02_fit_recovery():
    ref = FanoParameters(1.0, 4.0, 1.63, 0.25)
    E = np.linspace(0.5, 3.5, 200)
    clean = fano_profile(E, ref)

    def rel_err(p):
        return max(
            abs(p.sigma0_fm2 - 1.0),
            abs(p.q - 4.0) / 4.0,
            abs(p.E_r_keV - 1.63) / 1.63,
            abs(p.Gamma_keV - 0.25) / 0.25,
        )

    clean_err = rel_err(fit(E, clean, model="fano").params)
    rng = np.random.default_rng(42)
    noisy_errs = []
    for _ in range(100):
        s = np.clip(clean * (1 + 0.01 * rng.standard_normal(len(E))), 1e-12, None)
        noisy_errs.append(rel_err(fit(E, s, model="fano").params))
    med = float(np.median(noisy_errs))
    ok = clean_err < 1e-3 and med < 0.05
    report(2, ok, f"noise-free max rel err {clean_err:.2e}; noisy median {med:.3f}")


def test_acceptance_03_model_comparison():
    E = np.linspace(0.5, 3.5, 150)
    margins = []
    for q in (-10.0, -4.0, -1.0, 0.5, 1.0, 2.5, 4.0, 7.0, 10.0):
        s = fano_profile(E, FanoParameters(1.0, q, 1.63, 0.25))
        r_f = fit(E, s, model="fano").residual_norm
        r_b = fit(E, s, model="breit_wigner").residual_norm
        margins.append(r_b - r_f)
    ok = all(m > 0 for m in margins)
    report(3, ok, f"BW minus Fano residual margins all positive: {ok}")


def test_acceptance_04_two_body_oracle():
    cfg = default_c20_config()
    mu = reduced_mass(cfg, ChannelLabel.neutron_core)
    a = scattering_length_from_pole(cfg.nc_channel, mu)
    hand = HBAR_C / math.sqrt(2.0 * mu * 0.250)
    rt = abs(epsilon2_from_scattering_length(a, mu) - 250.0) / 250.0
    ok = abs(a - 9.354) < 0.001 and abs(a - hand) < 1e-12 and rt < 1e-12
    report(4, ok, f"a = {a:.6f} fm (hand {hand:.6f}); round-trip rel err {rt:.1e}")


def test_acceptance_05_discrete_scaling(unitary_boson_spectrum):
    sf = efimov_scale_factor(1.0, ResonantPairs.all_three)
    from trihalo.spectrum import _scale_equation

    residual = abs(_scale_equation(1.0, ResonantPairs.all_three)(sf.s0))
    f = lambda s: s * math.cosh(math.pi * s / 2) - (8 / math.sqrt(3)) * math.sinh(
        math.pi * s / 6
    )
    s_ref = brentq(f, 0.5, 2.0, xtol=1e-14)
    levels = {lv.index: lv.epsilon3_keV for lv in unitary_boson_spectrum.levels}
    ratio = levels[1] / levels[2]
    dev = abs(ratio / sf.energy_ratio - 1.0)
    ok = (
        dev < 0.05
        and residual < 1e-12
        and abs(sf.s0 - 1.00624) < 1e-4
        and abs(sf.s0 - s_ref) < 1e-10
    )
    report(
        5,
        ok,
        f"eps3(1)/eps3(2) = {ratio:.2f} vs exp(2pi/s0) = {sf.energy_ratio:.2f} "
        f"({100 * dev:.2f}% off); s0 = {sf.s0:.7f}, residual {residual:.1e}",
    )


def test_acceptance_06_threshold_phenomenology(grid, calibrated_c20):
    values = np.geomspace(1e-3, 400.0, 30)
    scan = threshold_scan(calibrated_c20, values, grid)
    counts = [p.bound_excited_count for p in scan.points]
    non_increasing = counts == sorted(counts, reverse=True)
    stars = {c.state_index: c.epsilon2_star_keV for c in scan.crossings}
    two = set(stars) == {1, 2}
    ordered = two and stars[2] < stars[1]
    in_band = two and 70.0 <= stars[2] <= 210.0
    detail = (
        f"crossings {sorted(stars.items())}; counts non-increasing: {non_increasing}; "
        f"eps2*(2) in [70, 210] keV: {in_band} "
        "(universal scaling puts it near 3e-3 keV after the 220 keV calibration)"
    )
    report(6, non_increasing and two and ordered and in_band, detail)


def test_acceptance_07_elastic_unitarity(grid, calibrated_c20):
    cfg = replace(
        calibrated_c20,
        nc_channel=replace(
            calibrated_c20.nc_channel, epsilon2_keV=250.0, scattering_length_fm=None
        ),
    )
    worst = 0.0
    bound_ok = True
    for pt in cross_section_curve(cfg, grid, np.geomspace(0.1, 245.0, 50)).points:
        f = pt.amplitude_fm
        k = pt.k_inv_fm
        worst = max(worst, abs(f.imag - k * abs(f) ** 2) / (k * abs(f) ** 2))
        bound_ok &= pt.sigma_fm2 <= 4 * math.pi / k**2 * (1 + 1e-9)
    ok = worst < 1e-6 and bound_ok
    report(7, ok, f"worst unitarity residual {worst:.2e} at 50 energies; bound ok: {bound_ok}")


def test_acceptance_08_same_q_diagnostic(tmp_path, grid):
    summary = run_fig1_fig2(tmp_path / "fig1-fig2", grid=grid)
    spread = summary["q_spread"]
    fits = summary["fits"]
    conv = {e: f.converged for e, f in fits.items()}
    detail = (
        f"q spread = {spread}; converged = {conv} "
        "(both curves are monotone threshold shapes with no resonance window, "
        "so no shared Fano q exists; see report.txt notes)"
    )
    report(8, spread < 0.3, detail)


def test_acceptance_09_boron19_state_count():
    g = build_grid(160, 0.05)
    ev = _Engine(boron19_config(), g).eigenvalues(-1e-12)
    count = int(np.sum(ev > 1.0))
    report(9, count == 3, f"A=17, |a| = 179 fm: {count} states below threshold")


def test_acceptance_10_jacobian_check():
    rng = np.random.default_rng(7)
    worst = 0.0
    for value, jac, qlo, qhi in [
        (_fano_value, _fano_jacobian, -8.0, 8.0),
        (_bw_value, _bw_jacobian, 0.5, 5.0),
    ]:
        for _ in range(100):
            th = np.array(
                [
                    rng.uniform(0.5, 5.0),
                    rng.uniform(qlo, qhi),
                    rng.uniform(-2.0, 2.0),
                    rng.uniform(0.2, 3.0),
                ]
            )
            E = rng.uniform(-5.0, 5.0, size=7)
            J = jac(E, th)

            def central(h):
                D = np.empty_like(J)
                for j in range(4):
                    tp, tm = th.copy(), th.copy()
                    tp[j] += h[j]
                    tm[j] -= h[j]
                    D[:, j] = (value(E, tp) - value(E, tm)) / (2 * h[j])
                return D

            # Richardson extrapolation cancels the O(h^2) truncation term
            h = np.array([1e-3 * max(abs(t), 1.0) for t in th])
            J_fd = (4.0 * central(h / 2) - central(h)) / 3.0
            scale = np.maximum(np.abs(J_fd), np.max(np.abs(J_fd)) * 1e-6)
            worst = max(worst, float(np.max(np.abs(J - J_fd) / scale)))
    report(10, worst < 1e-6, f"worst relative Jacobian deviation {worst:.2e}")
