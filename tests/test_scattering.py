import math
from dataclasses import replace

import numpy as np
import pytest

from trihalo import spectrum
from trihalo.errors import ConfigurationError, DomainError, NumericalError
from trihalo.fanofit import FanoParameters, fano_profile, resonance_window
from trihalo.model import (
    HBAR_C,
    KEV_PER_MEV,
    NUCLEON_MASS,
    ChannelLabel,
    default_c20_config,
    propagator_residue,
    reduced_mass,
    two_body_propagator_subtracted,
)
from trihalo.pipeline import curve_mesh
from trihalo.quadrature import build_grid
from trihalo.scattering import (
    CrossSectionCurve,
    ScatteringPoint,
    cross_section_curve,
)
from trihalo.spectrum import _Engine, _exchanges


def c20(calibrated, eps2):
    return replace(
        calibrated,
        nc_channel=replace(
            calibrated.nc_channel, epsilon2_keV=eps2, scattering_length_fm=None
        ),
    )


@pytest.fixture(scope="module")
def curve250(grid, calibrated_c20):
    cfg = c20(calibrated_c20, 250.0)
    return cross_section_curve(cfg, grid, np.geomspace(0.05, 245.0, 40))


def neutron_spectator_mass(cfg):
    m_n, m_c = NUCLEON_MASS, cfg.core_mass_number * NUCLEON_MASS
    return m_n * (m_n + m_c) / (2 * m_n + m_c)


def unitarity_residuals(cfg, grid, E_keV):
    M_n = neutron_spectator_mass(cfg)
    for pt in cross_section_curve(cfg, grid, E_keV).points:
        f = pt.amplitude_fm / HBAR_C  # MeV^-1
        k = math.sqrt(2.0 * M_n * pt.E_cm_keV / 1000.0)
        yield abs(f.imag - k * abs(f) ** 2) / (k * abs(f) ** 2)


def test_elastic_unitarity(grid, calibrated_c20):
    cfg = c20(calibrated_c20, 250.0)
    assert max(unitarity_residuals(cfg, grid, np.geomspace(0.1, 240.0, 12))) < 1e-6


def test_unitarity_bound_and_k_relation(grid, calibrated_c20):
    cfg = c20(calibrated_c20, 250.0)
    M_n = neutron_spectator_mass(cfg)
    for pt in cross_section_curve(cfg, grid, [0.5, 17.0, 180.0]).points:
        assert pt.sigma_fm2 <= 4 * math.pi / pt.k_inv_fm**2 * (1 + 1e-9)
        assert pt.k_inv_fm**2 == pytest.approx(
            2 * M_n * (pt.E_cm_keV / 1000.0) / HBAR_C**2, rel=1e-12
        )


def test_domain_errors(grid, calibrated_c20):
    cfg = c20(calibrated_c20, 250.0)
    with pytest.raises(DomainError, match="250"):
        cross_section_curve(cfg, grid, [260.0])
    with pytest.raises(DomainError):
        cross_section_curve(cfg, grid, [-1.0])
    from trihalo.model import boron19_config

    with pytest.raises(ConfigurationError, match="bound"):
        cross_section_curve(boron19_config(), grid, [10.0])


def test_threshold_effective_range_behavior(grid, calibrated_c20):
    # k cot(delta) from Re(1/f) extrapolates to a finite constant at E -> 0
    cfg = c20(calibrated_c20, 250.0)
    E = np.array([0.1, 0.3, 0.5, 0.7, 0.9])
    kcot = []
    for pt in cross_section_curve(cfg, grid, E).points:
        f = pt.amplitude_fm
        kcot.append((1.0 / f).real)
        assert (1.0 / f).imag == pytest.approx(-pt.k_inv_fm, rel=1e-6)
    kcot = np.array(kcot)
    # linear effective-range fit in k^2; intercept finite and dominant
    k2 = 2 * 892.587 * E / 1000.0 / HBAR_C**2
    coeffs = np.polyfit(k2, kcot, 1)
    intercept = coeffs[1]
    assert np.isfinite(intercept) and abs(intercept) > 0
    assert np.max(np.abs(kcot - np.polyval(coeffs, k2))) < 0.05 * abs(intercept)


def test_curve_sorted_validation(grid, calibrated_c20):
    cfg = c20(calibrated_c20, 250.0)
    with pytest.raises(ConfigurationError):
        cross_section_curve(cfg, grid, [5.0, 1.0])
    with pytest.raises(DomainError, match="999"):
        cross_section_curve(cfg, grid, [1.0, 999.0])


def test_curve_grid_refinement(calibrated_c20):
    cfg = c20(calibrated_c20, 250.0)
    mesh = np.geomspace(0.1, 240.0, 10)
    s1 = cross_section_curve(cfg, build_grid(96, 0.1), mesh).sigmas_fm2
    s2 = cross_section_curve(cfg, build_grid(192, 0.1), mesh).sigmas_fm2
    assert np.max(np.abs(s1 / s2 - 1.0)) < 5e-3


def test_threshold_enhancement_grows_toward_crossing(grid, calibrated_c20):
    # the near-threshold feature intensifies as eps2 decreases toward
    # the first-excited crossing at 220 keV (the state approaches threshold)
    sigmas = []
    for eps2 in (240.0, 260.0, 290.0):
        cfg = c20(calibrated_c20, eps2)
        sigmas.append(cross_section_curve(cfg, grid, [0.5]).sigmas_fm2[0])
    assert sigmas[0] > sigmas[1] > sigmas[2]


def test_resonance_window_on_synthetic_fano():
    p = FanoParameters(sigma0_fm2=1.0, q=4.0, E_r_keV=1.63, Gamma_keV=0.25)
    E = np.linspace(0.5, 3.5, 400)
    win = resonance_window(E, fano_profile(E, p))
    assert win is not None
    zero = p.E_r_keV - p.q * p.Gamma_keV / 2  # eps = -q
    peak = p.E_r_keV + p.Gamma_keV / (2 * p.q)  # eps = 1/q
    assert win.lo_keV < zero < win.hi_keV
    assert win.lo_keV < peak < win.hi_keV


def test_resonance_window_monotone_none():
    E = np.linspace(1.0, 10.0, 50)
    assert resonance_window(E, 1.0 / E) is None


def test_computed_curves_are_monotone_threshold_shapes(curve250):
    # this model's elastic curves show threshold enhancement, not an
    # interior resonance: the excited state crosses into a virtual state
    assert resonance_window(curve250.energies_keV, curve250.sigmas_fm2) is None
    assert np.all(np.diff(curve250.sigmas_fm2) < 0)


def dense_amplitude(cfg, grid, E_cm_keV):
    """Reference f (fm) from the full complex (2N+1) system on p + {q0}.

    Unknowns F_n on the N nodes plus q0 and F_c on the N nodes; the on-shell
    column carries the principal-value counter-term and -i pi Mn R q0.  Every
    Born block is built afresh on p + {q0}: nothing is shared with the
    library's elimination of F_c.  E and q0 are rounded as the library
    rounds them: near a node, one ulp of q0 can move f by 1e-8.
    """
    eng = _Engine(cfg, grid)
    Mn, n = eng.M_n, grid.count
    Ecm = E_cm_keV / KEV_PER_MEV
    E = -eng.config.nc_channel.epsilon2_keV / KEV_PER_MEV + Ecm
    q0 = math.sqrt(2.0 * Mn * Ecm)
    p, w = eng.p, eng.w
    pe = np.append(p, q0)
    Znn, Znc = (z(E) for z in _exchanges(eng, pe[:, None], pe[None, :]))
    Bnn, Bnc = 2.0 * math.pi * Znn.real, 2.0 * math.pi * Znc.real
    nc = eng.config.nc_channel
    R = propagator_residue(nc, eng.mu_nc)
    tau_full = two_body_propagator_subtracted(
        nc, eng.mu_nc, E - p**2 / (2.0 * Mn)
    ).real + 2.0 * Mn * R / (q0**2 - p**2)
    tau_c = eng.tau_c(E).real
    wq2 = w * p**2
    counter = -2.0 * Mn * R * q0**2 * float(np.sum(w / (q0**2 - p**2)))
    onshell = counter - 1j * math.pi * Mn * R * q0
    M = np.zeros((2 * n + 1, 2 * n + 1), dtype=complex)
    rhs = np.zeros(2 * n + 1, dtype=complex)
    rhs[: n + 1] = Bnn[:, n]
    M[: n + 1, :n] = Bnn[:, :n] * (wq2 * tau_full)[None, :]
    M[: n + 1, n] = Bnn[:, n] * onshell
    M[: n + 1, n + 1 :] = Bnc[:, :n] * (wq2 * tau_c)[None, :]
    rhs[n + 1 :] = 2.0 * Bnc[n, :n]
    M[n + 1 :, :n] = 2.0 * Bnc[:n, :n].T * (wq2 * tau_full)[None, :]
    M[n + 1 :, n] = 2.0 * Bnc[n, :n] * onshell
    X = np.linalg.solve(np.eye(2 * n + 1) - M, rhs)
    return complex(-math.pi * Mn * R * X[n] * HBAR_C)


@pytest.mark.parametrize("count", [32, 96])
@pytest.mark.parametrize("eps2", [150.0, 250.0])
def test_amplitude_matches_dense_complex_system(calibrated_c20, count, eps2):
    # the real (N+1) Schur solve plus Sherman-Morrison is an exact rewrite
    # of the complex (2N+1) system: only rounding may separate them
    cfg, g = c20(calibrated_c20, eps2), build_grid(count, 0.1)
    for pt in cross_section_curve(cfg, g, curve_mesh(eps2, 20)).points:
        ref = dense_amplitude(cfg, g, pt.E_cm_keV)
        assert abs(pt.amplitude_fm / ref - 1.0) <= 1e-11, pt.E_cm_keV


def test_elastic_unitarity_to_rounding(grid, calibrated_c20):
    # Im(1/f) = -k holds by construction of the Sherman-Morrison step
    cfg = c20(calibrated_c20, 250.0)
    assert max(unitarity_residuals(cfg, grid, curve_mesh(250.0, 20))) <= 1e-12


def count_grid_exchanges(monkeypatch, n):
    """Count _Exchange constructions over a full n x n momentum grid."""
    built = []
    init = spectrum._Exchange.__init__

    def counting_init(self, q, qp, *args):
        built.append(np.broadcast(q, qp).shape == (n, n))
        init(self, q, qp, *args)

    monkeypatch.setattr(spectrum._Exchange, "__init__", counting_init)
    return built


def test_curve_builds_one_grid_exchange_pair(monkeypatch, calibrated_c20):
    g = build_grid(48, 0.1)
    built = count_grid_exchanges(monkeypatch, g.count)
    cross_section_curve(c20(calibrated_c20, 250.0), g, curve_mesh(250.0, 12))
    # Z_nn and Z_nc once over the grid; each energy adds only its q0 border
    assert sum(built) == 2 and len(built) == 2 + 2 * 12


def test_threshold_scan_builds_one_grid_exchange_pair(monkeypatch, calibrated_c20):
    g = build_grid(48, 0.1)
    built = count_grid_exchanges(monkeypatch, g.count)
    scan = spectrum.threshold_scan(calibrated_c20, np.geomspace(1.0, 400.0, 12), g)
    assert scan.crossings and len(built) == 2


def test_shared_exchange_scan_equals_fresh_engine_scan(monkeypatch, calibrated_c20):
    g = build_grid(64, 0.1)
    values = np.geomspace(1e-3, 400.0, 16)
    shared = spectrum.threshold_scan(calibrated_c20, values, g)

    def fresh(self, eps2_keV):
        nc = replace(self.config.nc_channel, epsilon2_keV=eps2_keV, scattering_length_fm=None)
        return _Engine(replace(self.config, nc_channel=nc), self.grid)

    monkeypatch.setattr(_Engine, "with_epsilon2", fresh)
    assert spectrum.threshold_scan(calibrated_c20, values, g) == shared
    assert len(shared.crossings) == 2


@pytest.mark.parametrize("sigma", [math.nan, math.inf, 1e12])
def test_curve_outside_unitarity_is_numerical_error(calibrated_c20, sigma):
    pt = ScatteringPoint(E_cm_keV=1.0, k_inv_fm=0.03, amplitude_fm=0j, sigma_fm2=sigma)
    with pytest.raises(NumericalError, match="unitarity"):
        CrossSectionCurve(points=(pt,), config_snapshot=calibrated_c20)
