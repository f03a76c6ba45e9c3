import math
import re
import tracemalloc
import warnings
from dataclasses import replace

import numpy as np
import pytest

from trihalo import _engine, scattering, spectrum
from trihalo.errors import ConfigurationError, DomainError, NumericalError
from trihalo.fanofit import FanoParameters, fano_profile, resonance_window
from trihalo.model import (
    HBAR_C,
    KEV_PER_MEV,
    NUCLEON_MASS,
    ChannelLabel,
    PairChannel,
    PoleKind,
    SystemConfig,
    default_c20_config,
    parse_system_config,
    propagator_residue,
    reduced_mass,
    resolve_config,
    two_body_propagator,
    two_body_propagator_subtracted,
)
from trihalo.pipeline import curve_mesh
from trihalo.quadrature import build_grid
from trihalo.scattering import (
    CrossSectionCurve,
    ScatteringPoint,
    cross_section_curve,
    elastic_window,
)
from trihalo._engine import _exchanges
from trihalo.spectrum import _Engine


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


@pytest.mark.parametrize(
    "nc, nn",
    [
        ({"epsilon2_keV": 250.0}, {"pole_kind": PoleKind.bound, "scattering_length_fm": 30.0}),
        ({"scattering_length_fm": 10.0}, {"pole_kind": PoleKind.virtual, "epsilon2_keV": 100.0}),
    ],
    ids=["nn-bound-by-length", "nc-by-length"],
)
def test_elastic_window_of_an_unresolved_config(nc, nn):
    # a channel given only by its scattering length is resolved first
    cfg = SystemConfig(
        18,
        PairChannel(ChannelLabel.neutron_core, PoleKind.bound, 1.0, **nc),
        PairChannel(ChannelLabel.neutron_neutron, beta_inv_fm=1.0, **nn),
    )
    top = elastic_window(cfg)
    assert top == elastic_window(resolve_config(cfg)) and 0.0 < top < 250.0


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


def test_curve_fails_with_its_first_failing_energys_own_error():
    # at eps2 = 1e100 keV the exchange blocks overflow from some energy on:
    # the curve, whose q0 borders are built for a chunk of energies at once
    # (all five here), must fail at that energy with the message a
    # one-point curve there gives
    cfg, g = default_c20_config(epsilon2_keV=1e100), build_grid(16, 0.1)
    mesh = np.geomspace(0.05, 0.98e100, 5)
    with pytest.raises(NumericalError, match="exchange kernel") as curve_error:
        cross_section_curve(cfg, g, mesh)
    alone = []
    for E in mesh:
        try:
            cross_section_curve(cfg, g, [E])
        except NumericalError as exc:
            alone.append(str(exc))
    assert len(alone) < len(mesh) and alone[0] == str(curve_error.value)


def test_a_warning_border_chunk_leaves_each_energy_its_own_border(monkeypatch):
    # a chunk whose border build warns is dropped, and each of its energies
    # builds its own border: every energy warns as it would alone, and the
    # curve keeps its bits.  Only the border rows' exchange pair warns here,
    # not the grid's
    cfg, g = default_c20_config(), build_grid(16, 0.1)
    mesh = np.geomspace(0.05, 240.0, 5)
    plain = cross_section_curve(cfg, g, mesh)
    exchanges = _engine._exchanges

    def warning_exchanges(eng, q, qp):
        if np.broadcast(q, qp).shape != (g.count, g.count):
            np.log(np.zeros(1))  # a divide-by-zero RuntimeWarning
        return exchanges(eng, q, qp)

    monkeypatch.setattr(_engine, "_exchanges", warning_exchanges)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        warned = cross_section_curve(cfg, g, mesh)
    assert len(caught) == len(mesh)
    assert warned == plain


def test_curve_memory_does_not_grow_with_its_energy_count():
    # the q0 borders are built a chunk of energies at a time (50 energies
    # at N = 32), so a curve's working memory above its result stays flat
    # in its energy count; borders for all energies at once took 2.2 MiB
    # more for the longer curve here
    cfg, g = default_c20_config(), build_grid(32, 0.1)
    cross_section_curve(cfg, g, [1.0])  # the first call's one-off allocations
    working = []
    tracemalloc.start()
    try:
        for count in (150, 600):
            tracemalloc.reset_peak()
            base = tracemalloc.get_traced_memory()[0]
            curve = cross_section_curve(cfg, g, np.geomspace(0.05, 240.0, count))
            result, peak = tracemalloc.get_traced_memory()
            working.append(peak - result)
            assert len(curve.points) == count and result > base
            del curve
    finally:
        tracemalloc.stop()
    assert working[1] - working[0] < 64 * 1024, working


def test_curve_sorted_validation(grid, calibrated_c20):
    cfg = c20(calibrated_c20, 250.0)
    with pytest.raises(ConfigurationError):
        cross_section_curve(cfg, grid, [5.0, 1.0])
    with pytest.raises(DomainError, match="999"):
        cross_section_curve(cfg, grid, [1.0, 999.0])


@pytest.mark.parametrize("mesh, shape", [(1.0, "()"), ([[1.0, 2.0], [3.0, 4.0]], "(2, 2)")])
def test_curve_rejects_a_mesh_that_is_not_1d(mesh, shape):
    # a scalar was np.diff's ValueError, a 2-D mesh a TypeError
    with pytest.raises(ConfigurationError, match=re.escape(f"must be 1-D, got shape {shape}")):
        cross_section_curve(default_c20_config(), build_grid(16, 0.1), mesh)


def test_a_non_finite_amplitude_fails_at_its_own_energy():
    # q0 underflows to 0 at 5e-324 keV and the q0 border is 0/0 there: the
    # curve fails at that energy, before solving the next ones, and without
    # a RuntimeWarning from forming f out of the NaN
    solved = []
    amplitude = scattering._amplitude

    def recorded(eng, q0, *args):
        solved.append(q0)
        return amplitude(eng, q0, *args)

    mesh = np.geomspace(5e-324, 245.0, 8)
    with pytest.MonkeyPatch.context() as patch, warnings.catch_warnings():
        patch.setattr(scattering, "_amplitude", recorded)
        warnings.simplefilter("error")
        with pytest.raises(NumericalError) as exc:
            cross_section_curve(default_c20_config(), build_grid(16, 0.1), mesh)
    assert str(exc.value) == (
        "at E_cm = 5e-324 keV: elastic amplitude is not finite (gamma = nan MeV^-1)"
    )
    assert solved == [0.0]


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


def dense_amplitude(cfg, grid, E_cm_keV, rounds=0):
    """Reference f (fm) from the full complex (2N+1) system on p + {q0}.

    Unknowns F_n on the N nodes plus q0 and F_c on the N nodes; the on-shell
    column carries the principal-value counter-term and -i pi Mn R q0.  Every
    Born block is built afresh on p + {q0}: nothing is shared with the
    library's elimination of F_c.  E and q0 are rounded as the library
    rounds them: near a node, one ulp of q0 can move f by 1e-8.  rounds
    steps of iterative refinement, with residuals in long double, take the
    solve of this double system close to exact.
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
    A = np.eye(2 * n + 1) - M
    X = np.linalg.solve(A, rhs).astype(np.clongdouble)
    for _ in range(rounds):
        residual = rhs.astype(np.clongdouble) - A.astype(np.clongdouble) @ X
        X += np.linalg.solve(A, residual.astype(complex))
    return complex(-math.pi * Mn * R * complex(X[n]) * HBAR_C)


@pytest.mark.parametrize("count", [32, 96])
@pytest.mark.parametrize("eps2", [150.0, 250.0])
def test_amplitude_matches_dense_complex_system(calibrated_c20, count, eps2):
    # the real (N+1) Schur solve plus Sherman-Morrison is an exact rewrite
    # of the complex (2N+1) system: only rounding may separate them
    cfg, g = c20(calibrated_c20, eps2), build_grid(count, 0.1)
    for pt in cross_section_curve(cfg, g, curve_mesh(eps2, 20)).points:
        ref = dense_amplitude(cfg, g, pt.E_cm_keV)
        assert abs(pt.amplitude_fm / ref - 1.0) <= 1e-11, pt.E_cm_keV


@pytest.mark.parametrize(
    "node, rel, bound", [(8, 1e-5, 5e-11), (8, -1e-5, 5e-11), (14, 1e-5, 4e-8)]
)
def test_amplitude_near_a_node_matches_the_refined_dense_system(node, rel, bound):
    # with q0 near a node D's entry there is large, and forming 1 + P D
    # loses accuracy that the refinement step of Y[q0] wins back.  Distance
    # from the refined dense oracle: 2.3e-11, 2.2e-11 and 9.9e-9 with the
    # step, 1.3e-10, 1.0e-10 and 1.6e-7 without it, 2.9e-10, 1.9e-10 and
    # 3.0e-7 with its (D Y).r term's sign flipped; each bound is 2x from both
    cfg, g = default_c20_config(150.0, 1.0), build_grid(32, 0.1)
    eng = _Engine(cfg, g)
    E = eng.p[node] ** 2 / (2.0 * eng.M_n) * KEV_PER_MEV * (1.0 + rel)
    f = cross_section_curve(cfg, g, [E]).points[0].amplitude_fm
    assert abs(f / dense_amplitude(cfg, g, E, rounds=4) - 1.0) <= bound


def test_elastic_unitarity_to_rounding(grid, calibrated_c20):
    # Im(1/f) = -k holds by construction of the Sherman-Morrison step
    cfg = c20(calibrated_c20, 250.0)
    assert max(unitarity_residuals(cfg, grid, curve_mesh(250.0, 20))) <= 1e-12


def count_grid_exchanges(monkeypatch, n):
    """Count _Exchange constructions over a full n x n momentum grid."""
    built = []
    init = _engine._Exchange.__init__

    def counting_init(self, q, qp, *args):
        built.append(np.broadcast(q, qp).shape == (n, n))
        init(self, q, qp, *args)

    monkeypatch.setattr(_engine._Exchange, "__init__", counting_init)
    return built


def test_curve_builds_one_grid_exchange_pair(monkeypatch, calibrated_c20):
    g = build_grid(48, 0.1)
    built = count_grid_exchanges(monkeypatch, g.count)
    cross_section_curve(c20(calibrated_c20, 250.0), g, curve_mesh(250.0, 12))
    # Z_nn and Z_nc once over the grid, and over the q0 borders of the 12
    # energies, one chunk at N = 48, Z_nn's column and the Z_nn and Z_nc rows
    assert sum(built) == 2 and len(built) == 5


def identical_bosons():
    """A = 1 with a bound n-core pair (250 keV) and a virtual n-n pair
    (a = -18.5 fm), both at beta 1 fm^-1: Z_nn and Z_nc are one block."""
    return parse_system_config({
        "core_mass_number": 1,
        "nc": {"pole": "bound", "beta_inv_fm": 1.0, "epsilon2_keV": 250.0},
        "nn": {"pole": "virtual", "beta_inv_fm": 1.0, "scattering_length_fm": -18.5},
    })


@pytest.mark.parametrize("count", [32, 96])
def test_a_border_evaluates_only_the_entries_the_solve_reads(monkeypatch, count):
    # per energy, Z_nn on the column (p + {q0}, q0) and Z_nn and Z_nc on the
    # row (q0, p): 3N+1 entries, and 2N+1 for identical bosons, whose two
    # rows are one evaluation.  Z_nc's column is never read by the solve
    evaluated = []
    evaluate = _engine._Exchange.__call__

    def counted(self, E, out=None):
        if self.shape != (count, count):
            evaluated.append(math.prod(self.shape))
        return evaluate(self, E, out=out)

    monkeypatch.setattr(_engine._Exchange, "__call__", counted)
    mesh = np.geomspace(0.05, 200.0, 7)
    for config, entries in ((default_c20_config(), 3 * count + 1),
                            (identical_bosons(), 2 * count + 1)):
        evaluated.clear()
        cross_section_curve(config, build_grid(count, 0.1), mesh)
        assert sum(evaluated) == entries * len(mesh), config.core_mass_number


def test_curve_and_spectrum_share_one_core_elimination(monkeypatch, calibrated_c20):
    # the scattering's P and the spectrum's M both come from
    # _Engine.core_eliminated: once per energy of a curve, and once per
    # eigen-evaluation (eigen-solve or inertia count) of a level search or scan
    calls = dict.fromkeys(("core_eliminated", "eigenvalues", "count_above_one"), 0)

    def counting(name, method):
        def counted(self, *args, **kwargs):
            calls[name] += 1
            return method(self, *args, **kwargs)

        return counted

    # both layers' engines inherit core_eliminated; the eigen-solves are the spectrum's
    for cls, name in ((_engine._Engine, "core_eliminated"), (_Engine, "eigenvalues"),
                      (_Engine, "count_above_one")):
        monkeypatch.setattr(cls, name, counting(name, getattr(cls, name)))
    g = build_grid(48, 0.1)
    cross_section_curve(c20(calibrated_c20, 250.0), g, curve_mesh(250.0, 12))
    assert calls == {"core_eliminated": 12, "eigenvalues": 0, "count_above_one": 0}
    calls.update(dict.fromkeys(calls, 0))
    spec = spectrum.find_trimers(c20(calibrated_c20, 150.0), g, (1e-3, 1e5))
    assert spec.levels and calls["count_above_one"] == 0
    assert calls["core_eliminated"] == calls["eigenvalues"] > 0
    calls.update(dict.fromkeys(calls, 0))
    scan = spectrum.threshold_scan(calibrated_c20, np.geomspace(1.0, 400.0, 12), g)
    assert scan.crossings and calls["count_above_one"] == 12
    assert calls["core_eliminated"] == calls["eigenvalues"] + calls["count_above_one"]


def test_hidden_nn_pole_is_numerical_error_in_both_layers():
    # a virtual nn pair with a = -0.1 fm and beta = 1 fm^-1 has |kappa_B| >
    # 2 beta: tau_nn has a bound pole on the physical sheet near -2.65 GeV
    # and is positive below threshold.  The level search refused it; the
    # curve, which eliminates the core by the same check, refuses it too
    cfg = SystemConfig(
        18,
        PairChannel(ChannelLabel.neutron_core, PoleKind.bound, 1.0, epsilon2_keV=250.0),
        PairChannel(ChannelLabel.neutron_neutron, PoleKind.virtual, 1.0,
                    scattering_length_fm=-0.1),
    )
    g = build_grid(32, 0.1)
    eng = _Engine(cfg, g)
    z = -np.geomspace(1e-3, 1e3, 13)  # MeV
    assert np.all(two_body_propagator(eng.config.nn_channel, eng.mu_nn, z).real > 0)
    reason = "propagator changed sign below threshold"
    with pytest.raises(NumericalError, match=f"^{reason}$"):
        eng.eigenvalues(-1.0)
    with pytest.raises(NumericalError, match=f"^at E_cm = 0.05 keV: {reason}$"):
        cross_section_curve(cfg, g, [0.05, 1.0])


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
