import gc
import math
import re
import warnings
import weakref
from dataclasses import replace

import numpy as np
import pytest
from scipy.optimize import brentq

from conftest import unitary_boson_config
from trihalo.errors import ConfigurationError, DomainError, NumericalError
from trihalo.model import (
    ChannelLabel,
    PairChannel,
    PoleKind,
    SystemConfig,
    boron19_config,
    default_c20_config,
    parse_system_config,
    resolve_config,
)
from trihalo.quadrature import build_grid
from trihalo.spectrum import (
    ResonantPairs,
    ScaleFactor,
    _brentq,
    _Engine,
    build_kernel,
    calibrate_range_parameter,
    efimov_scale_factor,
    find_trimers,
    threshold_scan,
)


# --- kernel ----------------------------------------------------------------


def test_kernel_real_and_subcritical_far_below(grid):
    cfg = default_c20_config()  # beta_nc = 1.0 default
    K = build_kernel(cfg, grid, -100.0)
    assert K.matrix.dtype == np.float64
    radius = np.max(np.abs(np.linalg.eigvals(K.matrix)))
    assert radius < 1.0


def test_real_kernel_owns_a_contiguous_float_matrix(grid):
    # a copy of the complex assembly's real part, not a view that keeps it alive
    K = build_kernel(default_c20_config(), grid, -2.0).matrix
    assert K.dtype == np.float64 and K.flags.c_contiguous and K.flags.owndata


def test_kernel_on_cut_error(grid):
    cfg = default_c20_config()
    with pytest.raises(DomainError, match="scattering"):
        build_kernel(cfg, grid, -0.1)  # above the dimer threshold at -0.25 MeV


@pytest.mark.parametrize(
    "E", [math.nan, math.inf, -math.inf, complex(math.nan, 0.0), complex(-1.0, math.inf)]
)
def test_kernel_at_a_non_finite_energy_is_a_domain_error(grid, E):
    # raised before any assembly: no all-NaN K and no RuntimeWarning
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DomainError, match="not finite"):
            build_kernel(default_c20_config(), grid, E)


def test_kernel_schwarz_reflection(grid):
    cfg = default_c20_config()
    z = complex(-1.0, 0.5)
    up = build_kernel(cfg, grid, z).matrix
    dn = build_kernel(cfg, grid, z.conjugate()).matrix
    assert np.allclose(dn, up.conjugate(), rtol=1e-12, atol=1e-300)


def test_kernel_identical_boson_reduction():
    cfg = unitary_boson_config(a_fm=-500.0, beta_inv_fm=1.0)
    g = build_grid(48, 0.5)
    K = build_kernel(cfg, g, -2.0)
    n = g.count
    # with all three pairs identical the two exchange blocks coincide ...
    assert np.array_equal(K.matrix[:n, :n], K.matrix[:n, n:])
    # ... and the coupled system reduces to the single-amplitude kernel 2*K_nn
    lam_full = np.max(np.linalg.eigvals(K.matrix).real)
    lam_single = np.max(np.linalg.eigvals(2.0 * K.matrix[:n, :n]).real)
    assert lam_full == pytest.approx(lam_single, rel=1e-9)


def assert_same_determinant(K, reduced):
    """det(1 - K) by LU of the 2N x 2N K equals det(1 - M) from M's eigenvalues."""
    sign, logdet = np.linalg.slogdet(np.eye(len(K)) - K)
    d = 1.0 - reduced
    assert np.prod(np.sign(d)) == sign
    assert abs(np.sum(np.log(np.abs(d))) - logdet) <= 1e-12


def count_above_one(K):
    """Eigenvalues of the 2N x 2N kernel matrix K above 1, from LAPACK's geev."""
    return int(np.sum(np.linalg.eigvals(K).real > 1.0))


@pytest.mark.parametrize(
    "system, grid_args, E",
    [
        ("c20", (96, 0.1), -0.3),
        ("c20", (96, 0.1), -1.0),
        ("c20", (96, 0.1), -100.0),
        ("boson", (160, 0.03), -1e-6),
        ("boson", (160, 0.03), -1.0),
    ],
)
def test_kernel_matrix_and_symmetric_solve_agree(system, grid_args, E):
    # build_kernel's non-symmetric 2N x 2N K and the engine's reduced N x N M
    # are two assemblies of one determinant, det(1 - K) = det(1 - M), with as
    # many eigenvalues above 1 (M's other eigenvalues are its own)
    cfg = default_c20_config() if system == "c20" else unitary_boson_config()
    g = build_grid(*grid_args)
    K = build_kernel(cfg, g, E).matrix
    eng = _Engine(cfg, g)
    reduced = eng.eigenvalues(E)
    assert_same_determinant(K, reduced)
    assert int(np.sum(reduced > 1.0)) == eng.count_above_one(E) == count_above_one(K)


@pytest.mark.parametrize(
    "system, grid_args, energies",
    [
        ("c20", (96, 0.1), (-0.3, -1.0, -100.0)),
        ("boson", (160, 0.03), (-1e-6, -1.0, complex(-1.0, 0.5))),
    ],
)
def test_engine_cached_blocks_equal_fresh_blocks(system, grid_args, energies):
    # the engine builds its exchange blocks once and reuses them at every
    # energy; they must not differ by one bit from blocks built afresh
    cfg = default_c20_config() if system == "c20" else unitary_boson_config()
    eng = _Engine(cfg, build_grid(*grid_args))
    for E in energies:
        for cached, fresh in zip(eng.born_blocks(E), _Engine(cfg, eng.grid).born_blocks(E)):
            assert np.array_equal(cached, fresh)
    if system == "boson":
        # identical pairs: the whole diagonal takes the confluent branch
        for z in eng._exchange:
            assert sum(d[0].size for *_, (d, *_) in z.blocks) >= eng.grid.count


@pytest.mark.parametrize("system", ["c20_scan", "boson"])
def test_inertia_count_equals_eigen_count(calibrated_c20, system):
    # Sylvester and Haynsworth: the positive eigenvalues of D in
    # M - 1 = L D L^T are as many as the eigenvalues of K above 1
    eps2 = np.geomspace(1e-3, 400.0, 16)
    if system == "c20_scan":
        base = _Engine(calibrated_c20, build_grid(64, 0.1))
        cases = [(base.with_epsilon2(e), -e / 1e3) for e in eps2]
    else:
        eng = _Engine(unitary_boson_config(), build_grid(160, 0.03))
        cases = [(eng, E) for E in -np.geomspace(1e-9, 1e3, 5)]
    counts = [eng.count_above_one(E) for eng, E in cases]
    eigen = [count_above_one(build_kernel(eng.config, eng.grid, E).matrix) for eng, E in cases]
    assert counts == eigen
    assert len(set(counts)) >= 3  # the points span several counts
    if system == "c20_scan":  # the scan's excited counts leave out the ground state
        scan = threshold_scan(calibrated_c20, eps2, base.grid)
        assert [p.bound_excited_count for p in scan.points] == [max(c - 1, 0) for c in eigen]


@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_count_of_non_finite_kernel_is_numerical_error(grid, monkeypatch, bad):
    # dsytrf does not check its input: the assembly must
    born_blocks = _Engine.born_blocks

    def spoiled(self, E):
        Znn, Znc = born_blocks(self, E)
        Znn = Znn.copy()
        Znn[3, 5] = bad
        return Znn, Znc

    monkeypatch.setattr(_Engine, "born_blocks", spoiled)
    with pytest.raises(NumericalError, match="not finite"):
        _Engine(default_c20_config(), grid).count_above_one(-1.0)


# --- determinant surrogate -------------------------------------------------


# 1 - lambda_max(E): a monotone surrogate of det(1 - K(E)) whose sign
# changes bracket the ground trimer


def test_determinant_far_detuning_limit(grid):
    eng = _Engine(default_c20_config(), grid)
    assert 1.0 - eng.eigenvalues(-1e6)[0] == pytest.approx(1.0, abs=1e-3)


def test_determinant_domain_error(grid):
    eng = _Engine(default_c20_config(), grid)
    with pytest.raises(DomainError):
        eng.eigenvalues(-0.1)


def test_determinant_bracket_and_bisection(grid, calibrated_c20):
    cfg = calibrated_c20
    eng = _Engine(cfg, grid)
    lo, hi = -20.0, -0.25  # ground state near -4.16 MeV
    d_lo = 1.0 - eng.eigenvalues(lo)[0]
    d_hi = 1.0 - eng.eigenvalues(hi)[0]
    assert d_lo > 0 > d_hi
    root = brentq(lambda E: 1.0 - eng.eigenvalues(E)[0], lo, hi, rtol=1e-12)
    spec = find_trimers(cfg, grid, search_window=(1e-3, 2e4), max_states=1)
    assert -root * 1000.0 == pytest.approx(spec.levels[0].epsilon3_keV, rel=1e-8)


def test_determinant_continuity(grid, calibrated_c20):
    # on K's leading eigenvalue, equal to S's; M's own is steeper near the
    # threshold, but its determinant is K's at every mesh point
    E = np.linspace(-8.0, -0.3, 25)
    eng = _Engine(calibrated_c20, grid)
    vals = []
    for e in E:
        K = build_kernel(calibrated_c20, grid, e).matrix
        vals.append(1.0 - np.max(np.linalg.eigvals(K).real))
        assert_same_determinant(K, eng.eigenvalues(e))
    assert all(np.isfinite(vals))
    assert max(abs(np.diff(vals))) < 0.6  # no jumps on a modest mesh


# --- spectra ---------------------------------------------------------------


def test_find_trimers_max_states(grid, calibrated_c20):
    cfg = replace(
        calibrated_c20,
        nc_channel=replace(
            calibrated_c20.nc_channel, epsilon2_keV=100.0, scattering_length_fm=None
        ),
    )
    spec = find_trimers(cfg, grid, search_window=(1e-3, 2e4), max_states=1)
    assert len(spec.levels) == 1 and spec.levels[0].index == 0
    full = find_trimers(cfg, grid, search_window=(1e-3, 2e4), max_states=8)
    assert len(full.levels) >= 2  # ground + first excited below the n+dimer threshold
    energies = [lv.epsilon3_keV for lv in full.levels]
    assert all(a > b for a, b in zip(energies, energies[1:]))


def test_find_trimers_window_keeps_absolute_indices(unitary_boson_spectrum):
    all_levels = {lv.index: lv.epsilon3_keV for lv in unitary_boson_spectrum.levels}
    g = build_grid(160, 0.03)
    windowed = find_trimers(
        unitary_boson_spectrum.config_snapshot, g,
        search_window=(1.0, 1e4), max_states=6,
    )
    got = {lv.index: lv.epsilon3_keV for lv in windowed.levels}
    assert set(got) == {1, 2}
    for idx, e in got.items():
        assert e == pytest.approx(all_levels[idx], rel=1e-9)


def test_find_trimers_empty_spectrum_is_valid(grid):
    weak = resolve_config(
        SystemConfig(
            core_mass_number=17,
            nc_channel=PairChannel(
                ChannelLabel.neutron_core, PoleKind.virtual, 1.0,
                scattering_length_fm=-3.0,
            ),
            nn_channel=PairChannel(
                ChannelLabel.neutron_neutron, PoleKind.virtual, 1.0,
                scattering_length_fm=-3.0,
            ),
        )
    )
    spec = find_trimers(weak, grid, search_window=(1e-3, 1e6), max_states=4)
    assert spec.levels == ()
    # a window wholly inside the n+dimer continuum (eps2 = 250 keV) holds no level
    spec = find_trimers(default_c20_config(), grid, search_window=(1.0, 100.0))
    assert spec.levels == ()


def test_find_trimers_infinite_window_is_configuration_error():
    # it reached the kernel at E = -inf MeV: a NumericalError
    with pytest.raises(ConfigurationError, match="search_window"):
        find_trimers(default_c20_config(), build_grid(32, 0.1), (1e-3, math.inf))


def test_unitary_ladder_eigen_evaluations(monkeypatch):
    # the 4 levels found by a brentq search in E (39 eigen-evaluations)
    reference = (656921.2386014104, 1232.98308128956, 2.3297231945925807,
                 0.0020643591720265583)
    calls = []
    eigenvalues = _Engine.eigenvalues

    def counted(self, E):
        calls.append(E)
        return eigenvalues(self, E)

    monkeypatch.setattr(_Engine, "eigenvalues", counted)
    spec = find_trimers(
        unitary_boson_config(), build_grid(160, 0.03),
        search_window=(1e-6, 1e9), max_states=6,
    )
    assert [lv.index for lv in spec.levels] == [0, 1, 2, 3]
    for lv, ref in zip(spec.levels, reference):
        assert lv.epsilon3_keV == pytest.approx(ref, rel=1e-10)
    # the 2 window ends, then per level brentq's 2 bracket ends (solved
    # again) and at most 8 Brent steps from the tightest known bracket
    assert len(calls) <= 2 + 4 * (2 + 8)


def test_find_trimers_releases_engine(grid, calibrated_c20, monkeypatch):
    # brentq's NaN guard is a self-referencing closure; only the cyclic GC
    # would free what the objective reaches unless find_trimers drops it
    engines = []
    eigenvalues = _Engine.eigenvalues

    def recorded(self, E):
        engines.append(weakref.ref(self))
        return eigenvalues(self, E)

    monkeypatch.setattr(_Engine, "eigenvalues", recorded)
    gc.disable()
    try:
        spec = find_trimers(calibrated_c20, grid, (1e-3, 2e4), max_states=1)
        assert len(spec.levels) == 1
        assert engines and all(ref() is None for ref in engines)
    finally:
        gc.enable()


@pytest.mark.parametrize("search", ["calibration", "scan"])
def test_calibration_and_scan_release_engines(grid, calibrated_c20, monkeypatch, search):
    # as for find_trimers: with the GC off, no engine outlives its search
    engines = []

    def recording(method):
        def recorded(self, E):
            engines.append(weakref.ref(self))
            return method(self, E)

        return recorded

    # the scan's points only count; its bisection takes eigenvalues
    for name in ("eigenvalues", "count_above_one"):
        monkeypatch.setattr(_Engine, name, recording(getattr(_Engine, name)))
    gc.disable()
    try:
        if search == "scan":
            scan = threshold_scan(calibrated_c20, np.geomspace(100.0, 400.0, 4), grid)
            assert len(scan.crossings) == 1
        else:
            calibrate_range_parameter(default_c20_config(), grid, target_epsilon2_star_keV=220.0)
        assert engines and all(ref() is None for ref in engines)
    finally:
        gc.enable()


@pytest.mark.parametrize(
    "f, match",
    [
        (lambda x: math.nan, "NaN"),
        # root at 0 with xtol 1e-300: ~1000 halvings, over the 200 allowed
        (lambda x: math.copysign(abs(x) ** 0.1, x), "converge"),
    ],
)
def test_root_search_failure_is_numerical_error(f, match):
    with pytest.raises(NumericalError, match=match):
        _brentq(f, -1.0, 2.3, xtol=1e-300, rtol=1e-15)


def test_find_trimers_non_finite_kernel_is_numerical_error():
    # at eps3 = 1e300 keV the exchange blocks of the A=1 system overflow
    with np.errstate(all="ignore"), pytest.raises(NumericalError, match="kernel at E"):
        find_trimers(unitary_boson_config(), build_grid(48, 0.1), (1e-9, 1e300))


def test_root_search_passes_configuration_errors():
    def f(x):
        raise DomainError("outside")

    with pytest.raises(DomainError):
        _brentq(f, 0.0, 1.0)


def test_grid_refinement_stability(calibrated_c20):
    fine = build_grid(192, 0.1)
    coarse = build_grid(96, 0.1)
    e_coarse = find_trimers(
        calibrated_c20, coarse, (1e-3, 2e4), max_states=1
    ).levels[0].epsilon3_keV
    e_fine = find_trimers(
        calibrated_c20, fine, (1e-3, 2e4), max_states=1
    ).levels[0].epsilon3_keV
    assert abs(e_fine / e_coarse - 1.0) < 1e-3


def test_root_refinement_tolerance(grid, calibrated_c20):
    spec = find_trimers(calibrated_c20, grid, (1e-3, 2e4), max_states=1)
    E_root = -spec.levels[0].epsilon3_keV / 1000.0
    ev = _Engine(calibrated_c20, grid).eigenvalues(E_root)
    assert abs(ev[0] - 1.0) < 1e-8


# --- scale factor ----------------------------------------------------------


def test_scale_factor_identical_bosons():
    sf = efimov_scale_factor(1.0, ResonantPairs.all_three)
    assert sf.s0 == pytest.approx(1.00624, abs=2e-5)
    assert sf.energy_ratio == pytest.approx(math.exp(2 * math.pi / sf.s0), rel=0)
    assert abs(sf.energy_ratio - 515.0) < 0.1


def test_scale_factor_matches_classic_boson_equation():
    # independent anchor: s cosh(pi s/2) = (8/sqrt(3)) sinh(pi s/6)
    f = lambda s: s * math.cosh(math.pi * s / 2) - (8 / math.sqrt(3)) * math.sinh(
        math.pi * s / 6
    )
    s_ref = brentq(f, 0.5, 2.0, xtol=1e-14)
    sf = efimov_scale_factor(1.0, ResonantPairs.all_three)
    assert sf.s0 == pytest.approx(s_ref, abs=1e-10)


def test_scale_factor_root_residual():
    from trihalo.spectrum import _scale_equation

    for A in (1.0, 18.0, 17.0):
        for mode in ResonantPairs:
            sf = efimov_scale_factor(A, mode)
            assert abs(_scale_equation(A, mode)(sf.s0)) < 1e-12


@pytest.mark.parametrize(
    "A, mode",
    [
        (1.0, ResonantPairs.all_three),
        (18.0, ResonantPairs.all_three),
        (1.0, ResonantPairs.nc_only),
        (18.0, ResonantPairs.nc_only),
    ],
)
def test_scale_factor_bits_equal_direct_brentq(A, mode):
    from trihalo.spectrum import _scale_equation

    g = _scale_equation(A, mode)
    s_hi = 1.0
    while g(s_hi) < 0.0:
        s_hi *= 2.0
    s_ref = brentq(g, 1e-8, s_hi, xtol=1e-15, rtol=8.9e-16, maxiter=300)
    assert efimov_scale_factor(A, mode).s0 == s_ref


def test_scale_factor_nc_only_known_value():
    sf = efimov_scale_factor(1.0, ResonantPairs.nc_only)
    assert sf.s0 == pytest.approx(0.4137, abs=2e-4)


def test_scale_factor_continuity_in_mass_ratio():
    # s0(A) is steep near A = 1 in the single-pair mode, so check
    # continuity by step refinement instead of a hard jump cap: halving
    # the mesh step should roughly halve the largest relative jump
    for mode in ResonantPairs:
        jumps = {}
        for step in (0.5, 0.25):
            A = np.arange(1.0, 30.0 + step / 2, step)
            s = np.array([efimov_scale_factor(float(a), mode).s0 for a in A])
            assert np.all(np.diff(s) > 0) or np.all(np.diff(s) < 0)
            jumps[step] = np.max(np.abs(np.diff(s)) / s[:-1])
        ratio = jumps[0.25] / jumps[0.5]
        assert 0.3 < ratio < 0.7


def test_scale_factor_found_where_sinh_cosh_and_exp_overflow():
    # cosh(pi s / 2) overflows on the way to s0 ~ 401 at A = 1e-6, and
    # exp(2 pi / s0) overflows for nc_only once s0 < 8.85e-3 (A >~ 82)
    from trihalo.spectrum import _scale_equation

    cases = [(1e-6, mode) for mode in ResonantPairs]
    cases += [(100.0, ResonantPairs.nc_only), (1e4, ResonantPairs.nc_only)]
    for A, mode in cases:
        sf = efimov_scale_factor(A, mode)
        assert isinstance(sf, ScaleFactor) and sf.s0 > 0
        assert abs(_scale_equation(A, mode)(sf.s0)) < 1e-12
    assert efimov_scale_factor(1e-6).s0 == pytest.approx(401.03, rel=1e-4)
    sf = efimov_scale_factor(100.0, ResonantPairs.nc_only)
    assert sf.s0 == pytest.approx(0.0072786, rel=1e-4)
    assert sf.energy_ratio == math.inf


def test_scale_factor_validation():
    for bad in (-1.0, math.nan, math.inf):
        with pytest.raises(ConfigurationError, match="mass_ratio"):
            efimov_scale_factor(bad)


@pytest.mark.parametrize("mode", ["nc_only", "all_three", "bogus"])
def test_scale_factor_rejects_a_string_mode(mode):
    # a string compares unequal to ResonantPairs.nc_only: "nc_only" gave the
    # all_three s0 (1.11511 at A = 18, not 0.0387340) without an error
    with pytest.raises(ConfigurationError, match=f"resonant_pairs .*'{mode}'"):
        efimov_scale_factor(18.0, mode)


# --- threshold scan and calibration ---------------------------------------


@pytest.mark.parametrize("target", [200.0, 300.0])
def test_calibrated_scan_meets_the_scan_workload_checks(target):
    # the `scan` benchmark workload at the ends of its target range, with
    # its checks: eps2*(1) within 0.1 keV of the target, bound-excited
    # counts that never increase with eps2, and K(E) with an eigenvalue
    # within 1e-9 of 1 at each crossing
    g = build_grid(160, 0.1)
    calibrated = calibrate_range_parameter(default_c20_config(), g, target)
    scan = threshold_scan(calibrated, np.geomspace(1e-3, 400.0, 40), g)
    (first,) = [c.epsilon2_star_keV for c in scan.crossings if c.state_index == 1]
    assert abs(first - target) <= 0.1
    counts = [p.bound_excited_count for p in scan.points]
    assert counts == sorted(counts, reverse=True)
    for c in scan.crossings:
        nc = replace(calibrated.nc_channel, epsilon2_keV=c.epsilon2_star_keV,
                     scattering_length_fm=None)
        K = build_kernel(replace(calibrated, nc_channel=nc), g, -c.epsilon2_star_keV / 1000.0)
        assert np.min(np.abs(np.linalg.eigvals(K.matrix) - 1.0)) <= 1e-9, c


def test_threshold_scan_counts_and_first_crossing(grid, calibrated_c20):
    scan = threshold_scan(calibrated_c20, np.array([50.0, 150.0, 230.0, 300.0]), grid)
    counts = [p.bound_excited_count for p in scan.points]
    assert counts == sorted(counts, reverse=True)
    assert counts[0] >= 1 and counts[-1] == 0
    stars = {c.state_index: c.epsilon2_star_keV for c in scan.crossings}
    assert stars[1] == pytest.approx(220.0, abs=0.1)


def test_threshold_scan_crossings_follow_efimov_scaling():
    # An independent oracle: with the nn pair at unitarity and short-range
    # (beta = 20 fm^-1) pairs, consecutive crossings away from the range
    # scale approach exp(2 pi / s0) of the all-resonant A = 18 equation
    # (Braaten & Hammer, Phys. Rep. 428, 259 (2006)).  Measured ratios
    # 294.05, 281.03, 280.036 against 279.940.
    cfg = parse_system_config({
        "core_mass_number": 18,
        "nc": {"pole": "bound", "beta_inv_fm": 20.0, "epsilon2_keV": 1.0},
        "nn": {"pole": "virtual", "beta_inv_fm": 20.0, "epsilon2_keV": 0.0},
    })
    scan = threshold_scan(cfg, np.geomspace(1e-7, 2e4, 80), build_grid(160, 0.03))
    stars = [c.epsilon2_star_keV for c in scan.crossings]
    assert len(stars) == 4
    ratios = [a / b for a, b in zip(stars, stars[1:])]
    assert ratios[0] > ratios[1] > ratios[2]
    universal = efimov_scale_factor(18.0).energy_ratio
    assert ratios[2] == pytest.approx(universal, rel=1e-3)


def test_threshold_scan_validation(grid, calibrated_c20):
    with pytest.raises(ConfigurationError):
        threshold_scan(calibrated_c20, np.array([300.0, 100.0]), grid)
    with pytest.raises(ConfigurationError):
        threshold_scan(calibrated_c20, np.array([-5.0, 100.0]), grid)


@pytest.mark.parametrize("values, shape", [([[1.0, 2.0]], "(1, 2)"), (100.0, "()")])
def test_threshold_scan_rejects_values_that_are_not_1d(calibrated_c20, values, shape):
    # a row of values was numpy's ambiguous-truth ValueError, a scalar np.diff's
    with pytest.raises(ConfigurationError, match=re.escape(f"must be 1-D, got shape {shape}")):
        threshold_scan(calibrated_c20, np.array(values), build_grid(16, 0.1))


@pytest.mark.parametrize("search", ["calibration", "scan"])
def test_calibration_and_scan_reject_a_virtual_nc_channel(search):
    # a virtual n-core channel has no n+dimer threshold (the engine's threshold is 0 MeV)
    g = build_grid(48, 0.1)
    with pytest.raises(ConfigurationError, match="requires a bound n-core channel"):
        if search == "scan":
            threshold_scan(boron19_config(), np.geomspace(1e-3, 400.0, 8), g)
        else:
            calibrate_range_parameter(boron19_config(), g)


def test_calibration_and_scan_solver_work(monkeypatch):
    # the eigen-solves and inertia counts calibration and scan make at N = 64
    calls = dict.fromkeys(("eigenvalues", "count_above_one"), 0)

    def counting(name, method):
        def counted(self, E):
            calls[name] += 1
            return method(self, E)

        return counted

    for name in calls:
        monkeypatch.setattr(_Engine, name, counting(name, getattr(_Engine, name)))
    g = build_grid(64, 0.1)
    calibrated = calibrate_range_parameter(default_c20_config(), g, 220.0)
    assert calls["eigenvalues"] <= 16 and calls["count_above_one"] == 0
    calls.update(eigenvalues=0)
    scan = threshold_scan(calibrated, np.geomspace(1e-3, 400.0, 16), g)
    assert len(scan.crossings) == 2
    assert calls["eigenvalues"] <= 16 and calls["count_above_one"] <= 16


@pytest.mark.parametrize("target_keV", [1.0, 5000.0])
def test_calibration_without_a_root_in_the_bracket_is_numerical_error(target_keV):
    with pytest.raises(NumericalError):
        calibrate_range_parameter(
            default_c20_config(), build_grid(32, 0.1), target_epsilon2_star_keV=target_keV
        )


def test_calibration_hits_target_within_band(calibrated_c20):
    # sanity band around the nominal 220 keV target
    assert 110.0 <= 220.0 <= 330.0
    assert 0.5 < calibrated_c20.nc_channel.beta_inv_fm < 3.0


# --- 19B -------------------------------------------------------------------


def test_boron19_three_states(grid):
    g = build_grid(160, 0.05)
    ev = _Engine(boron19_config(), g).eigenvalues(-1e-12)
    assert int(np.sum(ev > 1.0)) == 3


def test_boron19_fewer_states_at_small_a(grid):
    g = build_grid(160, 0.05)
    small = boron19_config(a_nc_fm=-10.0)
    ev = _Engine(small, g).eigenvalues(-1e-12)
    assert int(np.sum(ev > 1.0)) < 3


def test_boron19_count_monotone_in_a(grid):
    g = build_grid(160, 0.05)
    base = int(np.sum(_Engine(boron19_config(), g).eigenvalues(-1e-12) > 1.0))
    doubled = int(
        np.sum(_Engine(boron19_config(a_nc_fm=-358.0), g).eigenvalues(-1e-12) > 1.0)
    )
    assert doubled >= base
