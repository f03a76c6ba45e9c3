import math
import re
from dataclasses import astuple, fields

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from trihalo import fanofit
from trihalo.errors import ConfigurationError, FlatDataError, NumericalError
from trihalo.fanofit import (
    MAX_ITERATIONS,
    BreitWignerParameters,
    FanoParameters,
    _amplitude_jacobian,
    _amplitude_value,
    _bw_jacobian,
    _bw_value,
    _fano_jacobian,
    _fano_value,
    auto_seed,
    breit_wigner_profile,
    fano_profile,
    fit,
    q_consistency,
    resonance_window,
)
from trihalo.model import default_c20_config
from trihalo.pipeline import curve_mesh
from trihalo.scattering import cross_section_curve

REF = FanoParameters(sigma0_fm2=1.0, q=4.0, E_r_keV=1.63, Gamma_keV=0.25)


def fano_data(p=REF, n=200, lo=0.5, hi=3.5):
    E = np.linspace(lo, hi, n)
    return E, fano_profile(E, p)


# --- profile identities ----------------------------------------------------

finite_q = st.floats(min_value=0.05, max_value=50.0).flatmap(
    lambda q: st.sampled_from([q, -q])
)


@given(
    sigma0=st.floats(min_value=1e-6, max_value=1e6),
    q=finite_q,
    Er=st.floats(min_value=-100.0, max_value=100.0),
    Gamma=st.floats(min_value=1e-6, max_value=100.0),
)
@settings(max_examples=300)
def test_fano_identities(sigma0, q, Er, Gamma):
    p = FanoParameters(sigma0, q, Er, Gamma)
    assert fano_profile(Er - q * Gamma / 2, p) == pytest.approx(0.0, abs=1e-9 * sigma0)
    peak = fano_profile(Er + Gamma / (2 * q), p)
    assert peak == pytest.approx(sigma0 * (1 + q * q), rel=1e-12)
    assert fano_profile(Er, p) == pytest.approx(sigma0 * q * q, rel=1e-12)


def test_fano_reference_point_and_background():
    assert fano_profile(1.63, REF) == pytest.approx(16.0, rel=1e-12)
    assert fano_profile(1e7, REF) == pytest.approx(1.0, rel=1e-5)


def test_breit_wigner_symmetry_and_peak():
    p = BreitWignerParameters(0.3, 2.0, 5.0, 0.8)
    assert breit_wigner_profile(5.0, p) == pytest.approx(2.3, rel=1e-12)
    for d in (0.1, 0.5, 2.0):
        assert breit_wigner_profile(5.0 + d, p) == pytest.approx(
            breit_wigner_profile(5.0 - d, p), rel=1e-12
        )


def test_large_q_fano_approaches_breit_wigner():
    q = 1000.0
    p = FanoParameters(1.0, q, 0.0, 2.0)
    bw = BreitWignerParameters(1.0, q * q, 0.0, 2.0)
    eps = np.linspace(-5.0, 5.0, 101)
    E = eps * (p.Gamma_keV / 2)
    cross_term = p.sigma0_fm2 * 2 * q * eps / (1 + eps**2)
    diff = fano_profile(E, p) - breit_wigner_profile(E, bw) - cross_term
    assert np.max(np.abs(diff) / breit_wigner_profile(E, bw)) < 0.01


# --- Jacobians -------------------------------------------------------------


def central_diff(value, E, th, scale=1e-3):
    # Richardson-extrapolated central differences: two steps h and h/2
    # combined to cancel the O(h^2) truncation term
    def cd(h):
        J = np.empty((len(E), 4))
        for j in range(4):
            tp, tm = th.copy(), th.copy()
            tp[j] += h[j]
            tm[j] -= h[j]
            J[:, j] = (value(E, tp) - value(E, tm)) / (2 * h[j])
        return J

    h = np.array([scale * max(abs(t), 1.0) for t in th])
    return (4.0 * cd(h / 2) - cd(h)) / 3.0


def test_jacobians_match_central_differences():
    rng = np.random.default_rng(7)
    for value, jac in [
        (_fano_value, _fano_jacobian),
        (_bw_value, _bw_jacobian),
        (_amplitude_value, _amplitude_jacobian),
    ]:
        for _ in range(100):
            th = np.array(
                [
                    rng.uniform(0.5, 5.0),
                    rng.uniform(-8.0, 8.0) if value is _fano_value
                    else rng.uniform(0.5, 5.0),
                    rng.uniform(-2.0, 2.0),
                    rng.uniform(0.2, 3.0),
                ]
            )
            E = rng.uniform(-5.0, 5.0, size=7)
            J = jac(E, th)
            J_fd = central_diff(value, E, th)
            scale = np.maximum(np.abs(J_fd), np.max(np.abs(J_fd)) * 1e-6)
            assert np.max(np.abs(J - J_fd) / scale) < 1e-6


# the Jacobians as column stacks, each column its own expression: the chart
# Jacobians write the same expressions into one array, to the same bits


def fano_jacobian_stacked(E, th):
    s0, q, Er, G = th
    eps = (E - Er) / (G / 2.0)
    denom = 1.0 + eps**2
    F = (q + eps) ** 2 / denom
    dq = 2.0 * s0 * (q + eps) / denom
    deps = 2.0 * s0 * (q + eps) * (1.0 - q * eps) / denom**2
    return np.column_stack([F, dq, deps * (-2.0 / G), deps * (-eps / G)])


def bw_jacobian_stacked(E, ph):
    c, amp, Er, G = ph
    eps = (E - Er) / (G / 2.0)
    denom = 1.0 + eps**2
    deps = -2.0 * amp * eps / denom**2
    return np.column_stack(
        [np.full_like(E, 2.0 * c), 1.0 / denom, deps * (-2.0 / G), deps * (-eps / G)]
    )


def amplitude_jacobian_stacked(E, ph):
    a, b, Er, G = ph
    eps = (E - Er) / (G / 2.0)
    denom = 1.0 + eps**2
    da = 2.0 * (a + b * eps) / denom
    deps = 2.0 * (a + b * eps) * (b - a * eps) / denom**2
    return np.column_stack([da, eps * da, deps * (-2.0 / G), deps * (-eps / G)])


def same_bits(x, y):
    return x.shape == y.shape and np.array_equal(x.view(np.int64), y.view(np.int64))


any_float = st.floats(allow_nan=False, allow_infinity=False)  # subnormals included


@given(
    th=st.lists(any_float, min_size=4, max_size=4),
    E=st.lists(any_float, min_size=1, max_size=8),
    weight=st.floats(min_value=1e-300, max_value=1e300),
)
# a subnormal sigma0: 2 sigma0 (q + eps) rounds differently as 2 (sigma0 (q + eps))
@example(th=[1e-320, 0.3, 0.0, 2.0], E=[0.1, 0.7, 1.3, -0.45], weight=1.0)
@settings(max_examples=300)
def test_jacobians_equal_the_column_stacks_bit_for_bit(th, E, weight):
    # as the fitter uses them too: divided in place by the residual weights
    th, E = np.array(th), np.array(E)
    weights = weight * np.linspace(1.0, 2.0, len(E))[:, None]
    with np.errstate(all="ignore"):
        for jacobian, stacked in [
            (_fano_jacobian, fano_jacobian_stacked),
            (_bw_jacobian, bw_jacobian_stacked),
            (_amplitude_jacobian, amplitude_jacobian_stacked),
        ]:
            J = jacobian(E, th)
            assert J.flags.c_contiguous
            ref = stacked(E, th)
            assert same_bits(J, ref)
            J /= weights
            assert same_bits(J, ref / weights)
# --- fitting ---------------------------------------------------------------


def test_fit_recovers_noise_free_fano():
    E, s = fano_data()
    res = fit(E, s, model="fano")
    assert res.converged
    got = res.params
    for name, ref in [
        ("sigma0_fm2", 1.0), ("q", 4.0), ("E_r_keV", 1.63), ("Gamma_keV", 0.25)
    ]:
        assert abs(getattr(got, name) - ref) < 1e-3 * abs(ref)
    assert res.residual_norm < 1e-8
    cov = res.covariance
    assert np.allclose(cov, cov.T)
    assert np.all(np.linalg.eigvalsh(cov) > -1e-20)


def test_fit_evaluates_the_jacobian_once_per_accepted_step(monkeypatch):
    # the seed's Jacobian, then one per accepted step: the fitter hands the
    # result's residuals and Jacobian back, so fit evaluates neither again
    cls, chart, profile, continuation = fanofit._MODELS["fano"]
    points = []

    def jacobian(E, th):
        points.append(th)
        return chart.jacobian(E, th)

    counted = (cls, chart._replace(jacobian=jacobian), profile, continuation)
    monkeypatch.setitem(fanofit._MODELS, "fano", counted)
    res = fit(*fano_data(), model="fano")
    assert res.converged and res.iterations > 1
    assert len(points) <= res.iterations + 1


def test_fit_breit_wigner_residual_strictly_worse_on_fano_data():
    for q in (4.0, -4.0, 1.5, 8.0):
        p = FanoParameters(1.0, q, 1.63, 0.25)
        E, s = fano_data(p)
        r_fano = fit(E, s, model="fano")
        r_bw = fit(E, s, model="breit_wigner")
        assert r_bw.residual_norm > r_fano.residual_norm


def test_fano_nests_breit_wigner_shape():
    # Fano reaches a zero-background Lorentzian as q -> inf: the fit must get there
    bw = BreitWignerParameters(0.0, 5.0, 1.63, 0.25)
    E = np.linspace(0.5, 3.5, 200)
    s = breit_wigner_profile(E, bw)
    res = fit(E, s, model="fano")
    assert abs(res.params.q) > 50
    assert res.residual_norm < 1e-6
    cov = res.covariance
    assert np.allclose(cov, cov.T)
    assert np.all(np.linalg.eigvalsh(cov) > -1e-20)


def test_breit_wigner_fit_reaches_zero_background():
    # bg = c^2: a zero background is an interior point the fit can reach
    for bg in (0.0, 0.1, 3.0):
        E = np.linspace(0.5, 3.5, 200)
        s = breit_wigner_profile(E, BreitWignerParameters(bg, 5.0, 1.63, 0.25))
        res = fit(E, s, model="breit_wigner")
        assert res.converged and res.iterations < MAX_ITERATIONS
        assert res.residual_norm < 1e-12
        assert res.params.sigma_bg_fm2 == pytest.approx(bg, abs=1e-12)
        assert res.params.amplitude_fm2 == pytest.approx(5.0, rel=1e-12)
        assert res.params.Gamma_keV == pytest.approx(0.25, rel=1e-12)


@pytest.mark.parametrize(
    "model, profile", [("fano", fano_profile), ("breit_wigner", breit_wigner_profile)]
)
def test_fit_result_profile_is_the_models_profile_of_its_params(model, profile):
    E, s = fano_data()
    res = fit(E, s, model=model)
    np.testing.assert_array_equal(res.profile(E), profile(E, res.params))
    assert res.profile(1.7) == profile(1.7, res.params)


def test_fit_at_iteration_cap_is_not_converged():
    # a monotone 1/sqrt(E) curve has no resonance: the Fano fit drifts
    # without meeting its step or gradient test and must say so
    E = np.geomspace(0.05, 245.0, 80)
    res = fit(E, 1e3 / np.sqrt(E), model="fano")
    assert res.iterations >= MAX_ITERATIONS
    assert not res.converged


def test_the_continuation_keeps_a_fit_with_no_breit_wigner_limit_at_the_cap(
    grid, calibrated_c20
):
    # reproduce's calibrated 250 keV curve is monotone: its Fano fit ends at
    # the cap, and the amplitude continuation stops at its first step, which
    # does not halve the cost (run to its own cap, it ends at 1,000)
    cfg = default_c20_config(epsilon2_keV=250.0, beta_nc=calibrated_c20.nc_channel.beta_inv_fm)
    curve = cross_section_curve(cfg, grid, curve_mesh(250.0))
    res = fit(curve.energies_keV, curve.sigmas_fm2, model="fano", window="auto")
    assert res.iterations == MAX_ITERATIONS
    assert not res.converged


# beyond 2^+-256 the fit runs on the data scaled by an exact power of two:
# unscaled, J^T J of the relative residuals over- or underflows there
FAR_SCALES = (1e200, 1e-200, 2.0**700, 2.0**-700)


def test_fit_scale_invariance():
    E, s = fano_data()
    base = fit(E, s, model="fano").params
    for factor in (137.0, *FAR_SCALES):
        scaled = fit(E, factor * s, model="fano").params
        assert scaled.sigma0_fm2 / factor == pytest.approx(base.sigma0_fm2, rel=1e-9)
        assert scaled.q == pytest.approx(base.q, rel=1e-9)
        assert scaled.E_r_keV == pytest.approx(base.E_r_keV, rel=1e-9)
        assert scaled.Gamma_keV == pytest.approx(base.Gamma_keV, rel=1e-9)
    # far below 1 fm^2 too: no absolute floor in the seed may bind
    s = breit_wigner_profile(E, BreitWignerParameters(0.5, 5.0, 1.63, 0.25))
    base = fit(E, s, model="breit_wigner").params
    for factor in (1e-60, 1e-120, *FAR_SCALES):
        res = fit(E, factor * s, model="breit_wigner")
        assert res.converged and res.residual_norm < 1e-12
        assert res.params.sigma_bg_fm2 == pytest.approx(factor * base.sigma_bg_fm2, rel=1e-9)
        assert res.params.amplitude_fm2 == pytest.approx(factor * base.amplitude_fm2, rel=1e-9)
        assert res.params.E_r_keV == pytest.approx(base.E_r_keV, rel=1e-9)
        assert res.params.Gamma_keV == pytest.approx(base.Gamma_keV, rel=1e-9)


def test_fit_energy_shift_equivariance():
    E, s = fano_data()
    base = fit(E, s, model="fano").params
    shifted = fit(E + 11.5, s, model="fano").params
    assert shifted.E_r_keV == pytest.approx(base.E_r_keV + 11.5, rel=1e-9)
    assert shifted.q == pytest.approx(base.q, rel=1e-9)
    assert shifted.Gamma_keV == pytest.approx(base.Gamma_keV, rel=1e-9)
    assert shifted.sigma0_fm2 == pytest.approx(base.sigma0_fm2, rel=1e-9)


def test_fit_preserves_zero_location():
    E, s = fano_data()
    p = fit(E, s, model="fano").params
    zero_ref = REF.E_r_keV - REF.q * REF.Gamma_keV / 2
    zero_fit = p.E_r_keV - p.q * p.Gamma_keV / 2
    assert abs(zero_fit - zero_ref) < 1e-6


@pytest.mark.parametrize(
    "cls, good",
    [(FanoParameters, (1.0, 4.0, 1.63, 0.25)), (BreitWignerParameters, (0.1, 5.0, 1.63, 0.25))],
    ids=["fano", "breit_wigner"],
)
@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf], ids=["nan", "inf", "-inf"])
def test_parameters_reject_every_non_finite_field(cls, good, value):
    cls(*good)
    for i, field in enumerate(fields(cls)):
        with pytest.raises(ConfigurationError, match=f"non-finite {field.name}"):
            cls(*good[:i], value, *good[i + 1:])


def constructs(cls, values) -> bool:
    try:
        cls(*values)
    except ConfigurationError:
        return False
    return True


edge_float = st.sampled_from(
    [math.nan, math.inf, -math.inf, 0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, -1.0]
) | st.floats()


@given(
    cls=st.sampled_from([FanoParameters, BreitWignerParameters]),
    values=st.lists(edge_float, min_size=4, max_size=4),
)
@settings(max_examples=500)
def test_admissible_is_true_exactly_when_the_class_constructs(cls, values):
    assert cls.admissible(*values) is constructs(cls, values)
    # the amplitude chart's b = 0, where q = a / b leaves the float range
    a, _, Er, G = values
    with np.errstate(divide="ignore", invalid="ignore"):
        th = fanofit._AMPLITUDE_CHART.to_params(np.array([a, 0.0, Er, G])).tolist()
    assert not FanoParameters.admissible(*th) and not constructs(FanoParameters, th)


@pytest.mark.parametrize(
    "model, index, value",
    [
        ("fano", 0, 0.0), ("fano", 0, -0.0), ("fano", 3, 0.0), ("fano", 3, -5e-324),
        ("breit_wigner", 0, -5e-324), ("breit_wigner", 1, 0.0), ("breit_wigner", 3, -0.0),
    ],
)
def test_the_class_and_the_fitter_refuse_a_value_on_the_bound(monkeypatch, model, index, value):
    good = {"fano": [1.0, 4.0, 1.63, 0.25], "breit_wigner": [0.1, 5.0, 1.63, 0.25]}[model]
    th = good[:index] + [value] + good[index + 1:]
    cls = fanofit._MODELS[model][0]
    assert constructs(cls, good) and not constructs(cls, th)
    # the fitter's own feasibility test, on a seed at the bound
    monkeypatch.setattr(fanofit, "auto_seed", lambda *args, **kwargs: np.array(th))
    with pytest.raises(ConfigurationError, match=f"infeasible {model} seed"):
        fit(*fano_data(), model=model)


@pytest.mark.parametrize("model", ["fano", "breit_wigner"])
def test_fit_rejects_negative_cross_sections(model):
    E, s = fano_data()
    with pytest.raises(ConfigurationError, match="cross sections >= 0"):
        fit(E, -s - 20.0, model=model)
    s[7] = -1e-9  # one negative point is enough
    with pytest.raises(ConfigurationError, match="cross sections >= 0"):
        fit(E, s, model=model, window="auto")


@pytest.mark.parametrize("model", ["fano", "breit_wigner"])
@pytest.mark.parametrize("column", [0, 1], ids=["E", "sigma"])
@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf], ids=["nan", "inf", "-inf"])
def test_fit_rejects_non_finite_data_naming_the_first_bad_index(model, column, value):
    data = list(fano_data(n=20))
    data[column][[3, 9]] = value
    name = ("energies", "cross sections")[column]
    with pytest.raises(ConfigurationError, match=f"finite {name}, got {value} at index 3$"):
        fit(*data, model=model)


@pytest.mark.parametrize("model", ["fano", "breit_wigner"])
def test_fit_near_float_underflow_is_numerical_error(model):
    # relative residuals divide by subnormal data, so the scaled Jacobian
    # overflows: the result must be an error, not converged=True with an
    # infinite residual or a hang in the covariance's pseudo-inverse
    E = np.linspace(0.5, 3.5, 20)
    with np.errstate(all="ignore"), pytest.raises(NumericalError, match="non-finite"):
        fit(E, 1e-310 * (1.0 + E), model=model)


def test_fit_validation_errors():
    E = np.linspace(0, 1, 20)
    with pytest.raises(FlatDataError):
        fit(E, np.full_like(E, 3.0), model="fano")
    with pytest.raises(ConfigurationError):
        fit(E[:5], np.ones(5), model="fano")
    with pytest.raises(ConfigurationError):
        fit(E[::-1], np.linspace(1, 2, 20), model="fano")
    with pytest.raises(ConfigurationError):
        fit(E, np.linspace(1, 2, 20), model="lorentz")
    with pytest.raises(ConfigurationError, match="window"):
        fit(E, np.linspace(1, 2, 20), model="fano", window="bogus")


NOT_ONE_1D_SHAPE = pytest.mark.parametrize(
    "E, sigma, shapes",
    [
        (np.linspace(1.0, 2.0, 10), np.ones(9), "(10,) and (9,)"),  # was an IndexError
        (np.ones((2, 10)), np.ones((2, 10)), "(2, 10) and (2, 10)"),
        (np.float64(1.0), np.float64(1.0), "() and ()"),
    ],
    ids=["lengths", "2-d", "scalars"],
)


@NOT_ONE_1D_SHAPE
def test_fit_rejects_arrays_that_are_not_one_1d_shape(E, sigma, shapes):
    with pytest.raises(ConfigurationError, match=re.escape(f"of one shape, got {shapes}")):
        fit(E, sigma)


@NOT_ONE_1D_SHAPE
def test_resonance_window_rejects_arrays_that_are_not_one_1d_shape(E, sigma, shapes):
    message = f"resonance_window needs 1-D energies and cross sections of one shape, got {shapes}"
    with pytest.raises(ConfigurationError, match=re.escape(message)):
        resonance_window(E, sigma)


@pytest.mark.parametrize("model", ["fano", "breit_wigner"])
@NOT_ONE_1D_SHAPE
def test_auto_seed_rejects_arrays_that_are_not_one_1d_shape(model, E, sigma, shapes):
    message = f"auto_seed needs 1-D energies and cross sections of one shape, got {shapes}"
    with pytest.raises(ConfigurationError, match=re.escape(message)):
        auto_seed(model, E, sigma)


# q = 1 and Gamma = 0.1 keV: the window (10x the peak-dip gap of 0.1 keV)
# covers about a third of the 200-point mesh on [0.5, 3.5] keV
NARROW = FanoParameters(sigma0_fm2=1.0, q=1.0, E_r_keV=1.63, Gamma_keV=0.1)


def test_fit_window_auto_uses_only_the_window_points():
    E, s = fano_data(NARROW)
    res = fit(E, s, model="fano", window="auto")
    win = res.window
    assert win == resonance_window(E, s) and res.window_mode == "auto"
    np.testing.assert_array_equal(res.mask, (E >= win.lo_keV) & (E <= win.hi_keV))
    assert 8 <= res.mask.sum() < len(E) // 2
    # the same fit as one on the window's points alone, seeded from the window
    Ew, sw = E[res.mask], s[res.mask]
    ref = fit(Ew, sw, model="fano", window="auto")
    assert ref.mask.all()
    assert res.params == ref.params and res.iterations == ref.iterations
    np.testing.assert_array_equal(res.covariance, ref.covariance)
    assert res.converged
    assert res.params.E_r_keV == pytest.approx(NARROW.E_r_keV, rel=1e-6)
    assert res.params.q == pytest.approx(NARROW.q, rel=1e-6)


def test_fit_window_full_uses_every_point():
    E, s = fano_data(NARROW)
    res = fit(E, s, model="fano", window="full")
    assert res.window is None and res.window_mode == "full" and res.mask.all()
    assert res.params == fit(E, s, model="fano").params  # "full" is the default


def test_fit_window_with_fewer_than_8_points_falls_back_to_full():
    # a dip at E[1] and a peak at E[2]: the window, ten mesh steps wide
    # around them, is cut at E[0] and holds 7 of the 50 points
    E = np.linspace(1.0, 10.0, 50)
    s = 1.0 / E
    s[2] *= 1.5
    win = resonance_window(E, s)
    assert win is not None
    assert ((E >= win.lo_keV) & (E <= win.hi_keV)).sum() < 8
    res = fit(E, s, model="fano", window="auto")
    assert res.window == win and res.window_mode == "full" and res.mask.all()


def test_auto_seed_orientation():
    E, s = fano_data()
    win = resonance_window(E, s)
    seed = auto_seed("fano", E, s, window=win)
    assert seed[1] == 2.0  # peak above dip in energy -> positive q
    assert win.dip_keV < seed[2] < win.peak_keV
    mirrored = fano_profile(E, FanoParameters(1.0, -4.0, 1.63, 0.25))
    win2 = resonance_window(E, mirrored)
    assert auto_seed("fano", E, mirrored, window=win2)[1] == -2.0


def test_breit_wigner_window_fit_no_worse_than_full_on_fano_data():
    # the window's peak-dip gap is a Fano width; seeding a Lorentzian with it
    # once ended this fit at the iteration cap with residual 140 against 0.99
    E, s = fano_data()
    auto = fit(E, s, model="breit_wigner", window="auto")
    full = fit(E, s, model="breit_wigner", window="full")
    assert auto.window_mode == "auto" and auto.converged
    assert auto.residual_norm <= full.residual_norm


def test_breit_wigner_seed_ignores_the_window():
    E, s = fano_data(FanoParameters(1.0, -3.0, 2.5, 0.25))
    win = resonance_window(E, s)
    assert win is not None
    np.testing.assert_array_equal(
        auto_seed("breit_wigner", E, s, window=win), auto_seed("breit_wigner", E, s)
    )


def test_q_consistency():
    E, s = fano_data()
    f1 = fit(E, s, model="fano")
    assert q_consistency([f1, f1]) == 0.0
    p5 = FanoParameters(1.0, 5.0, 1.63, 0.25)
    f2 = fit(*fano_data(p5), model="fano")
    assert q_consistency([f1, f2]) == pytest.approx(1.0 / 4.5, rel=1e-3)
    with pytest.raises(ConfigurationError):
        q_consistency([f1])
    bw = fit(E, s, model="breit_wigner")
    with pytest.raises(ConfigurationError, match="offending"):
        q_consistency([f1, bw])


def test_fit_with_noise_recovers_within_tolerance():
    rng = np.random.default_rng(12345)
    E, clean = fano_data()
    errs = []
    for _ in range(20):
        s = clean * (1.0 + 0.01 * rng.standard_normal(len(clean)))
        s = np.clip(s, 1e-12, None)
        p = fit(E, s, model="fano").params
        errs.append(
            max(
                abs(p.sigma0_fm2 - 1.0),
                abs(p.q - 4.0) / 4.0,
                abs(p.E_r_keV - 1.63) / 1.63,
                abs(p.Gamma_keV - 0.25) / 0.25,
            )
        )
    assert np.median(errs) < 0.05


def test_reported_variances_match_the_scatter_of_noisy_fits():
    # the covariance is the residual variance over len(E) - 4 degrees of
    # freedom times (J^T J)^-1: over 300 draws of 1% noise on 12 points its
    # diagonal must agree with the sample variance of the fitted parameters
    rng = np.random.default_rng(7)
    E = np.linspace(0.5, 3.5, 12)
    for model, clean in (
        ("fano", fano_profile(E, REF)),
        ("breit_wigner", breit_wigner_profile(E, BreitWignerParameters(1.0, 5.0, 1.63, 0.4))),
    ):
        fits = [
            fit(E, clean * (1.0 + 0.01 * rng.standard_normal(len(E))), model=model)
            for _ in range(300)
        ]
        sample = np.array([astuple(f.params) for f in fits]).var(axis=0, ddof=1)
        reported = np.mean([np.diag(f.covariance) for f in fits], axis=0)
        ratio = reported / sample
        assert np.all((ratio >= 0.8) & (ratio <= 1.25)), (model, ratio)
