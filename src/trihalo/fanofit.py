"""Fano and Breit-Wigner lineshapes with a damped least-squares fitter.

sigma(E) = sigma0 (q + eps)^2 / (1 + eps^2),  eps = (E - E_r)/(Gamma/2)

Residuals are relative (divided by the data, floored at 1e-12 * max
sigma) because the Fano profile spans orders of magnitude near its zero.
The fitter is a hand-rolled Levenberg-Marquardt on the analytic
Jacobian: deterministic, no RNG, no external optimizer state.
"""

from __future__ import annotations

import math
from collections import namedtuple
from dataclasses import astuple, dataclass, fields

import numpy as np

from .errors import ConfigurationError, FlatDataError, NumericalError

STEP_TOL = 1e-10
GRAD_TOL = 1e-12
MAX_ITERATIONS = 500
CONTINUATION_SHRINK = 0.5  # cost factor each amplitude-coordinate step must reach
RESIDUAL_FLOOR_SCALE = 1e-12


def _require_finite(params):
    bad = [f.name for f in fields(params) if not math.isfinite(getattr(params, f.name))]
    if bad:
        raise ConfigurationError(f"{type(params).__name__}: non-finite {', '.join(bad)}")


@dataclass(frozen=True)
class FanoParameters:
    sigma0_fm2: float
    q: float
    E_r_keV: float
    Gamma_keV: float

    def __post_init__(self):
        _require_finite(self)
        if not (self.sigma0_fm2 > 0 and self.Gamma_keV > 0):
            raise ConfigurationError("Fano parameters need sigma0 > 0, Gamma > 0")


@dataclass(frozen=True)
class BreitWignerParameters:
    sigma_bg_fm2: float
    amplitude_fm2: float
    E_r_keV: float
    Gamma_keV: float

    def __post_init__(self):
        _require_finite(self)
        if self.sigma_bg_fm2 < 0:
            raise ConfigurationError("Breit-Wigner background must be >= 0")
        if not (self.amplitude_fm2 > 0 and self.Gamma_keV > 0):
            raise ConfigurationError("Breit-Wigner needs amplitude > 0, Gamma > 0")


def fano_profile(E, p: FanoParameters):
    out = _fano_value(np.asarray(E, dtype=float), astuple(p))
    return out if out.ndim else float(out)


def breit_wigner_profile(E, p: BreitWignerParameters):
    eps = (np.asarray(E, dtype=float) - p.E_r_keV) / (p.Gamma_keV / 2.0)
    out = p.sigma_bg_fm2 + p.amplitude_fm2 / (1.0 + eps**2)
    return out if out.ndim else float(out)


# each chart's profile and Jacobian on raw coordinate arrays (a trial point
# is checked by the parameter class before the fitter evaluates it)


def _fano_value(E, th):
    s0, q, Er, G = th
    eps = (E - Er) / (G / 2.0)
    return s0 * (q + eps) ** 2 / (1.0 + eps**2)


def _fano_jacobian(E, th):
    s0, q, Er, G = th
    eps = (E - Er) / (G / 2.0)
    denom = 1.0 + eps**2
    F = (q + eps) ** 2 / denom
    dq = 2.0 * s0 * (q + eps) / denom
    deps = 2.0 * s0 * (q + eps) * (1.0 - q * eps) / denom**2
    dEr = deps * (-2.0 / G)
    dG = deps * (-eps / G)
    return np.column_stack([F, dq, dEr, dG])


# the Breit-Wigner profile in root coordinates (c, amp, E_r, Gamma) with
# background bg = c^2: the bound bg >= 0 is part of the coordinates, so a
# fit reaches bg = 0 without a feasibility test refusing its steps


def _bw_value(E, ph):
    c, amp, Er, G = ph
    eps = (E - Er) / (G / 2.0)
    return c * c + amp / (1.0 + eps**2)


def _bw_jacobian(E, ph):
    c, amp, Er, G = ph
    eps = (E - Er) / (G / 2.0)
    denom = 1.0 + eps**2
    damp = 1.0 / denom
    deps = -2.0 * amp * eps / denom**2
    dEr = deps * (-2.0 / G)
    dG = deps * (-eps / G)
    return np.column_stack([np.full_like(E, 2.0 * c), damp, dEr, dG])


# the Fano profile in amplitude coordinates (a, b) = (sqrt(s0) q, sqrt(s0)):
# (a + b eps)^2 / (1 + eps^2), with the Breit-Wigner limit q -> inf at b = 0


def _amplitude_value(E, ph):
    a, b, Er, G = ph
    eps = (E - Er) / (G / 2.0)
    return (a + b * eps) ** 2 / (1.0 + eps**2)


def _amplitude_jacobian(E, ph):
    a, b, Er, G = ph
    eps = (E - Er) / (G / 2.0)
    denom = 1.0 + eps**2
    da = 2.0 * (a + b * eps) / denom
    deps = 2.0 * (a + b * eps) * (b - a * eps) / denom**2
    return np.column_stack([da, eps * da, deps * (-2.0 / G), deps * (-eps / G)])


def _amplitude_to_fano_jacobian(ph):
    """d(s0, q, E_r, Gamma) / d(a, b, E_r, Gamma)."""
    a, b = ph[0], ph[1]
    T = np.eye(4)
    T[0, :2] = [0.0, 2.0 * b]
    T[1, :2] = [1.0 / b, -a / b**2]
    return T


# the coordinates one Levenberg-Marquardt run works in: the profile and its
# Jacobian there, the maps from and to the reported parameters, d(params)/d(coords)
_Chart = namedtuple("_Chart", "value jacobian to_coords to_params params_jacobian")

_FANO_CHART = _Chart(_fano_value, _fano_jacobian, lambda th: th, lambda c: c, lambda c: np.eye(4))
_BW_CHART = _Chart(
    _bw_value, _bw_jacobian,
    lambda th: np.array([math.sqrt(th[0]), *th[1:]]),
    lambda c: np.array([c[0] * c[0], *c[1:]]),
    lambda c: np.diag([2.0 * c[0], 1.0, 1.0, 1.0]),
)
_AMPLITUDE_CHART = _Chart(
    _amplitude_value, _amplitude_jacobian,
    lambda th: np.array([math.sqrt(th[0]) * th[1], math.sqrt(th[0]), th[2], th[3]]),
    lambda c: np.array([c[1] * c[1], c[0] / c[1], c[2], c[3]]),
    _amplitude_to_fano_jacobian,
)

# model name -> (parameter class, fit chart, profile, continuation chart or None)
_MODELS = {
    "fano": (FanoParameters, _FANO_CHART, fano_profile, _AMPLITUDE_CHART),
    "breit_wigner": (BreitWignerParameters, _BW_CHART, breit_wigner_profile, None),
}


def _admissible(cls, th) -> bool:
    try:
        cls(*th)
    except ConfigurationError:
        return False
    return True


@dataclass(frozen=True)
class FitResult:
    model: str
    params: FanoParameters | BreitWignerParameters
    residual_norm: float
    iterations: int
    converged: bool
    covariance: np.ndarray  # 4x4
    window: ResonanceWindow | None  # found with window="auto", else None
    window_mode: str  # "auto" if the fit used only the window's points, else "full"
    mask: np.ndarray  # the points the fit used

    def profile(self, E):
        """The fitted lineshape at the energies E (keV), in fm^2."""
        return _MODELS[self.model][2](E, self.params)


@dataclass(frozen=True)
class ResonanceWindow:
    """Energy interval around a local max/min pair, used to seed Fano fits."""

    lo_keV: float
    hi_keV: float
    peak_keV: float
    dip_keV: float


def resonance_window(E, sigma) -> ResonanceWindow | None:
    """Window centered between the curve's extremal pair, width 10x their gap.

    Returns None for a monotone (no interior extrema) curve: the
    no-resonance result.
    """
    E, s = np.asarray(E, dtype=float), np.asarray(sigma, dtype=float)
    interior = np.arange(1, len(s) - 1)
    maxima = [i for i in interior if s[i] > s[i - 1] and s[i] > s[i + 1]]
    minima = [i for i in interior if s[i] < s[i - 1] and s[i] < s[i + 1]]
    if not maxima or not minima:
        return None
    i_max = max(maxima, key=lambda i: s[i])
    i_min = min(minima, key=lambda i: s[i])
    peak, dip = E[i_max], E[i_min]
    center = 0.5 * (peak + dip)
    half = 5.0 * abs(peak - dip)
    lo = max(center - half, E[0])
    hi = min(center + half, E[-1])
    return ResonanceWindow(lo_keV=lo, hi_keV=hi, peak_keV=peak, dip_keV=dip)


def auto_seed(model: str, E, sigma, window=None):
    """Initial parameter guess per the documented seeding rule.

    Breit-Wigner: background min(sigma), amplitude max - min, E_r at the
    maximum of sigma and Gamma a quarter of the energy range; the window
    is not used (its peak-dip gap is a Fano width, far too narrow a start
    for a Lorentzian through Fano-shaped data).

    Fano: sigma0 the median of the outer quartiles of sigma.  With a
    resonance window, E_r at the peak/dip midpoint, Gamma their
    separation and q = sign(peak - dip) * 2; without one (monotone
    curve), the mesh midpoint, a quarter-range width and q = 2.
    """
    E = np.asarray(E, dtype=float)
    sigma = np.asarray(sigma, dtype=float)
    if model == "breit_wigner":
        bg = float(np.min(sigma))
        amp = float(np.max(sigma)) - bg
        return np.array([bg, amp, float(E[np.argmax(sigma)]), 0.25 * (E[-1] - E[0])])
    m = len(sigma)
    quartile = max(1, m // 4)
    outer = np.concatenate([sigma[:quartile], sigma[-quartile:]])
    s0 = float(np.median(outer))
    if s0 <= 0:
        s0 = float(np.max(sigma)) * 1e-3
    if window is not None:
        Er = 0.5 * (window.peak_keV + window.dip_keV)
        G = abs(window.peak_keV - window.dip_keV)
        q = 2.0 if window.peak_keV > window.dip_keV else -2.0
    else:
        Er = 0.5 * (E[0] + E[-1])
        G = 0.25 * (E[-1] - E[0])
        q = 2.0
    G = max(G, 1e-6 * (E[-1] - E[0]))
    return np.array([s0, q, Er, G])


def _levenberg_marquardt(residuals, jacobian, th, feasible, shrink=1.0):
    """Damped Gauss-Newton from th; returns (th, r, J, iterations, converged)
    with the residuals r and Jacobian J at the returned th.

    A step is taken when it does not raise the cost.  With shrink < 1 the
    run also ends, short of that step and not converged, at the first step
    that fails to cut the cost to shrink times its old value.
    """
    r = residuals(th)
    cost = float(r @ r)
    lam = 1e-3
    J = jacobian(th)
    g = J.T @ r
    if float(np.linalg.norm(g)) < GRAD_TOL:
        return th, r, J, 0, True
    for iterations in range(1, MAX_ITERATIONS + 1):
        JTJ = J.T @ J
        diag = np.diag(JTJ).copy()
        diag[diag <= 0] = 1e-30
        for _ in range(50):
            try:
                step = np.linalg.solve(JTJ + lam * np.diag(diag), -g)
            except np.linalg.LinAlgError:
                lam *= 10.0
                continue
            trial = th + step
            if not feasible(trial):
                lam *= 10.0
                continue
            r_trial = residuals(trial)
            cost_trial = float(r_trial @ r_trial)
            if np.isfinite(cost_trial) and cost_trial <= cost:
                break
            lam *= 10.0
        else:  # no descent direction left: stationary
            return th, r, J, iterations, True
        if cost_trial > shrink * cost:
            return th, r, J, iterations - 1, False
        rel_step = float(
            np.max(np.abs(step) / np.maximum(np.abs(th), 1e-300))
        )
        th, r, cost = trial, r_trial, cost_trial
        J = jacobian(th)
        lam = max(lam / 3.0, 1e-15)
        g = J.T @ r
        if rel_step < STEP_TOL or float(np.linalg.norm(g)) < GRAD_TOL:
            return th, r, J, iterations, True
    return th, r, J, MAX_ITERATIONS, False


def fit(E, sigma, model: str = "fano", window: str = "full") -> FitResult:
    """Damped least-squares fit of a lineshape to (E, sigma) data.

    window "full" fits every point.  window "auto" fits only the points
    of resonance_window when it finds one holding at least 8 points, and
    falls back to every point otherwise; the result's window_mode and
    mask say which.  Every fit starts from auto_seed of the fitted
    points; a Fano seed comes from the window when one was found.
    Converges when the relative parameter step < 1e-10 or the gradient
    norm < 1e-12; returns best-so-far with converged=False after 500
    iterations.

    A Breit-Wigner fit runs in (c, amp, E_r, Gamma) with background c^2,
    so a zero background is an interior point, not a bound.

    A Fano fit that is not converged after those 500 iterations goes on
    in the amplitude coordinates (a, b) = (sqrt(sigma0) q, sqrt(sigma0)),
    where the Breit-Wigner limit q -> inf is the finite point b = 0.
    The continuation has the same convergence tests and up to another
    500 iterations, but stops, converged=False, at the first step that
    would not at least halve the cost: a fit with no Breit-Wigner limit
    within reach keeps the result of its first 500 iterations.  The
    result is reported in (sigma0, q, E_r, Gamma) either way.

    Non-finite energies or cross sections are a ConfigurationError; a
    result whose scaled residuals or Jacobian are not finite (data near
    the float range limits) is a NumericalError.
    """
    E, sig = np.asarray(E, dtype=float), np.asarray(sigma, dtype=float)
    if model not in _MODELS:
        raise ConfigurationError(f"unknown model {model!r}")
    if window not in ("auto", "full"):
        raise ConfigurationError(f"window must be 'auto' or 'full', got {window!r}")
    for name, x in (("energies", E), ("cross sections", sig)):
        if not np.isfinite(x).all():
            i = int(np.argmin(np.isfinite(x)))
            raise ConfigurationError(f"fit needs finite {name}, got {float(x[i])} at index {i}")
    if len(E) < 8:
        raise ConfigurationError("fit requires at least 8 points")
    if np.any(np.diff(E) <= 0):
        raise ConfigurationError("fit energies must be strictly increasing")
    if np.any(sig < 0):
        raise ConfigurationError(
            f"fit needs cross sections >= 0, got sigma = {float(np.min(sig))!r} fm^2"
        )
    win = resonance_window(E, sig) if window == "auto" else None
    mask, window_mode = np.ones(len(E), dtype=bool), "full"
    if win is not None:
        inside = (E >= win.lo_keV) & (E <= win.hi_keV)
        if int(inside.sum()) >= 8:
            mask, window_mode = inside, "auto"
    E, sig = E[mask], sig[mask]
    smax = float(np.max(np.abs(sig)))
    if smax == 0.0 or float(np.max(sig) - np.min(sig)) < 1e-12 * smax:
        raise FlatDataError("cross-section data is flat; nothing to fit")

    cls, chart, _, continuation = _MODELS[model]
    denom = np.maximum(np.abs(sig), RESIDUAL_FLOOR_SCALE * smax)

    th = auto_seed(model, E, sig, window=win)
    if not _admissible(cls, th):
        raise ConfigurationError(f"infeasible {model} seed {th.tolist()}")

    def lm(chart, start, shrink=1.0):
        return _levenberg_marquardt(
            lambda c: (chart.value(E, c) - sig) / denom,
            lambda c: chart.jacobian(E, c) / denom[:, None],
            chart.to_coords(start),
            lambda c: _admissible(cls, chart.to_params(c)),
            shrink,
        )

    coords, r, J, iterations, converged = lm(chart, th)
    if not converged and continuation is not None:
        ph, r_ph, J_ph, more, converged = lm(
            continuation, chart.to_params(coords), CONTINUATION_SHRINK
        )
        if more:
            chart, coords, r, J, iterations = continuation, ph, r_ph, J_ph, iterations + more

    if not (np.isfinite(r).all() and np.isfinite(J).all()):
        raise NumericalError(
            f"{model} fit: non-finite residuals or Jacobian at the result "
            f"(cross sections up to {smax!r} fm^2 near the float range limits)"
        )
    params = cls(*(float(t) for t in chart.to_params(coords)))
    dof = max(len(E) - 4, 1)
    variance = float(r @ r) / dof
    # covariance from the pseudo-inverse of J (not J^T J, which squares its
    # condition number), mapped to the reported parameters; as B B^T it is
    # symmetric and, up to rounding, positive semi-definite
    B = chart.params_jacobian(coords) @ np.linalg.pinv(J, rcond=0.0)
    cov = variance * (B @ B.T)
    return FitResult(
        model=model,
        params=params,
        residual_norm=float(np.sqrt(np.mean(r**2))),
        iterations=iterations,
        converged=converged,
        covariance=cov,
        window=win,
        window_mode=window_mode,
        mask=mask,
    )


def q_consistency(fits) -> float:
    """Spread diagnostic max |q_i - q_j| / |mean q| over converged Fano fits.

    No pass/fail judgment here; thresholding is the caller's policy.
    """
    fits = list(fits)
    if len(fits) < 2:
        raise ConfigurationError("q_consistency needs at least 2 fits")
    bad = [i for i, f in enumerate(fits) if not f.converged or f.model != "fano"]
    if bad:
        raise ConfigurationError(
            f"q_consistency requires converged Fano fits; offending fits: {bad}"
        )
    qs = [f.params.q for f in fits]
    qbar = abs(float(np.mean(qs)))
    return (max(qs) - min(qs)) / qbar if qbar > 0 else math.inf
