"""Elastic n + (n+core dimer) scattering below three-body breakup.

Inhomogeneous counterpart of the spectrum module's coupled equations,
driven by the dimer-pickup Born term.  The moving pole of the n-core
propagator at the on-shell momentum q0 is handled by principal-value
subtraction: the pole part R/(z + eps2) is split off analytically
(model.two_body_propagator_subtracted is regular there), the
principal-value integral of the subtracted numerator is discretized
directly, and the exact counter-term plus the i*pi on-shell piece are
attached to an extra grid point at q0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError, DomainError, NumericalError
from .fanofit import _curve_arrays
from .model import (
    KEV_PER_MEV,
    PoleKind,
    SystemConfig,
    propagator_residue,
    resolve_config,
    two_body_propagator_subtracted,
)
from .quadrature import MomentumGrid
from .spectrum import _born_blocks, _Engine


@dataclass(frozen=True)
class ScatteringPoint:
    E_cm_keV: float
    k_inv_fm: float
    amplitude_fm: complex
    sigma_fm2: float


@dataclass(frozen=True)
class CrossSectionCurve:
    points: tuple[ScatteringPoint, ...]
    config_snapshot: SystemConfig

    def __post_init__(self):
        if not self.points:
            raise ConfigurationError("cross-section curve must be non-empty")
        E = [pt.E_cm_keV for pt in self.points]
        if any(np.diff(E) <= 0):
            raise ConfigurationError("curve energies must be strictly increasing")
        for pt in self.points:
            bound = 4.0 * math.pi / pt.k_inv_fm**2
            if not (0.0 <= pt.sigma_fm2 <= bound * (1.0 + 1e-9)):
                raise ConfigurationError(
                    f"sigma at E = {pt.E_cm_keV} keV violates the unitarity bound"
                )

    @property
    def energies_keV(self) -> np.ndarray:
        return np.array([pt.E_cm_keV for pt in self.points])

    @property
    def sigmas_fm2(self) -> np.ndarray:
        return np.array([pt.sigma_fm2 for pt in self.points])


def _require_elastic_window(config: SystemConfig, E_cm_keV: float) -> float:
    if config.nc_channel.pole_kind is not PoleKind.bound:
        raise ConfigurationError(
            "elastic n+dimer scattering requires a bound n-core channel"
        )
    eps2 = config.nc_channel.epsilon2_keV
    if not (0.0 < E_cm_keV < eps2):
        raise DomainError(
            f"E_cm = {E_cm_keV} keV outside the elastic window (0, {eps2} keV); "
            f"three-body breakup opens at {eps2} keV above the dimer threshold"
        )
    return eps2


def elastic_amplitude(
    config: SystemConfig, grid: MomentumGrid, E_cm_keV: float
) -> complex:
    """On-shell s-wave amplitude f(E_cm) in fm; sigma = 4 pi |f|^2.

    Valid for 0 < E_cm < eps2 (keV above the n+dimer threshold).
    """
    return _amplitude(_Engine(config, grid), E_cm_keV)


def _amplitude(eng: _Engine, E_cm_keV: float) -> complex:
    config = eng.config
    eps2_keV = _require_elastic_window(config, E_cm_keV)
    eps2 = eps2_keV / KEV_PER_MEV
    Ecm = E_cm_keV / KEV_PER_MEV
    E = -eps2 + Ecm
    Mn = eng.M_n
    q0 = math.sqrt(2.0 * Mn * Ecm)
    p, w = eng.p, eng.w
    if np.min(np.abs(p - q0)) < 1e-12 * q0:
        raise NumericalError(
            f"on-shell momentum coincides with a grid node at E_cm = {E_cm_keV} keV; "
            "perturb the grid count or map scale"
        )
    pe = np.append(p, q0)
    n = eng.grid.count
    Znn, Znc = _born_blocks(eng, pe, E)
    Bnn = 2.0 * math.pi * Znn.real
    Bnc = 2.0 * math.pi * Znc.real
    Bcn = Bnc.T

    R = propagator_residue(config.nc_channel, eng.mu_nc, config.constants)
    z_n = E - p**2 / (2.0 * Mn)
    # tau with its dimer pole removed analytically: regular at p = q0
    tau_reg = two_body_propagator_subtracted(
        config.nc_channel, eng.mu_nc, z_n, config.constants
    ).real
    pole = 2.0 * Mn * R / (q0**2 - p**2)
    tau_full = tau_reg + pole  # full tau at the quadrature nodes
    tau_c = eng.tau_c(E).real

    wq2 = w * p**2
    # P.V. int_0^inf dq/(q0^2-q^2) = 0, so the counter-term is just the
    # discretization defect of the subtracted pole
    counter = -2.0 * Mn * R * q0**2 * float(np.sum(w / (q0**2 - p**2)))
    onshell = counter - 1j * math.pi * Mn * R * q0

    M = np.zeros((2 * n + 1, 2 * n + 1), dtype=complex)
    rhs = np.zeros(2 * n + 1, dtype=complex)
    # neutron-spectator rows (N grid nodes + on-shell point)
    rhs[: n + 1] = Bnn[:, n]
    M[: n + 1, :n] = Bnn[:, :n] * (wq2 * tau_full)[None, :]
    M[: n + 1, n] = Bnn[:, n] * onshell
    M[: n + 1, n + 1 :] = Bnc[:, :n] * (wq2 * tau_c)[None, :]
    # core-spectator rows (exchange symmetry factor 2)
    rhs[n + 1 :] = 2.0 * Bcn[:n, n]
    M[n + 1 :, :n] = 2.0 * Bcn[:n, :n] * (wq2 * tau_full)[None, :]
    M[n + 1 :, n] = 2.0 * Bcn[:n, n] * onshell

    X = np.linalg.solve(np.eye(2 * n + 1) - M, rhs)
    f_mev = -math.pi * Mn * R * X[n]
    return complex(f_mev * eng.hbar_c)


def scattering_point(
    config: SystemConfig, grid: MomentumGrid, E_cm_keV: float
) -> ScatteringPoint:
    eng = _Engine(config, grid)
    f = _amplitude(eng, E_cm_keV)
    k = math.sqrt(2.0 * eng.M_n * E_cm_keV / KEV_PER_MEV) / eng.hbar_c
    return ScatteringPoint(
        E_cm_keV=float(E_cm_keV),
        k_inv_fm=k,
        amplitude_fm=f,
        sigma_fm2=4.0 * math.pi * abs(f) ** 2,
    )


def cross_section_curve(
    config: SystemConfig, grid: MomentumGrid, E_values_keV
) -> CrossSectionCurve:
    """Pointwise sigma(E) = 4 pi |f|^2 over a sorted energy mesh (keV)."""
    E_values = np.asarray(E_values_keV, dtype=float)
    if E_values.size == 0:
        raise ConfigurationError("energy mesh must be non-empty")
    if np.any(np.diff(E_values) <= 0):
        raise ConfigurationError("energy mesh must be strictly increasing")
    config = resolve_config(config)
    points = []
    for E in E_values:
        try:
            points.append(scattering_point(config, grid, float(E)))
        except (DomainError, NumericalError) as exc:
            raise type(exc)(f"at E_cm = {E} keV: {exc}") from exc
    return CrossSectionCurve(points=tuple(points), config_snapshot=config)


@dataclass(frozen=True)
class ResonanceWindow:
    """Energy interval around a local max/min pair, used to seed Fano fits."""

    lo_keV: float
    hi_keV: float
    peak_keV: float
    dip_keV: float


def resonance_window(curve_or_E, sigma=None) -> ResonanceWindow | None:
    """Window centered between the curve's extremal pair, width 10x their gap.

    Accepts a CrossSectionCurve or two arrays.  Returns None for a
    monotone (no interior extrema) curve: the no-resonance result.
    """
    E, s = _curve_arrays(curve_or_E, sigma)
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
