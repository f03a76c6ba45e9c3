"""Elastic n + (n+core dimer) scattering below three-body breakup.

Inhomogeneous counterpart of the spectrum module's coupled equations,
driven by the dimer-pickup Born term.  The moving pole of the n-core
propagator at the on-shell momentum q0 is handled by principal-value
subtraction: the pole part R/(z + eps2) is split off analytically
(model.two_body_propagator_subtracted is regular there), the
principal-value integral of the subtracted numerator is discretized
directly, and the exact counter-term plus the i*pi on-shell piece are
attached to an extra grid point at q0.

The core amplitude is eliminated as for the trimer levels, by the
engine's core_eliminated: P = 2 G G^T - Z_nn on the neutron rows p + {q0}
(there is no core-core block).  (1 + P D) X = P[:, q0] is real but for
the on-shell column, which is proportional to the right-hand side, so
one real solve and a Sherman-Morrison step give f exactly, and
Im(1/f) = -k.

The engine (module _engine, numpy only: a curve loads no scipy) builds
each energy's on-shell system (its on_shell_systems): the grid's exchange
blocks once per curve, the q0 borders a chunk of energies at a time, and
the core elimination, in three (N+1)-sized arrays allocated once per
curve.  This module keeps the principal-value weights and the solve.
Each energy runs in the curve's one loop: its checks, its system, then
the solve; any failure there, a non-finite amplitude included, is a
NumericalError naming the energy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._engine import _Engine, _thresholds
from .errors import ConfigurationError, DomainError, NumericalError
from .model import (
    HBAR_C,
    KEV_PER_MEV,
    SystemConfig,
    propagator_residue,
    resolve_config,
    two_body_propagator_subtracted,
)
from .quadrature import MomentumGrid


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
        for pt in self.points:
            if not (0.0 <= pt.sigma_fm2 * pt.k_inv_fm**2 <= 4.0 * math.pi * (1.0 + 1e-9)):
                raise NumericalError(
                    f"sigma = {pt.sigma_fm2!r} fm^2 at E = {pt.E_cm_keV} keV is not "
                    "finite or violates the unitarity bound"
                )

    @property
    def energies_keV(self) -> np.ndarray:
        return np.array([pt.E_cm_keV for pt in self.points])

    @property
    def sigmas_fm2(self) -> np.ndarray:
        return np.array([pt.sigma_fm2 for pt in self.points])


def elastic_window(config: SystemConfig) -> float:
    """Top of the elastic window 0 < E_cm < top (keV): n-core eps2 less a bound nn eps2."""
    config = resolve_config(config)
    top = _thresholds(config)[1]
    if top is None:
        raise ConfigurationError("elastic n+dimer scattering requires a bound n-core channel")
    if config.nc_channel.epsilon2_keV == 0.0:  # the unitary limit: dimer and breakup coincide
        raise ConfigurationError("elastic n+dimer window (0, 0) keV is empty at eps2 = 0")
    if top <= 0.0:  # equal eps2: both dimers at one threshold
        raise ConfigurationError(f"elastic n+dimer window (0, {top:g}) keV is empty")
    return top


def _amplitude(eng: _Engine, q0: float, R: float, E: float, Znn, G, P) -> float:
    """gamma = -1/(k cot delta) in MeV^-1 at the on-shell momentum q0 =
    sqrt(2 M_n Ecm) (MeV), from the n-core dimer residue R and the engine's
    on-shell system at E (MeV): Z_nn, G and P on p + {q0}, from
    _Engine.on_shell_systems.  P is overwritten by 1 + P D."""
    Mn, p, n = eng.M_n, eng.p, eng.grid.count
    # tau with its dimer pole removed analytically (regular at p = q0), then
    # the pole added back: the full tau at the quadrature nodes
    z_n = E - p**2 / (2.0 * Mn)
    tau_reg = two_body_propagator_subtracted(eng.config.nc_channel, eng.mu_nc, z_n).real
    tau_full = tau_reg + 2.0 * Mn * R / (q0**2 - p**2)
    # P.V. int_0^inf dq/(q0^2-q^2) = 0, so the counter-term is just the
    # discretization defect of the subtracted pole
    counter = -2.0 * Mn * R * q0**2 * float(np.sum(eng.w / (q0**2 - p**2)))
    # (1 + P D) X = P[:, q0] with D = diag(u tau_full, 2 pi (counter - i pi Mn R q0)).
    # Only D's on-shell entry is complex, so X = Y / (1 - 2 pi^2 i Mn R q0 Y[q0])
    # (Sherman-Morrison) with Y the real solution at D = diag(u tau_full, 2 pi counter)
    D = np.append(eng.u * tau_full, 2.0 * math.pi * counter)
    rhs = P[:, n].copy()
    np.multiply(P, D[None, :], out=P)  # P is overwritten by 1 + P D
    P[np.diag_indices_from(P)] += 1.0
    Y = np.linalg.solve(P, rhs)
    # One refinement step of Y[q0] against P in factored form, whose
    # accuracy forming P loses when q0 sits near a node (large D there).
    # P is symmetric, so row q0 of (1 + P D)^-1 is e_q0 - D Y: no second solve.
    DY = D * Y
    residual = 2.0 * (G @ (G[n] - G.T @ DY)) - Znn[:, n] + Znn @ DY - Y
    return -2.0 * math.pi**2 * Mn * R * (Y[n] + residual[n] - DY @ residual)


def cross_section_curve(
    config: SystemConfig, grid: MomentumGrid, E_values_keV
) -> CrossSectionCurve:
    """Pointwise sigma(E) = 4 pi |f|^2 over a sorted 1-D energy mesh (keV),
    on one engine, whose on-shell systems share the grid's exchange blocks
    and one set of arrays."""
    E_values = np.asarray(E_values_keV, dtype=float)
    if E_values.ndim != 1:
        raise ConfigurationError(f"energy mesh must be 1-D, got shape {E_values.shape}")
    if E_values.size == 0:
        raise ConfigurationError("energy mesh must be non-empty")
    if np.any(np.diff(E_values) <= 0):
        raise ConfigurationError("energy mesh must be strictly increasing")
    eng = _Engine(config, grid)
    top = elastic_window(eng.config)
    outside = E_values[~((0.0 < E_values) & (E_values < top))]
    if outside.size:  # the whole mesh is checked before any solve
        raise DomainError(
            f"E_cm = {outside[0]} keV outside the elastic window (0, {top} keV); "
            f"{eng.window_opens} opens at {top} keV above the dimer threshold"
        )
    Ecms = E_values / KEV_PER_MEV
    q0s = np.sqrt(2.0 * eng.M_n * Ecms)
    R = propagator_residue(eng.config.nc_channel, eng.mu_nc)
    systems = eng.on_shell_systems(Ecms, q0s)
    points = []
    for E, q0 in zip(E_values.tolist(), q0s.tolist()):
        try:
            if np.min(np.abs(eng.p - q0)) < 1e-12 * q0:
                raise NumericalError(
                    "on-shell momentum coincides with a grid node; "
                    "perturb the grid count or map scale"
                )
            if not math.isfinite(R):
                raise NumericalError("residue of the n-core dimer pole leaves the float range")
            gamma = _amplitude(eng, q0, R, *next(systems))
            if not math.isfinite(gamma):
                raise NumericalError(f"elastic amplitude is not finite (gamma = {gamma:g} MeV^-1)")
        except (NumericalError, np.linalg.LinAlgError) as exc:
            raise NumericalError(f"at E_cm = {E} keV: {exc}") from exc
        # elastic unitarity: f = 1/(k cot delta - ik) = -gamma/(1 + i k gamma)
        f = complex(-gamma / (1.0 + 1j * q0 * gamma) * HBAR_C)
        points.append(ScatteringPoint(E, q0 / HBAR_C, f, 4.0 * math.pi * abs(f) ** 2))
    return CrossSectionCurve(points=tuple(points), config_snapshot=eng.config)
