"""Elastic n + (n+core dimer) scattering below three-body breakup.

Inhomogeneous counterpart of the spectrum module's coupled equations,
driven by the dimer-pickup Born term.  The moving pole of the n-core
propagator at the on-shell momentum q0 is handled by principal-value
subtraction: the pole part R/(z + eps2) is split off analytically
(model.two_body_propagator_subtracted is regular there), the
principal-value integral of the subtracted numerator is discretized
directly, and the exact counter-term plus the i*pi on-shell piece are
attached to an extra grid point at q0.

The core amplitude is eliminated (there is no core-core block), which
leaves N+1 real neutron rows on p + {q0} but for the on-shell column;
that column is proportional to the right-hand side, so one real solve
and a Sherman-Morrison step give f exactly, and Im(1/f) = -k.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError, DomainError, NumericalError
from .model import (
    HBAR_C,
    KEV_PER_MEV,
    PoleKind,
    SystemConfig,
    propagator_residue,
    two_body_propagator_subtracted,
)
from .quadrature import MomentumGrid
from .spectrum import _Engine, _exchanges


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
            bound = 4.0 * math.pi / pt.k_inv_fm**2
            if not (0.0 <= pt.sigma_fm2 <= bound * (1.0 + 1e-9)):
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
    if config.nc_channel.pole_kind is not PoleKind.bound:
        raise ConfigurationError("elastic n+dimer scattering requires a bound n-core channel")
    eps2 = config.nc_channel.epsilon2_keV
    if eps2 == 0.0:  # the unitary limit: dimer and breakup thresholds coincide
        raise ConfigurationError("elastic n+dimer window (0, 0) keV is empty at eps2 = 0")
    if config.nn_channel.pole_kind is PoleKind.bound:
        eps2 -= config.nn_channel.epsilon2_keV
        if eps2 <= 0.0:
            raise ConfigurationError(f"elastic n+dimer window (0, {eps2:g}) keV is empty")
    return eps2


def _amplitude(eng: _Engine, Ecm: float, q0: float) -> float:
    """gamma = -1/(k cot delta) in MeV^-1 at Ecm (MeV above the n+dimer
    threshold) and its on-shell momentum q0 = sqrt(2 M_n Ecm) (MeV)."""
    config = eng.config
    E = eng.threshold() + Ecm
    Mn = eng.M_n
    p, w = eng.p, eng.w
    if np.min(np.abs(p - q0)) < 1e-12 * q0:
        raise NumericalError(
            "on-shell momentum coincides with a grid node; "
            "perturb the grid count or map scale"
        )
    R = propagator_residue(config.nc_channel, eng.mu_nc)
    if not math.isfinite(R):
        raise NumericalError("residue of the n-core dimer pole leaves the float range")
    n = eng.grid.count
    # Born blocks on p + {q0}: the grid block from the engine's cache, the
    # q0 border built here on the momentum pairs (p + {q0}, q0), then (q0, p)
    q = np.concatenate([p, np.full(n + 1, q0)])
    qp = np.concatenate([np.full(n + 1, q0), p])
    Znn_b, Znc_b = (z(E) for z in _exchanges(eng, q, qp))
    Znn_grid, Znc_grid = eng.born_blocks(E)
    Bnn = 2.0 * math.pi * np.block(
        [[Znn_grid, Znn_b[:n, None]], [Znn_b[None, n + 1 :], Znn_b[n : n + 1, None]]]
    ).real
    Bnc = 2.0 * math.pi * np.vstack([Znc_grid, Znc_b[n + 1 :]]).real

    z_n = E - p**2 / (2.0 * Mn)
    # tau with its dimer pole removed analytically: regular at p = q0
    tau_reg = two_body_propagator_subtracted(config.nc_channel, eng.mu_nc, z_n).real
    pole = 2.0 * Mn * R / (q0**2 - p**2)
    tau_full = tau_reg + pole  # full tau at the quadrature nodes
    tau_c = eng.tau_c(E).real

    wq2 = w * p**2
    # P.V. int_0^inf dq/(q0^2-q^2) = 0, so the counter-term is just the
    # discretization defect of the subtracted pole
    counter = -2.0 * Mn * R * q0**2 * float(np.sum(w / (q0**2 - p**2)))
    # F_c = c_c + C F_n (no core-core block): eliminating it leaves the
    # neutron rows p + {q0} with H = B_nn + 2 B_nc T_c B_cn, T_c = diag(wq2 tau_c)
    Bnc_t = Bnc * (wq2 * tau_c)[None, :]
    H = Bnn + (2.0 * Bnc_t) @ Bnc.T
    # (1 - H D) X = H[:, q0] with D = diag(wq2 tau_full, counter - i pi Mn R q0).
    # Only D's on-shell entry is complex, so X = Y / (1 + i pi Mn R q0 Y[q0])
    # (Sherman-Morrison) with Y the real solution at D = diag(wq2 tau_full, counter)
    D = np.append(wq2 * tau_full, counter)
    Y = np.linalg.solve(np.eye(n + 1) - H * D[None, :], H[:, n])
    # One refinement step of Y[q0] against the unreduced blocks, whose
    # accuracy forming H loses when q0 sits near a node (large D there).
    # H is symmetric, so row q0 of (1 - H D)^-1 is e_q0 + D Y: no second solve.
    DY = D * Y
    residual = Bnn[:, n] - Y + Bnn @ DY + Bnc_t @ (2.0 * Bnc[n] + 2.0 * (Bnc.T @ DY))
    return math.pi * Mn * R * (Y[n] + residual[n] + DY @ residual)


def cross_section_curve(
    config: SystemConfig, grid: MomentumGrid, E_values_keV
) -> CrossSectionCurve:
    """Pointwise sigma(E) = 4 pi |f|^2 over a sorted energy mesh (keV), on one
    engine: each energy adds only its q0 border to the cached exchange blocks."""
    E_values = np.asarray(E_values_keV, dtype=float)
    if E_values.size == 0:
        raise ConfigurationError("energy mesh must be non-empty")
    if np.any(np.diff(E_values) <= 0):
        raise ConfigurationError("energy mesh must be strictly increasing")
    eng = _Engine(config, grid)
    top = elastic_window(eng.config)
    outside = E_values[~((0.0 < E_values) & (E_values < top))]
    if outside.size:  # the whole mesh is checked before any solve
        bound_nn = eng.config.nn_channel.pole_kind is PoleKind.bound
        opens = "core+(nn dimer)" if bound_nn else "three-body breakup"
        raise DomainError(
            f"E_cm = {outside[0]} keV outside the elastic window (0, {top} keV); "
            f"{opens} opens at {top} keV above the dimer threshold"
        )
    points = []
    for E in map(float, E_values):
        Ecm = E / KEV_PER_MEV
        q0 = math.sqrt(2.0 * eng.M_n * Ecm)
        try:
            gamma = _amplitude(eng, Ecm, q0)
        except NumericalError as exc:
            raise NumericalError(f"at E_cm = {E} keV: {exc}") from exc
        # elastic unitarity: f = 1/(k cot delta - ik) = -gamma/(1 + i k gamma)
        f = complex(-gamma / (1.0 + 1j * q0 * gamma) * HBAR_C)
        points.append(ScatteringPoint(E, q0 / HBAR_C, f, 4.0 * math.pi * abs(f) ** 2))
    return CrossSectionCurve(points=tuple(points), config_snapshot=eng.config)
