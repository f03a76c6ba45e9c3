"""Coupled spectator-function equations for n+n+core trimers.

Two identical neutrons (spin-singlet, s-wave) plus a core of mass A*m_n,
pairwise separable interactions.  The bound-state problem is the coupled
homogeneous system

    F_n(q) = K_nn F_n + K_nc F_c,      F_c(q) = 2 K_cn F_n,

with kernels built from one-particle-exchange Born terms (angular
integrals in closed form) times the two-body propagators of module
model.  Discretized on a MomentumGrid the trimer condition is
det(1 - K(E)) = 0; we track the ordered eigenvalues lambda_k(E) of the
real symmetric N x N reduced kernel M(E) (F_c eliminated), which cross 1
exactly where those of K do: at the trimer energies.

The kernel engine lives in module _engine, which needs numpy only; this
module adds its two LAPACK solves (eigh, dsytrf) and is the one place
trihalo loads scipy.linalg.  The package imports it at the first use of
a spectrum name, so scattering and fitting never load scipy.linalg.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, replace

import numpy as np
from scipy.linalg import eigh
from scipy.linalg.lapack import dsytrf, dsytrf_lwork

from . import _engine
from .errors import ConfigurationError, DomainError, NumericalError
from .model import KEV_PER_MEV, SystemConfig
from .quadrature import MomentumGrid

# ---------------------------------------------------------------------------
# the engine's eigen-solves


class _Engine(_engine._Engine):
    """The kernel engine with M(E)'s eigenvalues and inertia (LAPACK)."""

    def eigenvalues(self, E: float) -> np.ndarray:
        """Eigenvalues of M(E), descending; the k-th crosses 1 where K(E)'s does."""
        M = self.reduced_kernel(E)
        try:
            return eigh(M, eigvals_only=True, check_finite=False)[::-1]
        except ValueError as exc:  # LinAlgError: no convergence
            raise NumericalError(f"kernel at E = {E:.6g} MeV: {exc}") from exc

    def count_above_one(self, E: float) -> int:
        """Number of eigenvalues of K(E) above 1, without an eigen-solve.

        It equals the number above 1 of M(E), and by Sylvester's law of
        inertia that is the number of positive eigenvalues of D in the
        Bunch-Kaufman factorization M - 1 = L D L^T (dsytrf).  A 1x1 pivot
        counts when positive; a 2x2 block always counts one, as
        Bunch-Kaufman picks it only with a negative determinant.
        """
        M = self.reduced_kernel(E)
        M[np.diag_indices_from(M)] -= 1.0
        lwork, _ = dsytrf_lwork(len(M))
        # M is symmetric: its transpose is the Fortran-ordered array dsytrf
        # factors in place
        ldu, ipiv, _ = dsytrf(M.T, lwork=int(lwork), overwrite_a=True)
        pivots = np.diagonal(ldu)[ipiv > 0]
        return int(np.count_nonzero(pivots > 0.0) + np.count_nonzero(ipiv < 0) // 2)


# ---------------------------------------------------------------------------
# public kernel object


@dataclass(frozen=True)
class KernelMatrix:
    """Discretized kernel K(E) acting on stacked (F_n, F_c) spectator amplitudes."""

    matrix: np.ndarray  # (2N, 2N): real for real E, complex otherwise


def build_kernel(config: SystemConfig, grid: MomentumGrid, E) -> KernelMatrix:
    """Kernel K(E); trimer condition det(1 - K(E)) = 0.

    E in MeV relative to three-body breakup.  Real E must lie below the
    lowest scattering threshold; on-cut energies belong to the
    scattering module.  Complex E is evaluated directly (Schwarz:
    K(conj E) = conj K(E)).  A non-finite E, real or complex, is a
    DomainError.
    """
    E = complex(E)
    if not np.isfinite(E):
        raise DomainError(f"E = {E:.6g} MeV is not finite")
    eng = _Engine(config, grid)
    if E.imag == 0.0:
        E = E.real
        eng.check_below_threshold(E)
    Znn, Znc = eng.born_blocks(E)
    tau_n_u = (eng.tau_n(E) * eng.u)[None, :]  # tau times the measure, per column
    tau_c_u = (eng.tau_c(E) * eng.u)[None, :]
    n = grid.count
    K = np.zeros((2 * n, 2 * n), dtype=complex)
    K[:n, :n] = Znn * tau_n_u
    K[:n, n:] = Znc * tau_c_u
    K[n:, :n] = 2.0 * Znc.T * tau_n_u
    # real E: a copy of the real part, so the complex assembly is freed
    return KernelMatrix(np.ascontiguousarray(K.real) if isinstance(E, float) else K)


# ---------------------------------------------------------------------------
# spectra


@dataclass(frozen=True)
class TrimerLevel:
    index: int
    epsilon3_keV: float  # binding relative to three-body breakup, > 0


@dataclass(frozen=True)
class ThreeBodySpectrum:
    levels: tuple[TrimerLevel, ...]
    config_snapshot: SystemConfig

    def __post_init__(self):
        energies = [lv.epsilon3_keV for lv in self.levels]
        if any(e <= 0 for e in energies) or any(np.diff(energies) >= 0):
            raise ConfigurationError("spectrum levels must be positive, decreasing")


def find_trimers(
    config: SystemConfig,
    grid: MomentumGrid,
    search_window: tuple[float, float] = (1e-9, 1e9),
    max_states: int = 8,
) -> ThreeBodySpectrum:
    """All trimer binding energies eps3 (keV) inside search_window.

    search_window is a binding-energy interval (keV, positive).  Levels
    are reported only when bound relative to the n+(n+core) threshold,
    i.e. eps3 > eps2 of a bound n-core channel (strict).  Each root is
    refined by brentq in x = log(-E / MeV), to 1e-12 in x (1e-12 relative
    on the energy), where the k-th kernel eigenvalue crosses 1.  Each
    level's search starts from the tightest bracket among the eigen-solves
    already made.
    """
    lo, hi = search_window
    if not (0 < lo < hi < math.inf):
        raise ConfigurationError("search_window must satisfy 0 < lo < hi < inf (keV)")
    eng = _Engine(config, grid)
    config = eng.config
    # bound levels live strictly below the lowest scattering threshold
    b_min = max(lo, -eng.threshold * KEV_PER_MEV * (1.0 + 1e-12), 1e-300)
    if b_min >= hi:
        return ThreeBodySpectrum(levels=(), config_snapshot=config)
    samples = {}  # x -> eigenvalues at E = -exp(x) MeV; they only pick brackets

    def eigenvalues(x):
        samples[x] = eng.eigenvalues(-math.exp(x))
        return samples[x]

    levels = []
    ev_least = eigenvalues(math.log(b_min / KEV_PER_MEV))
    ev_most = eigenvalues(math.log(hi / KEV_PER_MEV))
    for k in range(min(max_states, len(ev_least))):
        if not (ev_most[k] < 1.0 < ev_least[k]):
            continue
        a = max(x for x, ev in samples.items() if ev[k] > 1.0)
        b = min(x for x, ev in samples.items() if ev[k] <= 1.0 and x > a)
        x = _brentq(lambda x, k=k: eigenvalues(x)[k] - 1.0, a, b, xtol=1e-12)
        levels.append(TrimerLevel(index=k, epsilon3_keV=math.exp(x) * KEV_PER_MEV))
    return ThreeBodySpectrum(levels=tuple(levels), config_snapshot=config)


def _brentq(f, a: float, b: float, **tolerances) -> float:
    """brentq on [a, b]; non-convergence or a NaN objective is a NumericalError.

    The one root-finder entry point.  brentq is imported here, at the
    first root search, so a process that imports this module and searches
    no root (one that calls only build_kernel) never loads scipy.optimize.
    brentq's NaN guard is a self-referencing closure that only the cyclic
    GC frees; it gets f in a box emptied on return, so f's engine dies at
    once."""
    from scipy.optimize import brentq

    box = [f]
    try:
        return brentq(lambda x: box[0](x), a, b, maxiter=200, **tolerances)
    except (ConfigurationError, NumericalError):
        raise
    except (RuntimeError, ValueError) as exc:
        raise NumericalError(f"root search on [{a:.6g}, {b:.6g}]: {exc}") from exc
    finally:
        box.clear()


# ---------------------------------------------------------------------------
# discrete scale factor


class ResonantPairs(enum.Enum):
    all_three = "all_three"
    nc_only = "nc_only"


@dataclass(frozen=True)
class ScaleFactor:
    s0: float
    energy_ratio: float  # exp(2 pi / s0); inf past the float range (s0 < 8.85e-3)


def _sinh_over_cosh(x: float, y: float) -> float:
    """sinh(x) / cosh(y) for x, y >= 0, finite where sinh and cosh overflow."""
    return math.exp(x - y) * -math.expm1(-2.0 * x) / (1.0 + math.exp(-2.0 * y))


def _scale_equation(A: float, resonant_pairs: ResonantPairs):
    """The transcendental function g(s) whose positive root is s0.

    Mellin transform of the zero-range spectator equations at unitarity
    (masses in units of m_n).  For nc_only the nn channel decouples and
    the single-channel condition applies; for all_three the 2x2 coupled
    condition 1 - M_nn - 2 M_nc M_cn = 0 is used.
    """
    mu_nc = A / (A + 1.0)
    mu_nn = 0.5
    M_n = (A + 1.0) / (A + 2.0)
    M_c = 2.0 * A / (A + 2.0)
    phi_nn = math.acos(1.0 / (A + 1.0))
    phi_nc = math.acos(math.sqrt(mu_nn * mu_nc))
    P_nn = (A / mu_nc) * math.sqrt(M_n / mu_nc)
    P_nc = (1.0 / mu_nn) * math.sqrt(M_c / mu_nn)
    P_cn = (1.0 / mu_nc) * math.sqrt(M_n / mu_nc)

    def g(s):
        y = math.pi * s / 2.0
        m_nn = P_nn * _sinh_over_cosh(s * (math.pi / 2.0 - phi_nn), y) / s
        if resonant_pairs is ResonantPairs.nc_only:
            return 1.0 - m_nn
        t_nc = _sinh_over_cosh(s * (math.pi / 2.0 - phi_nc), y)  # shared by m_nc and m_cn
        m_nc = P_nc * t_nc / s
        m_cn = P_cn * t_nc / s
        return 1.0 - m_nn - 2.0 * m_nc * m_cn

    return g


def efimov_scale_factor(
    mass_ratio: float, resonant_pairs: ResonantPairs = ResonantPairs.all_three
) -> ScaleFactor:
    """Positive root s0 of the scale-invariance condition, to 1e-12.

    mass_ratio A is the core mass in units of the neutron mass.  Raises
    NumericalError when [1e-8, 16384] brackets no root.
    """
    if not 0 < mass_ratio < math.inf:  # NaN fails it too
        raise ConfigurationError(f"mass_ratio must be finite and > 0, got {mass_ratio!r}")
    if not isinstance(resonant_pairs, ResonantPairs):
        raise ConfigurationError(f"resonant_pairs must be a ResonantPairs, got {resonant_pairs!r}")
    g = _scale_equation(mass_ratio, resonant_pairs)
    # g(0+) < 0 in the Efimov regime (kernel strength exceeds 1), g(inf) -> 1
    s_lo, s_hi = 1e-8, 1.0
    while g(s_hi) < 0.0 and s_hi < 1e4:
        s_hi *= 2.0
    s0 = _brentq(g, s_lo, s_hi, xtol=1e-15, rtol=8.9e-16)
    try:
        ratio = math.exp(2.0 * math.pi / s0)
    except OverflowError:
        ratio = math.inf
    return ScaleFactor(s0=s0, energy_ratio=ratio)


# ---------------------------------------------------------------------------
# threshold scan and calibration


@dataclass(frozen=True)
class ScanPoint:
    epsilon2_keV: float
    bound_excited_count: int


@dataclass(frozen=True)
class Crossing:
    state_index: int
    epsilon2_star_keV: float


@dataclass(frozen=True)
class ThresholdScan:
    points: tuple[ScanPoint, ...]
    crossings: tuple[Crossing, ...]


def threshold_scan(
    config_template: SystemConfig,
    epsilon2_values: np.ndarray,
    grid: MomentumGrid,
) -> ThresholdScan:
    """Count bound excited trimers along an ascending eps2 scan; locate crossings.

    A crossing eps2*(n) is where excited state n satisfies eps3(n) = eps2
    (the state dissolves into the n+dimer continuum); located by
    bisection in eps2, well inside the 0.1 keV contract.  Every point
    and bisection step shares one pair of exchange blocks.

    The count at a point is the number of kernel eigenvalues above 1 at
    the n+dimer threshold, less the ground state.  It comes from the
    inertia of M - 1 (`_Engine.count_above_one`), not from an
    eigen-solve, and equals the eigen count unless an eigenvalue lies
    within rounding of 1.  The bisection uses the eigenvalues.  A template
    whose n-core channel is virtual has no n+dimer threshold: a
    ConfigurationError.
    """
    eps2 = np.asarray(epsilon2_values, dtype=float)
    if eps2.ndim != 1:
        raise ConfigurationError(f"epsilon2 values must be 1-D, got shape {eps2.shape}")
    if eps2.size == 0 or np.any(eps2 <= 0):
        raise ConfigurationError("epsilon2 values must be positive")
    if np.any(np.diff(eps2) <= 0):
        raise ConfigurationError("epsilon2 values must be strictly ascending")
    base = _Engine(config_template, grid)

    # excited trimers bound relative to the dimer at each eps2 (strict)
    counts = []
    for e in eps2:
        eng = base.with_epsilon2(e)
        counts.append(max(eng.count_above_one(eng.threshold) - 1, 0))
    points = tuple(
        ScanPoint(epsilon2_keV=float(e), bound_excited_count=c)
        for e, c in zip(eps2, counts)
    )
    crossings = []
    for i in range(len(eps2) - 1):
        c_hi, c_lo = counts[i], counts[i + 1]
        for n in range(c_lo + 1, c_hi + 1):
            # excited state n corresponds to eigenvalue index n (0-based)
            def misfit(e2, n=n):
                eng = base.with_epsilon2(e2)
                return float(eng.eigenvalues(eng.threshold)[n] - 1.0)

            star = _brentq(misfit, eps2[i], eps2[i + 1], rtol=1e-10, xtol=1e-300)
            crossings.append(Crossing(state_index=n, epsilon2_star_keV=float(star)))
    crossings.sort(key=lambda c: c.state_index)
    return ThresholdScan(points=points, crossings=tuple(crossings))


CALIBRATED_STATE = 1  # the first excited trimer
CALIBRATION_BETA_INV_FM = (0.25, 6.0)  # bracket searched for beta_nc


def calibrate_range_parameter(
    config_template: SystemConfig,
    grid: MomentumGrid,
    target_epsilon2_star_keV: float = 220.0,
) -> SystemConfig:
    """Adjust beta_nc so the first excited trimer dissolves at the target eps2.

    Single-scalar calibration: returns the template with beta_nc replaced,
    searched in CALIBRATION_BETA_INV_FM, so that eps2*(1) = target.  Raises
    NumericalError if that bracket does not contain a solution, and
    ConfigurationError for a virtual n-core channel, as threshold_scan does.
    """
    def engine(beta):  # beta changes the exchange blocks: a new engine per step
        nc = replace(config_template.nc_channel, beta_inv_fm=beta)
        return _Engine(replace(config_template, nc_channel=nc), grid)

    def misfit(beta):
        eng = engine(beta).with_epsilon2(target_epsilon2_star_keV)
        return float(eng.eigenvalues(eng.threshold)[CALIBRATED_STATE] - 1.0)

    # rtol 1e-7, the noise floor: the misfit's sign is random over ~4e-7 in beta
    beta = _brentq(misfit, *CALIBRATION_BETA_INV_FM, rtol=1e-7, xtol=1e-300)
    return engine(beta).config
