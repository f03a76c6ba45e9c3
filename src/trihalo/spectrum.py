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
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, replace

import numpy as np
from scipy.linalg import eigh
from scipy.linalg.lapack import dsytrf, dsytrf_lwork

from .errors import ConfigurationError, DomainError, NumericalError
from .model import (
    HBAR_C,
    KEV_PER_MEV,
    NUCLEON_MASS,
    ChannelLabel,
    PoleKind,
    SystemConfig,
    reduced_mass,
    resolve_config,
    two_body_propagator,
)
from .quadrature import MomentumGrid

# ---------------------------------------------------------------------------
# internal engine: natural units (MeV, hbar*c = 1)


def _thresholds(config: SystemConfig) -> tuple[float, float | None, str]:
    """The kernel's lowest threshold in MeV (-eps2 of a bound n-core pair,
    else breakup at 0), the top of the elastic n+dimer window in keV (None
    without a bound n-core pair) and what opens there.  A bound n-n dimer
    below the n+(n-core) threshold (breakup for a virtual n-core pair), which
    the kernel takes as the lowest, is a ConfigurationError."""
    nc_bound = config.nc_channel.pole_kind is PoleKind.bound
    nn_bound = config.nn_channel.pole_kind is PoleKind.bound
    eps2_nc = config.nc_channel.epsilon2_keV if nc_bound else 0.0
    eps2_nn = config.nn_channel.epsilon2_keV if nn_bound else 0.0
    if eps2_nn > eps2_nc:
        raise ConfigurationError(
            f"n-n dimer (eps2 = {eps2_nn:g} keV) below the n+(n-core) threshold "
            f"(eps2 = {eps2_nc:g} keV): not supported"
        )
    opens = "core+(nn dimer)" if nn_bound else "three-body breakup"
    if not nc_bound:  # 0.0, not -0.0: messages print it
        return 0.0, None, opens
    return -eps2_nc / KEV_PER_MEV, eps2_nc - eps2_nn, opens


class _Engine:
    """The kernel's setting for one (config, grid) pair, in MeV.

    Holds masses, channel parameters, thresholds, grid momenta and measure,
    the exchange blocks' closed-form parameters, and the grid's exchange
    pair once built.  The config is resolved once here; every kernel
    evaluation on this pair, a whole root search or cross-section curve
    included, reuses the engine.
    """

    def __init__(self, config: SystemConfig, grid: MomentumGrid):
        config = resolve_config(config)
        self.config = config
        self.grid = grid
        m_n = NUCLEON_MASS
        self.m_c = config.core_mass_number * m_n
        m_tot = 2.0 * m_n + self.m_c
        self.mu_nc = reduced_mass(config, ChannelLabel.neutron_core)
        self.mu_nn = reduced_mass(config, ChannelLabel.neutron_neutron)
        # spectator reduced masses: one particle against the remaining pair
        self.M_n = m_n * (m_n + self.m_c) / m_tot
        self.M_c = self.m_c * 2.0 * m_n / m_tot
        self.beta_nc = config.nc_channel.beta_inv_fm * HBAR_C
        self.beta_nn = config.nn_channel.beta_inv_fm * HBAR_C
        self.threshold, self.window_top, self.window_opens = _thresholds(config)
        # the closed-form parameters (ca, cb, 1/2mu_ag, 1/2mu_bg, 1/m_g,
        # beta_a, beta_b) of Z_nn and of Z_nc
        c_n, h_nc, h_nn = m_n / (m_n + self.m_c), 0.5 / self.mu_nc, 0.5 / self.mu_nn
        self.exchange_parameters = (
            (c_n, c_n, h_nc, h_nc, 1.0 / self.m_c, self.beta_nc, self.beta_nc),
            (0.5, self.m_c / (self.m_c + m_n), h_nn, h_nc, 1.0 / m_n, self.beta_nc, self.beta_nn),
        )
        # grid momenta, weights and the measure 2 pi p^2 w, all in MeV
        self.p = grid.nodes * HBAR_C
        self.w = grid.weights * HBAR_C
        self.u = 2.0 * np.pi * self.p**2 * self.w
        self._exchange = None

    def tau_n(self, E):
        """n-core propagator with a neutron spectator at each grid node."""
        return two_body_propagator(
            self.config.nc_channel, self.mu_nc, E - self.p**2 / (2.0 * self.M_n)
        )

    def tau_c(self, E):
        """n-n propagator with the core as spectator at each grid node."""
        return two_body_propagator(
            self.config.nn_channel, self.mu_nn, E - self.p**2 / (2.0 * self.M_c)
        )

    def check_below_threshold(self, E: float) -> None:
        """DomainError for a real E (MeV) above the lowest threshold: on a cut."""
        if E > self.threshold:
            raise DomainError(
                f"E = {E:.6g} MeV lies on a scattering cut (threshold at "
                f"{self.threshold:.6g} MeV); use the scattering module for "
                "on-shell energies"
            )

    def exchange(self) -> tuple[_Exchange, _Exchange]:
        """The grid's Z_nn and Z_nc exchange blocks, built on first use."""
        if self._exchange is None:
            self._exchange = _exchanges(self, self.p[:, None], self.p[None, :])
        return self._exchange

    def born_blocks(self, E, out=(None, None)):
        """Z_nn and Z_nc on the grid at E, from exchange blocks built once,
        written into out's arrays if given."""
        return _evaluate(self.exchange(), E, out)

    def on_shell_systems(self, Ecms, q0s):
        """Each energy's system on p + {q0} (q0 the on-shell momentum at Ecm
        MeV above the lowest threshold): (E, Z_nn, G, P), P = 2 G G^T - Z_nn
        (core_eliminated), in three arrays overwritten at each energy.

        The q0 border holds the parts P reads: Z_nn on the column (p + {q0},
        q0), Z_nn and Z_nc on the row (q0, p).  Borders come a chunk of
        energies at a time, a row per energy, at most EXCHANGE_BLOCK_ENTRIES
        // 5 entries over its 2N+1 momenta: the five arrays a block holds fit
        one row block.  A chunk whose build warns or overflows is built again
        one energy at a time, as the caller reaches each and under its
        settings, so errors and warnings come after that energy's own checks."""
        n = self.grid.count
        Znn, G, P = np.empty((n + 1, n + 1)), np.empty((n + 1, n)), np.empty((n + 1, n + 1))
        Es = self.threshold + Ecms

        def borders(chunk):
            q0, E = q0s[chunk, None], Es[chunk, None]
            p = np.broadcast_to(self.p, (len(q0), n))
            column = _Exchange(np.hstack([p, q0]), q0, *self.exchange_parameters[0])
            return zip(column(E), *_evaluate(_exchanges(self, q0, self.p), E))

        size = max(1, EXCHANGE_BLOCK_ENTRIES // (5 * (2 * n + 1)))
        for start in range(0, len(q0s), size):
            stop = min(start + size, len(q0s))
            try:
                with np.errstate(divide="raise", over="raise", invalid="raise"):
                    chunk = list(borders(slice(start, stop)))
            except (FloatingPointError, NumericalError):
                chunk = (next(borders(slice(i, i + 1))) for i in range(start, stop))
            for E, border in zip(Es[start:stop].tolist(), chunk):
                self.born_blocks(E, out=(Znn[:n, :n], G[:n]))
                Znn[:, n], Znn[n, :n], G[n] = border
                yield E, Znn, G, self.core_eliminated(Znn, G, self.tau_c(E).real, out=P)

    def with_epsilon2(self, eps2_keV: float) -> _Engine:
        """This engine at another n-core eps2 (the scattering length follows),
        sharing its exchange blocks: they depend on the masses and betas only."""
        if self.window_top is None:  # no n+dimer threshold to move
            raise ConfigurationError("an n+dimer threshold requires a bound n-core channel")
        nc = replace(self.config.nc_channel, epsilon2_keV=eps2_keV, scattering_length_fm=None)
        eng = _Engine(replace(self.config, nc_channel=nc), self.grid)
        eng._exchange = self.exchange()
        return eng

    def core_eliminated(self, Znn, Znc, tau_c, out=None) -> np.ndarray:
        """P = 2 G G^T - Z_nn, G = Z_nc diag(sqrt(-tau_c u)) written over Z_nc
        (rows: neutron momenta, columns: the grid), into out if given: the
        core amplitude eliminated, for trimer levels and scattering alike."""
        if np.any(tau_c >= 0):
            raise NumericalError("propagator changed sign below threshold")
        Znc *= np.sqrt(-tau_c * self.u)  # G
        P = np.matmul(Znc, Znc.T, out=out)  # exactly symmetric: numpy takes syrk for G G^T
        P *= 2.0
        P -= Znn
        return P

    def reduced_kernel(self, E: float) -> np.ndarray:
        """M(E) = diag(s_n) P diag(s_n), P = 2 G G^T - Z_nn (core_eliminated).

        Below threshold all tau are real negative, and s = sqrt(-tau * u)
        turns K into S = [[S_nn, S_nc], [S_nc^T, 0]], real symmetric.  M - 1
        = S_nn + S_nc S_nc^T - 1 is the Schur complement of S - 1 on its core
        block: det(1 - K) = det(1 - M), and by Haynsworth inertia additivity
        M and S have as many eigenvalues above 1 at every E.
        """
        self.check_below_threshold(E)
        Znn, Znc = self.born_blocks(E)
        tau_n = self.tau_n(E).real
        tau_c = self.tau_c(E).real
        if np.any(tau_n >= 0):
            raise NumericalError("propagator changed sign below threshold")
        M = self.core_eliminated(Znn, Znc, tau_c)
        s_n = np.sqrt(-tau_n * self.u)
        M *= s_n[:, None]  # rows first, as in S: rounding moves beta within its noise
        M *= s_n
        if not np.isfinite(M).all():
            raise NumericalError(f"kernel at E = {E:.6g} MeV is not finite")
        return M

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


# Most entries in one row block of an exchange block, which holds its own
# terms: 128 KiB per array.  Half that lowered the peak allocation of an
# 80-point curve at N = 96 (2.1 to 1.6 MiB) but not the peak RSS of a
# `reproduce` run, and ran the scan and `reproduce` slower.
EXCHANGE_BLOCK_ENTRIES = 16384


class _Exchange:
    """Closed form of one s-wave projected one-particle-exchange block.

    Integrand is a product of three factors linear in x = cos(angle):
    the two form-factor denominators and the exchange propagator.
    Partial fractions give a sum of logarithms; the double-root branch
    handles the case of coincident form-factor denominators (exact on
    the diagonal of symmetric blocks).  Built once per momentum set; only
    A3, L3, D13 and D23 depend on E.
    """

    def __init__(self, q, qp, ca, cb, inv2mu_ag, inv2mu_bg, inv_mg, beta_a, beta_b):
        # Row blocks of at most EXCHANGE_BLOCK_ENTRIES entries, each built and
        # evaluated in one pass over its own terms: every temporary stays
        # small, and an evaluation's only full-size array is its output (none,
        # given out=).  Each entry sees the same operations in the same order
        # as in a whole-array evaluation, so the result is bit-identical to one.
        self.inv_mg = inv_mg
        self.ca2, self.cb2 = 2.0 * ca, 2.0 * cb
        self.inv2mu_ag, self.inv2mu_bg = inv2mu_ag, inv2mu_bg
        self.shape = np.broadcast_shapes(np.shape(q), np.shape(qp))
        # as few row blocks as the limit allows, differing by one row at most
        n_rows = self.shape[0]
        count = -(-n_rows // max(1, EXCHANGE_BLOCK_ENTRIES // math.prod(self.shape[1:])))
        ends = [i * n_rows // count for i in range(count + 1)]
        # Each row block's five terms (A1 B3, A2 B3, B1 L1, B2 L2, D12) share one
        # array, all allocated before any temporary, so no freed temporary leaves
        # a resident hole between them (1 MiB of a curve's peak RSS at N = 384).
        self.dtype = np.result_type(q, qp, float)
        held = [np.empty((5, b - a) + self.shape[1:], self.dtype) for a, b in zip(ends, ends[1:])]
        self.blocks = []  # (rows, q, qp, terms, confluent), q and qp sliced by row
        for rows, terms in zip(map(slice, ends, ends[1:]), held):
            q_rows, qp_rows = self._rows(q, rows), self._rows(qp, rows)
            # the form-factor denominators A1 + B1 x and A2 + B2 x
            A1 = qp_rows**2 + cb**2 * q_rows**2 + beta_a**2
            B1 = self.cb2 * q_rows * qp_rows
            A2 = q_rows**2 + ca**2 * qp_rows**2 + beta_b**2
            B2 = self.ca2 * q_rows * qp_rows
            B3 = -q_rows * qp_rows * inv_mg
            D12 = np.subtract(A1 * B2, A2 * B1, out=terms[4])
            # coincident form-factor denominators: confluent partial fractions
            d = np.nonzero(np.abs(D12) <= 1e-10 * (np.abs(A1 * B2) + np.abs(A2 * B1)))
            A = 0.5 * (A1[d] + A2[d])
            B = 0.5 * (B1[d] + B2[d])
            np.multiply(A1, B3, out=terms[0])
            np.multiply(A2, B3, out=terms[1])
            np.multiply(B1, np.log((A1 + B1) / (A1 - B1)), out=terms[2])
            np.multiply(B2, np.log((A2 + B2) / (A2 - B2)), out=terms[3])
            confluent = (d, A, B, np.log((A + B) / (A - B)), A**2 - B**2)
            self.blocks.append((rows, q_rows, qp_rows, terms, confluent))

    def _rows(self, x, rows):
        """Rows of a factor that varies along the first axis; others as they are."""
        return x[rows] if np.ndim(x) == len(self.shape) and np.shape(x)[0] > 1 else x

    def __call__(self, E, out=None):
        """The block at E (a scalar, or a column of one E per row), written
        into out if given; float for real E, complex for complex E."""
        if out is None:
            out = np.empty(self.shape, dtype=np.result_type(E, self.dtype))
        # an overflow anywhere in the closed form is a numerical failure,
        # not a finite block; the divide/invalid entries are replaced below
        try:
            with np.errstate(over="raise", divide="ignore", invalid="ignore"):
                for rows, q, qp, (A1B3, A2B3, B1L1, B2L2, D12), confluent in self.blocks:
                    A3 = self._rows(E, rows) - q**2 * self.inv2mu_ag - qp**2 * self.inv2mu_bg
                    B3 = -q * qp * self.inv_mg
                    L3 = np.log((A3 + B3) / (A3 - B3))
                    D13 = A1B3 - A3 * (self.cb2 * q * qp)
                    D23 = A2B3 - A3 * (self.ca2 * q * qp)
                    block = out[rows]
                    np.add(B1L1 / (D12 * D13) - B2L2 / (D12 * D23), B3 * L3 / (D13 * D23),
                           out=block)
                    d, A, B, LA, A2B2 = confluent
                    if A.size:  # the confluent entries, from the same A3, B3, L3
                        A3, B3, L3 = A3[d], B3[d], L3[d]
                        c = B3**2 / (A * B3 - B * A3) ** 2
                        b = B / (B * A3 - A * B3)
                        a = -c * B / B3
                        block[d] = a * LA / B + 2.0 * b / A2B2 + c * L3 / B3
        except FloatingPointError as exc:
            at = " to ".join(dict.fromkeys(f"{e:.6g}" for e in (np.min(E), np.max(E))))
            raise NumericalError(f"exchange kernel at E = {at} MeV: {exc}") from exc
        return out


def _exchanges(eng: _Engine, q, qp) -> tuple[_Exchange, _Exchange]:
    """The Z_nn and Z_nc exchange blocks at the momenta q, qp (MeV), broadcast.

    Identical bosons (A = 1, beta_nn = beta_nc) give both blocks the same
    closed-form parameters: then one block serves as both."""
    nn, nc = eng.exchange_parameters
    Znn = _Exchange(q, qp, *nn)
    return Znn, Znn if nc == nn else _Exchange(q, qp, *nc)


def _evaluate(pair: tuple[_Exchange, _Exchange], E, out=(None, None)):
    """Z_nn and Z_nc of an exchange pair at E, written into out's arrays if
    given.  A block shared by both is evaluated once and copied, so Z_nc
    owns its memory (core_eliminated writes G over it)."""
    Znn, Znc = pair
    nn = Znn(E, out=out[0])
    if Znc is not Znn:
        return nn, Znc(E, out=out[1])
    if out[1] is None:
        return nn, nn.copy()
    out[1][...] = nn
    return nn, out[1]


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
    first root search, so import trihalo and the commands that search no
    root (twobody, scatter, fit) never pay for loading its package.
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
