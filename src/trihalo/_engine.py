"""The kernel engine of the coupled spectator-function equations: exchange
blocks, propagators and the core elimination, in numpy alone.

An _Engine holds a (config, grid) pair's masses, thresholds and grid
measure, builds the grid's one-particle-exchange blocks (_Exchange, in
closed form) once, and assembles from them what both solvers read: the
reduced N x N kernel M(E), whose eigenproblem the spectrum module's
subclass solves with LAPACK, and the scattering module's on-shell systems
on p + {q0}.  Nothing here loads scipy, so scattering and fitting start
without it.
"""

from __future__ import annotations

import math
from dataclasses import replace

import numpy as np

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
    included, reuses the engine.  The spectrum module's subclass adds the
    eigen-solves of M(E).
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
        """This engine, of the same class, at another n-core eps2 (the
        scattering length follows), sharing its exchange blocks: they depend
        on the masses and betas only."""
        if self.window_top is None:  # no n+dimer threshold to move
            raise ConfigurationError("an n+dimer threshold requires a bound n-core channel")
        nc = replace(self.config.nc_channel, epsilon2_keV=eps2_keV, scattering_length_fm=None)
        eng = type(self)(replace(self.config, nc_channel=nc), self.grid)
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

