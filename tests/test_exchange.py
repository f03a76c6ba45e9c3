"""The closed-form exchange (Born) blocks: brute-force angular quadrature as
the oracle, bit identity of the row-blocked evaluation with a whole-array
evaluation of the same closed form, and one block for both when the
bosons are identical."""

import functools
import tracemalloc

import numpy as np
import pytest

from trihalo import _engine
from trihalo.model import (
    NUCLEON_MASS,
    default_c20_config,
    parse_system_config,
    unitary_boson_config,
)
from trihalo.quadrature import build_grid
from trihalo._engine import EXCHANGE_BLOCK_ENTRIES, _exchanges
from trihalo.spectrum import _Engine


@functools.cache
def grid_engine(n):
    return _Engine(default_c20_config(250.0, 1.0), build_grid(n, 0.1))


@pytest.fixture(scope="module")
def engine():
    return grid_engine(200)


def confluent_indices(Z):
    """Each row block's confluent indices, in row-block order."""
    return [d for *_, (d, *_) in Z.blocks]


def linear_factors(q, qp, E, ca, cb, inv2mu_ag, inv2mu_bg, inv_mg, beta_a, beta_b):
    """(A_i, B_i) of the three factors A_i + B_i x of the integrand, x = cos(angle):
    the two form-factor denominators and the exchange propagator."""
    return (
        (qp**2 + cb**2 * q**2 + beta_a**2, 2.0 * cb * q * qp),
        (q**2 + ca**2 * qp**2 + beta_b**2, 2.0 * ca * q * qp),
        (E - q**2 * inv2mu_ag - qp**2 * inv2mu_bg, -q * qp * inv_mg),
    )


def whole_array(q, qp, E, *args):
    """The closed form evaluated over the whole broadcast array at once:
    partial fractions, and the confluent branch where the form-factor
    denominators coincide.  The row blocks must equal it bit for bit."""
    (A1, B1), (A2, B2), (A3, B3) = linear_factors(q, qp, E, *args)
    with np.errstate(divide="ignore", invalid="ignore"):
        L3 = np.log((A3 + B3) / (A3 - B3))
        D12 = A1 * B2 - A2 * B1
        D13 = A1 * B3 - A3 * B1
        D23 = A2 * B3 - A3 * B2
        out = (
            B1 * np.log((A1 + B1) / (A1 - B1)) / (D12 * D13)
            - B2 * np.log((A2 + B2) / (A2 - B2)) / (D12 * D23)
            + B3 * L3 / (D13 * D23)
        )
        d = np.nonzero(np.abs(D12) <= 1e-10 * (np.abs(A1 * B2) + np.abs(A2 * B1)))
        A, B = 0.5 * (A1[d] + A2[d]), 0.5 * (B1[d] + B2[d])
        A3, B3, L3 = A3[d], B3[d], L3[d]
        c = B3**2 / (A * B3 - B * A3) ** 2
        b = B / (B * A3 - A * B3)
        a = -c * B / B3
        out[d] = a * np.log((A + B) / (A - B)) / B + 2.0 * b / (A**2 - B**2) + c * L3 / B3
    return out


def same_bits(a, b):
    return (
        a.dtype == b.dtype and a.shape == b.shape
        and np.ascontiguousarray(a).tobytes() == np.ascontiguousarray(b).tobytes()
    )


@pytest.mark.parametrize("E", [-0.25, -5.0])
def test_exchange_blocks_match_angular_quadrature(engine, E):
    # Z(q, q') = int_-1^1 dx / prod_i (A_i + B_i x), by 400-point
    # Gauss-Legendre.  Pairs with q q' << beta^2 are left out: there the
    # log-ratio terms of the partial fractions cancel, and the closed form
    # was measured up to 30% off (ROADMAP item 8 (a)).  The diagonal stays
    # in: on it Z_nn takes the confluent branch.
    x, w = np.polynomial.legendre.leggauss(400)
    k = np.geomspace(1e-2, 2e3, 15)  # MeV
    q, qp = (a.ravel() for a in np.meshgrid(k, k, indexing="ij"))
    for args, block in zip(engine.exchange_parameters, ("nn", "nc")):
        keep = q * qp >= 1e-2 * max(args[-2:]) ** 2
        Z = _engine._Exchange(q[keep], qp[keep], *args)
        assert np.any(q[keep] == qp[keep])
        if block == "nn":  # the confluent branch is checked
            assert sum(d[0].size for d in confluent_indices(Z)) > 0
        factors = linear_factors(q[keep], qp[keep], E, *args)
        integrand = np.prod([A + B * x[:, None] for A, B in factors], axis=0)
        reference = w @ (1.0 / integrand)
        assert np.max(np.abs(Z(E) / reference - 1.0)) <= 1e-9, block


@pytest.mark.parametrize("E", [-0.25, -5.0, complex(-1.0, 0.5)])
@pytest.mark.parametrize("n, count", [(96, 1), (160, 2), (200, 3), (384, 10)])
def test_row_blocked_grid_blocks_equal_whole_array(n, count, E):
    # 1, 2, 3 and 10 row blocks: the 96-node grid of `reproduce`, the 160
    # nodes of the ladder and the scan, 200 nodes, and the 384 of `scatter`
    eng = grid_engine(n)
    p = eng.p
    for Z, args in zip(eng.exchange(), eng.exchange_parameters):
        sizes = [rows.stop - rows.start for rows, *_ in Z.blocks]
        assert len(sizes) == count and max(sizes) - min(sizes) <= 1
        if n == 200:
            assert sizes == [66, 67, 67]
        assert same_bits(Z(E), whole_array(p[:, None], p[None, :], E, *args))
    # Z_nn's whole diagonal takes the confluent branch (at N = 384 so do a
    # few entries next to it, where the smallest nodes lie close), so every
    # row block evaluates confluent entries
    Znn = eng.exchange()[0]
    assert all(d[0].size > 0 for d in confluent_indices(Znn))
    confluent = {(rows.start + i, j) for rows, *_, (d, *_) in Znn.blocks for i, j in zip(*d)}
    assert {(i, i) for i in range(n)} <= confluent
    if n == 200:
        assert len(confluent) == n


def test_curve_borders_equal_per_energy_whole_array(engine):
    # each energy's on-shell system from the engine, its q0 border built a
    # chunk of energies at a time (8 at N = 200), equals the closed form on
    # that energy's momenta p + {q0} alone, core-eliminated: Z_nn on
    # (p + {q0}) x (p + {q0}), Z_nc on (p + {q0}) x p, then G and P
    q0 = np.geomspace(1e-2, 20.0, 90)  # MeV
    Ecm = q0**2 / (2.0 * engine.M_n)
    E = engine.threshold + Ecm
    p, n = engine.p, engine.grid.count
    nn, nc = engine.exchange_parameters
    systems = [(e, Znn.copy(), G.copy(), P.copy())
               for e, Znn, G, P in engine.on_shell_systems(Ecm, q0)]
    assert len(systems) == len(q0)
    refs = []
    for i, (e, *system) in enumerate(systems):
        pe = np.append(p, q0[i])
        Znn = whole_array(pe[:, None], pe[None, :], E[i], *nn)
        G = whole_array(pe[:, None], p[None, :], E[i], *nc)
        refs.append((Znn[:, n].copy(), Znn[n, :n].copy(), G[n].copy()))
        P = engine.core_eliminated(Znn, G, engine.tau_c(E[i]).real)
        assert e == E[i] and all(same_bits(a, b) for a, b in zip(system, (Znn, G, P))), i
    # the border blocks over all 90 energies at once take two row blocks,
    # and their rows keep the bits
    column = np.hstack([np.broadcast_to(p, (len(q0), n)), q0[:, None]])
    for Z, part in ((_engine._Exchange(column, q0[:, None], *nn), 0),
                    (_engine._Exchange(q0[:, None], p, *nc), 2)):
        assert len(Z.blocks) == 2
        rows = Z(E[:, None])
        assert all(same_bits(rows[i], ref[part]) for i, ref in enumerate(refs))


def test_exchange_writes_into_a_strided_out(engine):
    n, E = len(engine.p), -0.25
    B = np.full((n + 1, n + 1), 7.0)
    Znn = engine.exchange()[0]
    assert Znn(E, out=B[:n, :n]).base is B
    args = engine.exchange_parameters[0]
    assert same_bits(B[:n, :n], whole_array(engine.p[:, None], engine.p[None, :], E, *args))
    assert np.all(B[n] == 7.0) and np.all(B[:, n] == 7.0)


def test_exchange_pair_memory():
    # the grid pair at N = 384 (10 row blocks) holds its five terms per
    # entry and little else; building it and evaluating it with out= keep
    # only a few row blocks of temporaries alive at a time.  The A = 1 pair
    # of identical bosons at N = 160 (2 row blocks) holds one block's five
    # terms: one block serves as Z_nn and Z_nc.
    block = 8 * EXCHANGE_BLOCK_ENTRIES
    for config, n, terms in ((default_c20_config(250.0, 1.0), 384, 10),
                             (unitary_boson_config(), 160, 5)):
        eng = _Engine(config, build_grid(n, 0.1))
        out = tuple(np.empty((n, n)) for _ in range(2))
        tracemalloc.start()
        try:
            start = tracemalloc.get_traced_memory()[0]
            eng.exchange()
            held, build_peak = (m - start for m in tracemalloc.get_traced_memory())
            tracemalloc.reset_peak()
            before = tracemalloc.get_traced_memory()[0]
            eng.born_blocks(-0.25, out=out)
            eval_peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        assert held <= 1.02 * terms * 8 * n * n, n
        assert build_peak - held <= 12 * block, n
        assert eval_peak <= 9 * block, n


def own_nc_block(eng):
    """Z_nc on the grid, built on its own from its closed-form parameters."""
    m_n, p = NUCLEON_MASS, eng.p
    return _engine._Exchange(
        p[:, None], p[None, :], 0.5, eng.m_c / (eng.m_c + m_n),
        1.0 / (2.0 * eng.mu_nn), 1.0 / (2.0 * eng.mu_nc), 1.0 / m_n,
        eng.beta_nc, eng.beta_nn,
    )


def unequal_betas():
    """unitary_boson_config() (A = 1, a = -1e4 fm, beta 16 fm^-1) but for an
    n-n beta of 15 fm^-1."""
    pair = {"pole": "virtual", "scattering_length_fm": -1.0e4, "beta_inv_fm": 16.0}
    return parse_system_config(
        {"core_mass_number": 1, "nc": pair, "nn": {**pair, "beta_inv_fm": 15.0}}
    )


@pytest.mark.parametrize(
    "config, shared",
    [(unitary_boson_config(), True), (unequal_betas(), False), (default_c20_config(), False)],
    ids=["unitary-bosons", "unequal-betas", "c20"],
)
def test_identical_bosons_share_one_exchange_block(monkeypatch, config, shared):
    # identical bosons give Z_nn and Z_nc one closed form: one block serves
    # both, it is evaluated once per kernel, and Z_nc still gets its own
    # array, equal bit for bit to a Z_nc block built on its own
    eng = _Engine(config, build_grid(160, 0.03))
    Znn, Znc = _exchanges(eng, eng.p[:, None], eng.p[None, :])
    assert (Znn is Znc) is shared
    assert (eng.exchange()[0] is eng.exchange()[1]) is shared
    E = -1.0
    reference = own_nc_block(eng)(E)
    nn, nc = eng.born_blocks(E)
    assert same_bits(nc, reference) and not np.shares_memory(nn, nc)
    out = tuple(np.full((eng.grid.count,) * 2, 7.0) for _ in range(2))
    assert all(a is b for a, b in zip(eng.born_blocks(E, out=out), out))
    assert same_bits(out[1], reference) and same_bits(out[0], nn)
    calls = []
    evaluate = _engine._Exchange.__call__

    def counted(self, E, out=None):
        calls.append(self)
        return evaluate(self, E, out=out)

    monkeypatch.setattr(_engine._Exchange, "__call__", counted)
    for E in (-1.0, -2.0, -3.0):
        eng.eigenvalues(E)
    assert len(calls) == 3 * (1 if shared else 2)
