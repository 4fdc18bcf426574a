"""Unit tests for the Hilbert-space substrate."""

import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from _dense import dense_embed, dense_matrix
from otoc_thermalize.hilbert import (
    ManyBodySetup,
    Projector,
    UnitarySource,
    _on_sites,
    conjugate,
    contract_isometry,
    derive_rng,
    embed_isometry,
    evolve,
    evolve_basis,
    evolve_basis_series,
    gue_hamiltonian,
    sample_haar_state,
    sample_haar_unitary,
)

UNITARITY_TOL = 1e-10  # times the dimension


def test_sample_dim_one_is_pure_phase():
    u = sample_haar_unitary(1, seed=0)
    assert u.shape == (1, 1)
    assert abs(abs(u[0, 0]) - 1.0) <= 1e-14


def test_sampler_deterministic_under_seed():
    a = sample_haar_unitary(8, seed=1234)
    b = sample_haar_unitary(8, seed=1234)
    assert np.array_equal(a, b)


def test_sampler_rejects_bad_dim():
    with pytest.raises(ValueError):
        sample_haar_unitary(0)


@pytest.mark.parametrize("dim, m", [(1, 1), (16, 16), (64, 1), (64, 64),
                                    (100, 7), (256, 16), (256, 128)])
def test_sampler_columns_are_the_leading_columns_of_the_full_draw(dim, m):
    rng_thin, rng_full = np.random.default_rng(dim), np.random.default_rng(dim)
    thin = sample_haar_unitary(dim, rng=rng_thin, columns=m)
    full = sample_haar_unitary(dim, rng=rng_full)
    assert thin.shape == (dim, m)
    if m == dim:
        assert np.array_equal(thin, full)
    else:
        # the thin and the full QR may round differently in the last ulp
        np.testing.assert_allclose(thin, full[:, :m], rtol=0, atol=1e-12)
    # layout pin: column j is row j of an m x 2D normal draw, so a thin draw
    # consumes exactly 2 D m Gaussians
    rng_pin = np.random.default_rng(dim)
    rng_pin.standard_normal(2 * dim * m)
    assert rng_thin.bit_generator.state == rng_pin.bit_generator.state


@pytest.mark.parametrize("columns", [0, -1, 9])
def test_sampler_rejects_columns_out_of_range(columns):
    with pytest.raises(ValueError, match="columns"):
        sample_haar_unitary(8, seed=0, columns=columns)


@settings(max_examples=20, deadline=None)
@given(st.integers(min_value=1, max_value=24), st.integers(0, 2 ** 31))
def test_sampler_unitary_any_dim(dim, seed):
    u = sample_haar_unitary(dim, seed=seed)
    assert np.linalg.norm(u.conj().T @ u - np.eye(dim)) <= UNITARITY_TOL * dim


@pytest.mark.parametrize("dim", [1, 2, 8, 32])
@pytest.mark.parametrize("columns", [None, "half"])
def test_sampler_stack_equals_consecutive_draws(dim, columns):
    m = None if columns is None else max(1, dim // 2)
    rng_stack, rng_seq = np.random.default_rng(dim), np.random.default_rng(dim)
    stack = sample_haar_unitary(dim, rng=rng_stack, columns=m, count=9)
    assert stack.shape == (9, dim, m or dim)
    for q in stack:
        single = sample_haar_unitary(dim, rng=rng_seq, columns=m)
        assert q.tobytes() == single.tobytes()
    assert rng_stack.bit_generator.state == rng_seq.bit_generator.state


def test_sampler_empty_stack_leaves_the_generator_untouched():
    rng = np.random.default_rng(3)
    state = rng.bit_generator.state
    assert sample_haar_unitary(8, rng=rng, columns=3, count=0).shape == (0, 8, 3)
    assert rng.bit_generator.state == state


@pytest.mark.parametrize("count", [-1, 2.5, 2.0, "3"])
def test_sampler_rejects_a_bad_count(count):
    with pytest.raises(ValueError, match="count"):
        sample_haar_unitary(8, seed=0, count=count)


def test_derive_rng_streams_are_independent_and_stable():
    a = derive_rng(7, "stream", 0).standard_normal(4)
    b = derive_rng(7, "stream", 1).standard_normal(4)
    a2 = derive_rng(7, "stream", 0).standard_normal(4)
    assert np.array_equal(a, a2)
    assert not np.array_equal(a, b)


def test_haar_state_normalized():
    v = sample_haar_state(16, seed=3)
    assert abs(np.linalg.norm(v) - 1.0) <= 1e-12


def test_gue_is_hermitian_with_semicircle_scale():
    h = gue_hamiltonian(256, seed=11)
    assert np.linalg.norm(h - h.conj().T) == 0.0
    evals = np.linalg.eigvalsh(h)
    # spectrum concentrates in [-2, 2] for this normalization
    assert evals.min() > -2.5 and evals.max() < 2.5
    assert evals.max() > 1.5


class TestProjector:
    def test_validate_passes_for_true_projector(self):
        Projector.coordinate(8, 3).validate()

    def test_validate_rejects_non_idempotent(self):
        # V V^dag = diag(1/2, 1/2, 0, 0) is not idempotent
        with pytest.raises(ValueError, match="orthonormal"):
            Projector.from_isometry(np.sqrt(0.5) * np.eye(4, 2))

    def test_validate_rejects_wrong_rank(self):
        # V V^dag = diag(1, 1, 0, 0) has trace 2, not the 3 columns of V
        with pytest.raises(ValueError, match="orthonormal"):
            Projector.from_isometry(np.diag([1.0, 1.0, 0.0, 0.0])[:, :3])

    def test_validate_runs_at_construction(self, monkeypatch):
        calls = []
        validate = Projector.validate
        monkeypatch.setattr(Projector, "validate",
                            lambda self: calls.append(self.rank) or validate(self))
        Projector.coordinate(4, 2)
        conjugate(Projector.from_isometry(np.eye(4, 3)), np.eye(4))
        assert calls == [2, 3, 3]

    def test_rejects_nonfinite_entries(self):
        with pytest.raises(ValueError, match="finite"):
            Projector.from_isometry(np.array([[np.nan], [0.0]]))

    def test_rejects_more_columns_than_rows(self):
        with pytest.raises(ValueError, match="orthonormal"):
            Projector.from_isometry(np.eye(2, 3))

    @pytest.mark.parametrize("rank", [-1, 9])
    def test_coordinate_rejects_a_rank_outside_0_to_dim(self, rank):
        with pytest.raises(ValueError, match=f"rank {rank} out of range"):
            Projector.coordinate(8, rank)

    @pytest.mark.parametrize("rank", [0, 3, 8])
    def test_coordinate_is_the_leading_identity_columns(self, rank):
        p = Projector.coordinate(8, rank)
        assert (p.dim, p.rank) == (8, rank)
        np.testing.assert_array_equal(p.basis, np.eye(8)[:, :rank])

    def test_from_isometry(self):
        v = np.linalg.qr(np.random.default_rng(0).standard_normal((6, 2)))[0]
        p = Projector.from_isometry(v)
        assert p.rank == 2
        p.validate()

    @pytest.mark.parametrize("shape", [(6,), (2, 6, 1), (0, 0), (0, 2)])
    def test_from_isometry_rejects_non_matrix_input(self, shape):
        v = np.zeros(shape, dtype=complex)
        if v.size:
            v.flat[0] = 1.0
        with pytest.raises(ValueError, match=f"2-D.*{re.escape(str(shape))}"):
            Projector.from_isometry(v)

    @pytest.mark.parametrize("dim, rank", [(8, 2), (1024, 4)])
    def test_from_isometry_rejects_a_trace_off_by_2e_8(self, dim, rank):
        # E = V^dag V - 1 = diag(2e-8, 0, ...), past both the old trace check
        # and min(IDEMPOTENCE_TOL * D, RANK_TOL / sqrt(r))
        v = np.eye(dim, rank, dtype=complex)
        v[0, 0] = np.sqrt(1.0 + 2e-8)
        with pytest.raises(ValueError, match="orthonormal"):
            Projector.from_isometry(v)

    @pytest.mark.parametrize("dim, rank", [(8, 2), (1024, 4)])
    def test_from_isometry_accepts_a_defect_just_inside_the_bound(self, dim, rank):
        bound = min(1e-10 * dim, 1e-8 / np.sqrt(rank))
        v = np.eye(dim, rank, dtype=complex)
        v[0, 0] = np.sqrt(1.0 + 0.9 * bound)
        p = Projector.from_isometry(v)
        assert np.linalg.norm(v.conj().T @ v - np.eye(rank)) <= bound
        p.validate()

    def test_from_isometry_keeps_a_copy_of_the_basis(self):
        v = np.linalg.qr(np.random.default_rng(1).standard_normal((6, 2)))[0]
        p = Projector.from_isometry(v)
        np.testing.assert_array_equal(p.basis, v)
        assert not np.shares_memory(p.basis, v)
        with pytest.raises(ValueError, match="read-only"):
            p.basis[0, 0] = 0.0


class TestManyBodySetup:
    def test_derived_dimensions(self):
        s = ManyBodySetup(10, 1, 5, np.array([1.0, 0.0]),
                          np.eye(32)[:, 0].astype(float))
        assert (s.dim, s.d_s, s.d_sigma) == (1024, 2, 32)
        assert s.d_eta == s.d_rho == 32
        assert s.d_env == s.d_r == 512

    def test_rejects_bad_nesting(self):
        with pytest.raises(ValueError, match="n_observed"):
            ManyBodySetup(3, 2, 1, np.eye(4)[:, 0], np.array([1.0, 0.0]))

    def test_rejects_unnormalized_state(self):
        with pytest.raises(ValueError, match="unit-norm"):
            ManyBodySetup(2, 1, 1, np.array([1.0, 1.0]), np.array([1.0, 0.0]))

    def test_rejects_a_nan_state(self):
        with pytest.raises(ValueError, match="unit-norm"):
            ManyBodySetup(2, 1, 1, np.array([np.nan, 0.0]), np.array([1.0, 0.0]))

    def test_rejects_duplicate_sites(self):
        with pytest.raises(ValueError, match="duplicates"):
            ManyBodySetup(3, 2, 2, np.eye(4)[:, 0], np.eye(4)[:, 0],
                          observed_sites=(1, 1))

    def test_rejects_out_of_range_sites(self):
        with pytest.raises(ValueError, match="out of range"):
            ManyBodySetup(3, 1, 1, np.array([1.0, 0.0]), np.array([1.0, 0.0]),
                          core_sites=(3,))


def test_embed_full_register_is_rank_one():
    # N = N_S: no environment factor left over.
    chi = np.zeros(4)
    chi[2] = 1.0
    s = ManyBodySetup(2, 2, 2, chi, chi)
    p = dense_embed(s, "observable")
    assert p.rank == 1
    np.testing.assert_allclose(dense_matrix(p), np.outer(chi, chi), atol=1e-14)


def test_embed_entangled_core_is_projector():
    phi = np.array([1.0, 0.0, 0.0, 1.0]) / np.sqrt(2.0)
    s = ManyBodySetup(3, 1, 2, np.array([1.0, 0.0]), phi)
    p = dense_embed(s, "core")
    assert p.rank == 2
    p.validate()
    assert abs(np.trace(dense_matrix(p)).real - 2.0) <= 1e-12


def test_embed_isometry_columns_orthonormal():
    rng = np.random.default_rng(8)
    psi = sample_haar_state(8, rng=rng)
    s = ManyBodySetup(4, 1, 3, np.array([0.0, 1.0]), psi,
                      observed_sites=(2,), core_sites=(2, 0, 3))
    for which in ("observable", "core"):
        v = embed_isometry(s, which)
        n = v.shape[1]
        assert np.linalg.norm(v.conj().T @ v - np.eye(n)) <= 1e-12


def _site_permutation(sites, n_total):
    """Map canonical basis index j to the index in (sites, others) block order.

    Qubit 0 is the leftmost (most significant) tensor factor.
    """
    order = list(sites) + [q for q in range(n_total) if q not in sites]
    j = np.arange(2 ** n_total)
    out = np.zeros_like(j)
    for k, q in enumerate(order):
        bit = (j >> (n_total - 1 - q)) & 1
        out |= bit << (n_total - 1 - k)
    return out


def test_embed_isometry_equals_the_kron_construction():
    # the embedded isometry equals |state> (x) 1 with the site permutation
    # applied to its rows (the two may differ in the sign of a zero)
    rng = np.random.default_rng(9)
    setups = [
        ManyBodySetup(5, 1, 2, sample_haar_state(2, rng=rng), sample_haar_state(4, rng=rng)),
        ManyBodySetup(6, 2, 4, sample_haar_state(4, rng=rng), sample_haar_state(16, rng=rng),
                      observed_sites=(3, 1), core_sites=(0, 5, 2, 4)),
        ManyBodySetup(4, 4, 4, sample_haar_state(16, rng=rng), sample_haar_state(16, rng=rng)),
    ]
    for s in setups:
        for which, state, sites in (("observable", s.observed_state, s.observed_sites),
                                    ("core", s.core_state, s.core_sites)):
            block = np.kron(state[:, None], np.eye(s.dim // len(state)))
            expected = block[_site_permutation(sites, s.n_total)]
            assert np.array_equal(embed_isometry(s, which), expected)


def test_embed_rejects_unknown_factor():
    s = ManyBodySetup(2, 1, 1, np.array([1.0, 0.0]), np.array([1.0, 0.0]))
    with pytest.raises(ValueError, match="which"):
        embed_isometry(s, "bath")
    with pytest.raises(ValueError, match="which"):
        contract_isometry(s, "bath", np.eye(4))


def _random_setups(rng):
    """Setups at D <= 2^7 with non-leading and non-contiguous factor sites."""
    return [
        ManyBodySetup(5, 1, 3, sample_haar_state(2, rng=rng), sample_haar_state(8, rng=rng),
                      observed_sites=(3,), core_sites=(4, 1, 3)),
        ManyBodySetup(6, 2, 4, sample_haar_state(4, rng=rng), sample_haar_state(16, rng=rng),
                      observed_sites=(5, 2), core_sites=(0, 5, 2, 4)),
        ManyBodySetup(7, 2, 2, sample_haar_state(4, rng=rng), sample_haar_state(4, rng=rng),
                      observed_sites=(1, 6), core_sites=(6, 3)),
    ]


@pytest.mark.parametrize("which", ["observable", "core"])
def test_contract_isometry_equals_the_adjoint_isometry_product(which):
    rng = np.random.default_rng(21)
    for s in _random_setups(rng):
        block = rng.standard_normal((s.dim, 3)) + 1j * rng.standard_normal((s.dim, 3))
        expected = embed_isometry(s, which).conj().T @ block
        np.testing.assert_allclose(contract_isometry(s, which, block), expected,
                                   rtol=0, atol=1e-12)


@pytest.mark.parametrize("which", ["observable", "core"])
def test_contract_isometry_undoes_the_site_placement(which):
    rng = np.random.default_rng(22)
    for s in _random_setups(rng):
        state, sites = ((s.observed_state, s.observed_sites) if which == "observable"
                        else (s.core_state, s.core_sites))
        x = rng.standard_normal((s.dim // len(state), 5)) + 0j
        placed = _on_sites(state, sites, s.n_total, x)
        np.testing.assert_allclose(contract_isometry(s, which, placed), x,
                                   rtol=0, atol=1e-12)


def test_contract_isometry_rejects_a_block_of_the_wrong_height():
    s = ManyBodySetup(3, 1, 2, np.array([1.0, 0.0]), np.eye(4)[:, 0])
    with pytest.raises(ValueError, match="8 x r"):
        contract_isometry(s, "core", np.eye(4))


class TestEvolve:
    def test_identity_at_time_zero(self):
        src = UnitarySource.hamiltonian(gue_hamiltonian(8, seed=0))
        np.testing.assert_allclose(evolve(src, 0.0), np.eye(8), atol=1e-14)

    def test_diagonal_hamiltonian_phase(self):
        src = UnitarySource.hamiltonian(np.diag([0.0, 1.0]))
        u = evolve(src, np.pi)
        np.testing.assert_allclose(u, np.diag([1.0, -1.0]), atol=1e-12)

    def test_group_law_on_random_time_pairs(self):
        src = UnitarySource.hamiltonian(gue_hamiltonian(12, seed=21))
        rng = np.random.default_rng(0)
        for t1, t2 in rng.uniform(-5, 5, size=(10, 2)):
            lhs = evolve(src, t1) @ evolve(src, t2)
            rhs = evolve(src, t1 + t2)
            assert np.linalg.norm(lhs - rhs) <= UNITARITY_TOL * 12

    def test_rejects_non_hermitian_hamiltonian(self):
        with pytest.raises(ValueError, match="Hermitian"):
            UnitarySource.hamiltonian(np.array([[0.0, 1.0], [0.0, 0.0]]))

    def test_rejects_a_nan_hamiltonian(self):
        # eigh reads one triangle only, so the NaN must fail the hermiticity check
        h = np.eye(4)
        h[1, 2] = np.nan
        with pytest.raises(ValueError, match="Hermitian"):
            UnitarySource.hamiltonian(h)

    def test_ensemble_sources_need_integer_times(self):
        src = UnitarySource.haar_cue(4, seed=0)
        with pytest.raises(ValueError, match="integer"):
            evolve(src, 0.5)
        with pytest.raises(ValueError, match="integer"):
            evolve(src, -1)

    def test_cue_times_give_independent_unitaries(self):
        src = UnitarySource.haar_cue(8, seed=3)
        u1, u2 = evolve(src, 1), evolve(src, 2)
        assert np.linalg.norm(u1 - u2) > 0.1

    def test_circuit_prefix_consistent_after_cache_advance(self):
        src = UnitarySource.circuit(3, seed=5)
        u3 = evolve(src, 3)
        u2_after = evolve(src, 2)  # earlier time than the cached product
        u2_fresh = evolve(UnitarySource.circuit(3, seed=5), 2)
        assert np.array_equal(u2_after, u2_fresh)
        # consecutive times differ by one unitary brickwork layer
        layer = u3 @ u2_after.conj().T
        assert np.linalg.norm(layer.conj().T @ layer - np.eye(8)) <= 1e-10 * 8

    def test_circuit_unitarity(self):
        src = UnitarySource.circuit(5, seed=7)
        u = evolve(src, 4)
        assert np.linalg.norm(u.conj().T @ u - np.eye(32)) <= UNITARITY_TOL * 32

    @pytest.mark.parametrize("n", range(2, 7))
    def test_circuit_equals_the_kron_brickwork(self, n):
        # independent oracle: layer l is the product of kron(1_{2^a}, gate,
        # 1_rest) over its pairs (a, a+1), a = l mod 2, l mod 2 + 2, ...
        seed = 40 + n
        u = np.eye(2 ** n, dtype=complex)
        for t in range(5):
            np.testing.assert_allclose(evolve(UnitarySource.circuit(n, seed), t), u,
                                       rtol=0, atol=1e-12)
            for slot, a in enumerate(range(t % 2, n - 1, 2)):
                gate = sample_haar_unitary(4, rng=derive_rng(seed, "layer", t, slot))
                u = np.kron(np.kron(np.eye(2 ** a), gate), np.eye(2 ** (n - a - 2))) @ u

    @pytest.mark.parametrize("source", [
        UnitarySource.hamiltonian(gue_hamiltonian(16, seed=2)),
        UnitarySource.haar_cue(16, seed=3),
        UnitarySource.circuit(4, seed=4),
    ], ids=lambda s: s.kind)
    def test_time_zero_block_is_a_copy_of_k(self, source):
        k = sample_haar_unitary(16, seed=5, columns=3)
        k_before = k.copy()
        for block in (evolve_basis(source, k, 0),
                      next(evolve_basis_series(source, k, [0, 2, 1]))):
            np.testing.assert_allclose(block, k, rtol=0, atol=1e-12)
            block[...] = 7.0
            assert np.array_equal(k, k_before)

    @pytest.mark.parametrize("k", [
        embed_isometry(ManyBodySetup(6, 1, 2, np.eye(2)[0], np.eye(4)[0]), "core"),
        sample_haar_unitary(64, seed=6, columns=5),
        embed_isometry(ManyBodySetup(6, 1, 2, np.eye(2)[0], np.eye(4)[0],
                                     core_sites=(3, 5)), "core"),
    ], ids=["leading-core", "isometry", "spread-core"])
    def test_cue_blocks_are_the_thin_draw_times_k(self, k):
        # the CLI core has k[:m] = 1 and skips the product; the result is the same
        m = int(np.flatnonzero(np.any(k != 0, axis=1))[-1]) + 1
        source = UnitarySource.haar_cue(64, seed=8)
        for t, block in zip([1, 2], evolve_basis_series(source, k, [1, 2])):
            draw = sample_haar_unitary(64, rng=derive_rng(8, "cue", t), columns=m)
            assert block.tobytes() == (draw @ k[:m]).tobytes()

    @pytest.mark.parametrize("n, times", [(2, [1, 2]), (4, [1, 1, 3])])
    def test_carried_circuit_blocks_are_read_only(self, n, times):
        # n = 2 has no gate in odd layers and a repeated time applies none,
        # so the series may yield one block object twice
        source = UnitarySource.circuit(n, seed=1 if n == 2 else 3)
        k = sample_haar_unitary(2 ** n, seed=5, columns=2)
        expected = [evolve_basis(source, k, t) for t in times]
        for block, want in zip(evolve_basis_series(source, k, times), expected):
            with pytest.raises(ValueError, match="read-only"):
                block[...] = 0.0
            np.testing.assert_allclose(block, want, rtol=0, atol=1e-12)


def test_conjugate_preserves_rank_and_trace():
    rng = np.random.default_rng(17)
    u = sample_haar_unitary(8, rng=rng)
    basis = np.linalg.qr(rng.standard_normal((8, 3))
                         + 1j * rng.standard_normal((8, 3)))[0]
    p = Projector.from_isometry(basis)
    q = conjugate(p, u)
    assert q.rank == 3
    assert abs(np.trace(dense_matrix(q)) - np.trace(dense_matrix(p))) <= 1e-12
    np.testing.assert_allclose(dense_matrix(q), u @ dense_matrix(p) @ u.conj().T,
                               rtol=0, atol=1e-12)


def test_conjugate_rejects_dimension_mismatch():
    p = Projector.coordinate(4, 2)
    with pytest.raises(ValueError, match="mismatch"):
        conjugate(p, np.eye(8))


@pytest.mark.parametrize("u, match", [
    (2.0 * np.eye(4), "orthonormal"),
    (np.eye(3, 4), "dimension mismatch"),  # U V would be an orthonormal 3 x 2 basis
    (np.eye(4, 3), "dimension mismatch"),
], ids=["non-unitary", "3x4", "4x3"])
def test_conjugate_rejects_a_non_unitary_or_misshapen_u(u, match):
    with pytest.raises(ValueError, match=match):
        conjugate(Projector.coordinate(4, 2), u)
