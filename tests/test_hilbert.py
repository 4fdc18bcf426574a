"""Unit tests for the Hilbert-space substrate."""

import ctypes
import math
import os
import re
import threading
import time
import tracemalloc
import types

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from _dense import (
    dense_embed,
    dense_matrix,
    dense_unitary,
    gue_hamiltonian,
    hamiltonian_source,
    haar_corner_by_slice,
    recording_pools,
)
from otoc_thermalize import hilbert
from otoc_thermalize.hilbert import (
    InvariantError,
    ManyBodySetup,
    Projector,
    UnitarySource,
    _on_sites,
    contract_isometry,
    derive_rng,
    embed_isometry,
    evolve_basis_series,
    haar_corner_stacks,
    sample_gue_eigensystem,
    sample_haar_unitary,
)
from otoc_thermalize.dynamics import HaarPrediction

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
    # a stack takes np.linalg.qr and a single draw LAPACK in place, where
    # numpy's OpenBLAS is found: this compares the two routes
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


#: (D, D_R, D_rho) corner layouts: generic, D_rho > D_R, D_R + D_rho > D
#: (R2 has fewer than D_rho rows), D_R + D_rho = D, D_R = D (no R2) and
#: D_sigma = 1 (D_rho = D).
CORNER_LAYOUTS = [(64, 32, 4), (64, 8, 16), (32, 2, 8), (16, 12, 8), (32, 24, 16),
                  (32, 16, 16), (32, 32, 8), (32, 16, 32), (16, 16, 16)]


@pytest.mark.parametrize("dim, rows, columns", CORNER_LAYOUTS)
def test_stacked_r_factors_have_the_corner_gram_of_the_full_qr(dim, rows, columns):
    # for one Ginibre G = [G1; G2], the top rows of the thin Q of [R1; R2]
    # have the corner Gram of QR(G) up to a diagonal phase conjugation
    rng = np.random.default_rng(dim + rows + columns)
    g = (rng.standard_normal((dim, columns))
         + 1j * rng.standard_normal((dim, columns))) / math.sqrt(2.0)
    corner = np.linalg.qr(g).Q[:rows]
    r = [np.linalg.qr(block).R for block in (g[:rows], g[rows:]) if len(block)]
    c = np.linalg.qr(np.vstack(r)).Q[:len(r[0])]
    m, m_c = (a.conj().T @ a for a in (corner, c))
    assert abs(np.trace(m) - np.trace(m_c)) <= 1e-12
    assert np.max(np.abs(np.abs(m) - np.abs(m_c))) <= 1e-12


def _corner_moments(corners, columns):
    """Per-draw (G2, G4, sigma2) of a stack of corners, from their Grams."""
    m = corners.conj().swapaxes(1, 2) @ corners
    g2 = np.trace(m, axis1=1, axis2=2).real / columns
    g4 = np.sum(np.abs(m) ** 2, axis=(1, 2)) / columns
    return np.stack([g2, g4, g4 - g2 ** 2], axis=1)


@pytest.mark.parametrize("dim, rows, columns", CORNER_LAYOUTS)
def test_haar_corners_match_the_slice_route_stat(dim, rows, columns):
    # [stat] the Bartlett sampler against the corner of a D-row Haar draw:
    # the means of G2, G4 and sigma2 agree within 4 standard errors of their
    # difference; on both routes mean G2 is D_R/D and var(G2) is var_g2
    # within 4 standard errors. A constant G2 (D_R = D or D_rho = D) is held
    # to roundoff
    n, floor = 2000, 1e-12
    law = _corner_moments(np.concatenate(list(haar_corner_stacks(
        dim, rows, columns, (derive_rng(41, "law", i) for i in range(n))))), columns)
    by_slice = _corner_moments(np.array([
        haar_corner_by_slice(dim, rows, columns, derive_rng(41, "slice", i))
        for i in range(n)]), columns)
    se = np.sqrt((law.var(axis=0, ddof=1) + by_slice.var(axis=0, ddof=1)) / n)
    assert np.all(np.abs(law.mean(axis=0) - by_slice.mean(axis=0)) <= 4 * se + floor)
    var_g2 = HaarPrediction(dim, dim / rows, dim / columns).var_g2
    for g2 in (law[:, 0], by_slice[:, 0]):
        assert abs(g2.mean() - rows / dim) <= 4 * math.sqrt(var_g2 / n) + floor
        centred = g2 - g2.mean()
        se_var = math.sqrt((np.mean(centred ** 4) - np.mean(centred ** 2) ** 2) / n)
        assert abs(g2.var(ddof=1) - var_g2) <= 4 * se_var + floor ** 2


@pytest.mark.parametrize("dim, rows, columns", [(64, 16, 8), (16, 4, 8), (16, 16, 4)])
def test_haar_corner_bytes_do_not_depend_on_the_stacking(monkeypatch, dim, rows, columns):
    def draws(entries):
        monkeypatch.setattr(hilbert, "STACK_ENTRIES", entries)
        rngs = (derive_rng(13, "corner", i) for i in range(40))
        stacks = list(haar_corner_stacks(dim, rows, columns, rngs))
        return len(stacks), [c.tobytes() for stack in stacks for c in stack]

    all_at_once, one_at_a_time = draws(2 ** 30), draws(1)
    assert (all_at_once[0], one_at_a_time[0]) == (1, 40)
    assert all_at_once[1] == one_at_a_time[1]


@pytest.mark.parametrize("dim, rows, columns", [(0, 1, 1), (8, 0, 2), (8, 9, 2),
                                                (8, 2, 0), (8, 2, 9)])
def test_haar_corners_reject_a_bad_layout(dim, rows, columns):
    with pytest.raises(ValueError, match="rows, columns"):
        next(haar_corner_stacks(dim, rows, columns, [np.random.default_rng(0)]))


def test_derive_rng_streams_are_independent_and_stable():
    a = derive_rng(7, "stream", 0).standard_normal(4)
    b = derive_rng(7, "stream", 1).standard_normal(4)
    a2 = derive_rng(7, "stream", 0).standard_normal(4)
    assert np.array_equal(a, a2)
    assert not np.array_equal(a, b)


def test_gue_is_hermitian_with_semicircle_scale():
    h = gue_hamiltonian(256, seed=11)
    assert np.linalg.norm(h - h.conj().T) == 0.0
    evals = np.linalg.eigvalsh(h)
    # spectrum concentrates in [-2, 2] for this normalization
    assert evals.min() > -2.5 and evals.max() < 2.5
    assert evals.max() > 1.5


def test_gue_eigensystem_has_the_semicircle_scale_and_a_unitary_basis():
    evals, evecs = sample_gue_eigensystem(256, np.random.default_rng(11))
    assert evals.shape == (256,) and np.all(np.diff(evals) >= 0)
    assert evals.min() > -2.5 and evals.max() < 2.5
    assert evals.max() > 1.5
    assert np.linalg.norm(evecs.conj().T @ evecs - np.eye(256)) <= 1e-10 * 256


def test_thin_gue_eigensystem_is_the_leading_columns_of_the_full_draw():
    # the spectrum comes first from the stream, so it is unchanged, and the
    # thin QR gives the full draw's leading columns to roundoff
    evals, evecs = sample_gue_eigensystem(64, np.random.default_rng(12))
    thin_evals, frame = sample_gue_eigensystem(64, np.random.default_rng(12), columns=8)
    assert np.array_equal(thin_evals, evals) and frame.shape == (64, 8)
    np.testing.assert_allclose(frame, evecs[:, :8], rtol=0, atol=1e-12)


def test_gue_eigensystem_rejects_bad_dim():
    with pytest.raises(ValueError, match="dimension"):
        sample_gue_eigensystem(0, np.random.default_rng(0))


def test_gue_eigensystem_of_dim_one_is_a_normal_energy_and_a_phase():
    evals, evecs = sample_gue_eigensystem(1, np.random.default_rng(3))
    assert evals.shape == (1,) and np.isfinite(evals[0])
    assert evecs.shape == (1, 1) and abs(abs(evecs[0, 0]) - 1.0) < 1e-14


@pytest.mark.parametrize("dim", [4, 8])
def test_gue_eigensystem_spectral_moments_stat(dim):
    # [stat] closed forms for E[H_ii^2] = E[|H_ij|^2] = 1/D: (1/D) sum E^2 is
    # chi^2 with D^2 degrees of freedom over D^2, so its mean is 1 and its
    # variance 2/D^2, and E[(1/D) sum E^4] = 2 + 1/D^2 (genus expansion);
    # each within 4 standard errors over 20,000 draws
    rng = derive_rng(2002, "gue-spectrum", dim)
    n = 20_000
    e = np.array([sample_gue_eigensystem(dim, rng)[0] for _ in range(n)])
    m2, m4 = np.mean(e ** 2, axis=1), np.mean(e ** 4, axis=1)
    assert abs(m2.mean() - 1.0) <= 4 * math.sqrt(2.0 / dim ** 2 / n)
    centred = m2 - m2.mean()
    var_se = math.sqrt((np.mean(centred ** 4) - np.mean(centred ** 2) ** 2) / n)
    assert abs(m2.var(ddof=1) - 2.0 / dim ** 2) <= 4 * var_se
    assert abs(m4.mean() - (2.0 + 1.0 / dim ** 2)) <= 4 * m4.std(ddof=1) / math.sqrt(n)


needs_openblas = pytest.mark.skipif(
    hilbert._openblas() is None,
    reason="numpy's bundled ILP64 OpenBLAS (libscipy_openblas64_) is not loaded, "
           "so the GUE spectrum takes the dense eigvalsh route")


@needs_openblas
@pytest.mark.parametrize("dim", [1, 2, 3, 256, 1024])
def test_dsterf_spectrum_equals_the_dense_fallback(monkeypatch, dim):
    for seed in range(3):
        fast = sample_gue_eigensystem(dim, np.random.default_rng(seed), columns=1)[0]
        with monkeypatch.context() as patch:
            patch.setattr(hilbert, "_openblas", lambda: None)
            dense = sample_gue_eigensystem(dim, np.random.default_rng(seed), columns=1)[0]
        assert np.array_equal(fast, dense)


def test_gue_tests_pass_on_the_dense_fallback(monkeypatch):
    # a build without the library draws the spectrum by dense eigvalsh
    calls = []
    eigvalsh = np.linalg.eigvalsh
    monkeypatch.setattr(hilbert, "_openblas", lambda: None)
    monkeypatch.setattr(np.linalg, "eigvalsh",
                        lambda a, **kw: calls.append(a.shape) or eigvalsh(a, **kw))
    test_gue_eigensystem_has_the_semicircle_scale_and_a_unitary_basis()
    test_thin_gue_eigensystem_is_the_leading_columns_of_the_full_draw()
    test_gue_eigensystem_rejects_bad_dim()
    test_gue_eigensystem_of_dim_one_is_a_normal_energy_and_a_phase()
    assert calls == [(256, 256), (64, 64), (64, 64), (1, 1)]


@needs_openblas
def test_gue_spectrum_forms_no_dim_squared_array():
    # one 1024 x 1024 float64 array is 8 MiB; dsterf reads the two diagonals
    rng = np.random.default_rng(0)
    tracemalloc.start()
    try:
        sample_gue_eigensystem(1024, rng, columns=1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1024 * 1024 * 8


@needs_openblas
@pytest.mark.parametrize("dim, m", [(1, 1), (2, 1), (8, 8), (256, 16), (1024, 512)])
def test_in_place_draw_equals_the_numpy_qr_draw(monkeypatch, dim, m):
    for seed in range(3):
        fast = sample_haar_unitary(dim, seed=seed, columns=m)
        with monkeypatch.context() as patch:
            patch.setattr(hilbert, "_openblas", lambda: None)
            dense = sample_haar_unitary(dim, seed=seed, columns=m)
        assert fast.flags.f_contiguous and dense.flags.c_contiguous
        assert np.array_equal(fast, dense)


@needs_openblas
def test_in_place_draw_holds_one_copy_of_its_result():
    # the 1024 x 512 complex result is 8 MiB; LAPACK factors it where it was drawn
    tracemalloc.start()
    try:
        sample_haar_unitary(1024, seed=0, columns=512)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.25 * 1024 * 512 * 16


def _fake_library(config=b"OpenBLAS 0.3 USE64BITINT DYNAMIC_ARCH", drop=None):
    names = ("scipy_openblas_get_config64_", "scipy_dsterf_64_", "scipy_zgeqrf_64_",
             "scipy_zungqr_64_", "scipy_openblas_get_num_threads64_",
             "scipy_openblas_set_num_threads64_")
    return types.SimpleNamespace(**{name: lambda *args: config
                                    for name in names if name != drop})


@pytest.mark.parametrize("paths, lib", [
    ([], None),
    (["libscipy_openblas64_-lp64.so"], _fake_library(b"OpenBLAS 0.3 DYNAMIC_ARCH")),
    (["libscipy_openblas64_-old.so"], _fake_library(drop="scipy_dsterf_64_")),
    (["libscipy_openblas64_-old.so"], _fake_library(drop="scipy_zgeqrf_64_")),
    (["libscipy_openblas64_-old.so"], _fake_library(drop="scipy_zungqr_64_")),
], ids=["no-library", "lp64-build", "missing-symbol", "missing-zgeqrf", "missing-zungqr"])
def test_openblas_is_found_only_as_the_known_ilp64_build(monkeypatch, paths, lib):
    monkeypatch.setattr(hilbert.glob, "glob", lambda pattern: paths)
    monkeypatch.setattr(hilbert.ctypes, "CDLL", lambda path: lib)
    assert hilbert._openblas.__wrapped__() is None
    monkeypatch.setattr(hilbert.ctypes, "CDLL", lambda path: _fake_library())
    assert (hilbert._openblas.__wrapped__() is None) == (not paths)


@needs_openblas
@pytest.mark.parametrize("diag, off", [(np.ones(3), np.ones(3)), (np.ones(0), np.ones(0)),
                                       (np.ones((2, 2)), np.ones(3))])
def test_dsterf_rejects_diagonals_of_mismatched_shape(diag, off):
    with pytest.raises(ValueError, match="off-diagonal of length D - 1"):
        hilbert._tridiagonal_eigvalsh(diag, off)


def test_dsterf_failure_is_an_invariant_error(monkeypatch):
    @ctypes.CFUNCTYPE(None, ctypes.c_void_p, ctypes.c_void_p, ctypes.c_void_p,
                      ctypes.POINTER(ctypes.c_int64))
    def failing(n, d, e, info):
        info[0] = 7

    monkeypatch.setattr(hilbert, "_openblas",
                        lambda: types.SimpleNamespace(dsterf=failing))
    with pytest.raises(InvariantError, match="dsterf .* info 7"):
        sample_gue_eigensystem(3, np.random.default_rng(0))


@needs_openblas
@pytest.mark.parametrize("a", [np.zeros((8, 3), dtype=complex),
                               np.zeros((3, 8), dtype=complex, order="F"),
                               np.zeros((8, 3), order="F"),
                               np.zeros((8, 0), dtype=complex, order="F")],
                         ids=["row-major", "wide", "real", "no-columns"])
def test_in_place_qr_takes_only_a_column_major_complex_tall_matrix(a):
    with pytest.raises(ValueError, match="column-major complex D x m"):
        hilbert._qr_in_place(hilbert._openblas(), a)


def test_zgeqrf_failure_is_an_invariant_error(monkeypatch):
    @ctypes.CFUNCTYPE(None, *[ctypes.c_void_p] * 7, ctypes.POINTER(ctypes.c_int64))
    def failing(m, n, a, lda, tau, work, lwork, info):
        info[0] = -4

    monkeypatch.setattr(hilbert, "_openblas",
                        lambda: types.SimpleNamespace(zgeqrf=failing))
    with pytest.raises(InvariantError, match="zgeqrf failed on a 8 x 3 matrix: info -4"):
        sample_haar_unitary(8, seed=0, columns=3)


def test_dense_fallback_failure_is_the_same_invariant_error(monkeypatch):
    def failing(a, **kw):
        raise np.linalg.LinAlgError("Eigenvalues did not converge")

    monkeypatch.setattr(hilbert, "_openblas", lambda: None)
    monkeypatch.setattr(np.linalg, "eigvalsh", failing)
    with pytest.raises(InvariantError, match="eigvalsh failed .* did not converge"):
        sample_gue_eigensystem(3, np.random.default_rng(0))


class TestProjector:
    def test_validate_passes_for_true_projector(self):
        Projector.coordinate(8, 3).validate()

    def test_validate_rejects_non_idempotent(self):
        # V V^dag = diag(1/2, 1/2, 0, 0) is not idempotent
        with pytest.raises(InvariantError, match="orthonormal"):
            Projector(np.sqrt(0.5) * np.eye(4, 2))

    def test_validate_rejects_wrong_rank(self):
        # V V^dag = diag(1, 1, 0, 0) has trace 2, not the 3 columns of V
        with pytest.raises(InvariantError, match="orthonormal"):
            Projector(np.diag([1.0, 1.0, 0.0, 0.0])[:, :3])

    def test_validate_runs_at_construction(self, monkeypatch):
        calls = []
        validate = Projector.validate
        monkeypatch.setattr(Projector, "validate",
                            lambda self: calls.append(self.rank) or validate(self))
        Projector.coordinate(4, 2)
        Projector(np.eye(4, 3))
        assert calls == [2, 3]

    def test_rejects_nonfinite_entries(self):
        with pytest.raises(ValueError, match="finite"):
            Projector(np.array([[np.nan], [0.0]]))

    def test_rejects_more_columns_than_rows(self):
        with pytest.raises(InvariantError, match="orthonormal"):
            Projector(np.eye(2, 3))

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
        p = Projector(v)
        assert p.rank == 2
        p.validate()

    @pytest.mark.parametrize("shape", [(6,), (2, 6, 1), (0, 0), (0, 2)])
    def test_from_isometry_rejects_non_matrix_input(self, shape):
        v = np.zeros(shape, dtype=complex)
        if v.size:
            v.flat[0] = 1.0
        with pytest.raises(ValueError, match=f"2-D.*{re.escape(str(shape))}"):
            Projector(v)

    @pytest.mark.parametrize("dim, rank", [(8, 2), (1024, 4)])
    def test_from_isometry_rejects_a_trace_off_by_2e_8(self, dim, rank):
        # E = V^dag V - 1 = diag(2e-8, 0, ...), past both the old trace check
        # and min(IDEMPOTENCE_TOL * D, RANK_TOL / sqrt(r))
        v = np.eye(dim, rank, dtype=complex)
        v[0, 0] = np.sqrt(1.0 + 2e-8)
        with pytest.raises(InvariantError, match="orthonormal"):
            Projector(v)

    @pytest.mark.parametrize("dim, rank", [(8, 2), (1024, 4)])
    def test_from_isometry_accepts_a_defect_just_inside_the_bound(self, dim, rank):
        bound = min(1e-10 * dim, 1e-8 / np.sqrt(rank))
        v = np.eye(dim, rank, dtype=complex)
        v[0, 0] = np.sqrt(1.0 + 0.9 * bound)
        p = Projector(v)
        assert np.linalg.norm(v.conj().T @ v - np.eye(rank)) <= bound
        p.validate()

    def test_construction_holds_one_copy_of_the_basis(self):
        # the 1024 x 512 basis is 8 MiB: the check reads it a column panel at a
        # time, so only the kept copy is as large as the basis
        v = sample_haar_unitary(1024, seed=0, columns=512)
        tracemalloc.start()
        try:
            Projector(v)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.3 * v.nbytes

    @pytest.mark.parametrize("rank", [1, 63, 64, 65, 200])
    def test_panel_defect_is_the_frobenius_norm_of_the_gram_defect(self, monkeypatch, rank):
        # a defect spread over every panel: the check must see each of them
        v = sample_haar_unitary(256, seed=rank, columns=rank) * (1.0 + 1e-9)
        defect = np.linalg.norm(v.conj().T @ v - np.eye(rank))
        monkeypatch.setattr(hilbert, "RANK_TOL", 0.0)
        with pytest.raises(InvariantError) as err:
            Projector(v)
        reported = float(re.search(r"defect (\S+)", str(err.value)).group(1))
        assert reported == pytest.approx(defect, rel=1e-3)

    def test_from_isometry_keeps_a_copy_of_the_basis(self):
        v = np.linalg.qr(np.random.default_rng(1).standard_normal((6, 2)))[0]
        p = Projector(v)
        np.testing.assert_array_equal(p.basis, v)
        assert not np.shares_memory(p.basis, v)
        with pytest.raises(ValueError, match="read-only"):
            p.basis[0, 0] = 0.0


class TestManyBodySetup:
    def test_derived_dimensions(self):
        s = ManyBodySetup(10, 1, 5, np.array([1.0, 0.0]),
                          np.eye(32)[:, 0].astype(float))
        assert (s.dim, s.d_s, s.d_sigma) == (1024, 2, 32)
        assert (s.d_rho, s.d_r) == (32, 512)

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
    psi = sample_haar_unitary(8, rng=rng, columns=1)
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
        ManyBodySetup(5, 1, 2, sample_haar_unitary(2, rng=rng, columns=1),
                      sample_haar_unitary(4, rng=rng, columns=1)),
        ManyBodySetup(6, 2, 4, sample_haar_unitary(4, rng=rng, columns=1),
                      sample_haar_unitary(16, rng=rng, columns=1),
                      observed_sites=(3, 1), core_sites=(0, 5, 2, 4)),
        ManyBodySetup(4, 4, 4, sample_haar_unitary(16, rng=rng, columns=1),
                      sample_haar_unitary(16, rng=rng, columns=1)),
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
        ManyBodySetup(5, 1, 3, sample_haar_unitary(2, rng=rng, columns=1),
                      sample_haar_unitary(8, rng=rng, columns=1),
                      observed_sites=(3,), core_sites=(4, 1, 3)),
        ManyBodySetup(6, 2, 4, sample_haar_unitary(4, rng=rng, columns=1),
                      sample_haar_unitary(16, rng=rng, columns=1),
                      observed_sites=(5, 2), core_sites=(0, 5, 2, 4)),
        ManyBodySetup(7, 2, 2, sample_haar_unitary(4, rng=rng, columns=1),
                      sample_haar_unitary(4, rng=rng, columns=1),
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
        src, vecs = hamiltonian_source(gue_hamiltonian(8, seed=0))
        np.testing.assert_allclose(dense_unitary(src, 0.0, vecs), np.eye(8), atol=1e-14)

    def test_diagonal_hamiltonian_phase(self):
        src, vecs = hamiltonian_source(np.diag([0.0, 1.0]))
        u = dense_unitary(src, np.pi, vecs)
        np.testing.assert_allclose(u, np.diag([1.0, -1.0]), atol=1e-12)

    def test_group_law_on_random_time_pairs(self):
        src, vecs = hamiltonian_source(gue_hamiltonian(12, seed=21))
        rng = np.random.default_rng(0)
        for t1, t2 in rng.uniform(-5, 5, size=(10, 2)):
            lhs = dense_unitary(src, t1, vecs) @ dense_unitary(src, t2, vecs)
            rhs = dense_unitary(src, t1 + t2, vecs)
            assert np.linalg.norm(lhs - rhs) <= UNITARITY_TOL * 12

    def test_rejects_non_hermitian_hamiltonian(self):
        with pytest.raises(ValueError, match="Hermitian"):
            hamiltonian_source(np.array([[0.0, 1.0], [0.0, 0.0]]))

    def test_rejects_a_nan_hamiltonian(self):
        # eigh reads one triangle only, so the NaN must fail the hermiticity check
        h = np.eye(4)
        h[1, 2] = np.nan
        with pytest.raises(ValueError, match="Hermitian"):
            hamiltonian_source(h)

    def test_ensemble_sources_need_integer_times(self):
        src = UnitarySource.haar_cue(4, seed=0)
        with pytest.raises(ValueError, match="integer"):
            dense_unitary(src, 0.5)
        with pytest.raises(ValueError, match="integer"):
            dense_unitary(src, -1)

    def test_cue_times_give_independent_unitaries(self):
        src = UnitarySource.haar_cue(8, seed=3)
        u1, u2 = dense_unitary(src, 1), dense_unitary(src, 2)
        assert np.linalg.norm(u1 - u2) > 0.1

    def test_circuit_prefix_consistent_after_cache_advance(self):
        src = UnitarySource.circuit(3, seed=5)
        u3 = dense_unitary(src, 3)
        u2_after = dense_unitary(src, 2)  # earlier time than the cached product
        u2_fresh = dense_unitary(UnitarySource.circuit(3, seed=5), 2)
        assert np.array_equal(u2_after, u2_fresh)
        # consecutive times differ by one unitary brickwork layer
        layer = u3 @ u2_after.conj().T
        assert np.linalg.norm(layer.conj().T @ layer - np.eye(8)) <= 1e-10 * 8

    def test_circuit_unitarity(self):
        src = UnitarySource.circuit(5, seed=7)
        u = dense_unitary(src, 4)
        assert np.linalg.norm(u.conj().T @ u - np.eye(32)) <= UNITARITY_TOL * 32

    @pytest.mark.parametrize("n", range(2, 7))
    def test_circuit_equals_the_kron_brickwork(self, n):
        # independent oracle: layer l is the product of kron(1_{2^a}, gate,
        # 1_rest) over its pairs (a, a+1), a = l mod 2, l mod 2 + 2, ...
        seed = 40 + n
        u = np.eye(2 ** n, dtype=complex)
        for t in range(5):
            np.testing.assert_allclose(dense_unitary(UnitarySource.circuit(n, seed), t), u,
                                       rtol=0, atol=1e-12)
            for slot, a in enumerate(range(t % 2, n - 1, 2)):
                gate = sample_haar_unitary(4, rng=derive_rng(seed, "layer", t, slot))
                u = np.kron(np.kron(np.eye(2 ** a), gate), np.eye(2 ** (n - a - 2))) @ u

    @pytest.mark.parametrize("source", [
        UnitarySource.haar_cue(16, seed=3),
        UnitarySource.circuit(4, seed=4),
    ], ids=lambda s: s.kind)
    def test_time_zero_block_is_a_copy_of_k(self, source):
        k = sample_haar_unitary(16, seed=5, columns=3)
        k_before = k.copy()
        for times in ([0], [0, 2, 1]):
            block = next(evolve_basis_series(source, k, times))
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
        expected = [next(evolve_basis_series(source, k, [t])) for t in times]
        for block, want in zip(evolve_basis_series(source, k, times), expected):
            with pytest.raises(ValueError, match="read-only"):
                block[...] = 0.0
            np.testing.assert_allclose(block, want, rtol=0, atol=1e-12)



class TestPool:
    """``hilbert._map_ordered``: one pool, in index order, one level deep."""

    @pytest.fixture
    def pools(self):
        with recording_pools() as widths:
            yield widths

    @pytest.mark.parametrize("cpus, width", [(1, 0), (2, 2), (3, 3), (16, 4)])
    def test_results_come_back_in_index_order_on_at_most_four_threads(
            self, monkeypatch, pools, cpus, width):
        monkeypatch.setattr(os, "cpu_count", lambda: cpus)

        def task(i):
            time.sleep(0.002 * (9 - i))  # later tasks finish first
            return i, threading.get_ident()

        results = hilbert._map_ordered(task, 10)
        assert [i for i, _ in results] == list(range(10))
        assert pools == ([width] if width else [])
        assert len({ident for _, ident in results}) <= max(width, 1)

    def test_one_task_runs_on_the_callers_thread(self, monkeypatch, pools):
        monkeypatch.setattr(os, "cpu_count", lambda: 4)
        assert hilbert._map_ordered(lambda i: threading.get_ident(), 1) == [
            threading.get_ident()]
        assert hilbert._map_ordered(lambda i: i, 0) == []
        assert pools == []

    def test_a_map_inside_a_pool_task_runs_inline(self, monkeypatch, pools):
        monkeypatch.setattr(os, "cpu_count", lambda: 4)

        def outer(i):
            inner = hilbert._map_ordered(lambda j: (j, threading.get_ident()), 3)
            assert {ident for _, ident in inner} == {threading.get_ident()}
            return [j for j, _ in inner]

        assert hilbert._map_ordered(outer, 2) == [[0, 1, 2]] * 2
        assert pools == [2]
        # back on the caller's thread the pool is free again
        assert hilbert._map_ordered(lambda i: i, 2) == [0, 1]
        assert pools == [2, 2]

    def test_tasks_run_in_the_callers_context(self, monkeypatch):
        monkeypatch.setattr(os, "cpu_count", lambda: 2)
        with np.errstate(over="raise"):
            modes = hilbert._map_ordered(lambda i: np.geterr()["over"], 4)
            with pytest.raises(FloatingPointError, match="overflow"):
                hilbert._map_ordered(lambda i: np.float64(1e308) * (i + 1.0), 2)
        assert modes == ["raise"] * 4

    def test_the_first_failed_task_in_index_order_raises(self, monkeypatch):
        monkeypatch.setattr(os, "cpu_count", lambda: 2)

        def task(i):
            if i in (1, 3):
                time.sleep(0.02 if i == 1 else 0.0)  # task 3 fails first
                raise ValueError(f"task {i}")
            return i

        with pytest.raises(ValueError, match="task 1"):
            hilbert._map_ordered(task, 5)

    @pytest.mark.parametrize("cpus", [1, 2, 3, 4])
    @pytest.mark.parametrize("count", [0, 1, 2, 5, 11])
    def test_contiguous_ranges_cover_the_indices_in_order(self, monkeypatch, cpus, count):
        monkeypatch.setattr(os, "cpu_count", lambda: cpus)
        spans = []

        def chunk(r):
            spans.append(r)
            return [i * i for i in r]

        assert hilbert._map_contiguous(chunk, count) == [i * i for i in range(count)]
        assert sorted(i for r in spans for i in r) == list(range(count))
        assert len(spans) == max(1, min(cpus, count))
