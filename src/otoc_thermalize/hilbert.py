"""Complex linear algebra substrate.

Projectors on C^D, product states on the qubits of a register, Haar-random
unitary sampling, and time evolution from three unitary sources (GUE
Hamiltonian, circular unitary ensemble, brickwork circuit). A ``Projector``
is its D x rank orthonormal basis; its D x D matrix is never formed. A product
state |s><s| (x) 1 is never formed as one: ``embed_isometry`` is its
isometry L, and ``contract_isometry`` applies L^dag by contracting <s| into
the factor's qubits. A CUE or circuit source acts on a D x r basis K through
``evolve_basis_series``: it yields U(t) K on a time grid without forming
U(t), carrying a circuit's block forward; a single time is a one-point grid.
A state is placed on its qubits in one way (``_on_sites``), and a brickwork
gate is a 4 x 4 matmul on a (2^a, 4, rest) view of the block. A GUE
Hamiltonian H = V diag(E) V^dag is not evolved in the register, and is never
formed: its ``Eigenframe`` holds its spectrum E and a setup's observable and
core bases in its eigenframe, W = V^dag L and Y = V^dag K, where U(t) is the
phase exp(-iEt). Its law is unitarily invariant, so W is itself a D x D_R
Haar isometry, and ``sample_gue_eigensystem`` draws the spectrum and that
thin frame alone. The spectrum is that of a real tridiagonal
matrix, found from its diagonal and off-diagonal by LAPACK ``dsterf`` in
numpy's own bundled OpenBLAS, reached through ctypes (``_openblas``); where
that library is not found, the dense ``eigvalsh`` of the same matrix stands
in, with the same eigenvalues. A single Haar draw is factored where it is
drawn, by LAPACK ``zgeqrf`` and ``zungqr`` through the same handle
(``_qr_in_place``), so it holds one D x m array, column-major; a stack of
draws, and every draw where the library is not found, goes through
``np.linalg.qr``, bit for bit the same. Where only the Gram of a corner of a
Haar isometry is read, ``haar_corner_stacks`` draws a matrix with that
Gram's law from two Bartlett R factors, with no D-sized array.
``_one_blas_thread`` pins that OpenBLAS to one thread through the same
handle, so that the command line's output depends on its config and seed
alone. Beside that one BLAS thread policy there is one pool,
``_map_ordered``: instances, samples, time grids and row blocks map over
it, one level deep, and reduce its results in index order, so the output
does not depend on the pool's width either.
"""

from __future__ import annotations

import contextlib
import contextvars
import ctypes
import functools
import glob
import itertools
import math
import numbers
import os
import zlib
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Callable, Iterator, List, Optional, Sequence

import numpy as np

#: Default cap on the register dimension that the command line accepts.
DIM_CAP_DEFAULT = 2 ** 14

#: Frobenius-norm tolerances, scaled by the dimension where noted.
IDEMPOTENCE_TOL = 1e-10   # times D
RANK_TOL = 1e-8
STATE_NORM_TOL = 1e-12

#: Most threads the one pool (``_map_ordered``) runs at once.
POOL_CAP = 4

#: Columns per panel of ``Projector.validate``'s Gram.
PANEL = 64

#: Most complex entries in one stack of Haar draws (``haar_corner_stacks`` and the
#: probes of ``thermalization_report``): 64 KiB, one D x D_rho draw at D = 256,
#: D_rho = 16. Corner stacks of 2**14 ran the ``ensemble`` benchmark as fast, but
#: its process's peak RSS came out about 4.5 MB higher in 6 of 14 runs, against
#: 1 of 10 at 2**12.
STACK_ENTRIES = 2 ** 12


class InvariantError(ValueError):
    """A checked statement of proven math failed; other ValueErrors reject inputs."""


def derive_rng(seed, *key):
    """Derive an independent random generator from a master seed and a key.

    Parameters
    ----------
    seed : int or None
        Master seed. ``None`` draws fresh OS entropy.
    key : ints and/or strings
        Stream identifier, e.g. ``("typicality", sample_index)``. Strings are
        hashed with CRC32 so the derivation is stable across runs.

    Returns
    -------
    numpy.random.Generator
    """
    spawn_key = tuple(
        zlib.crc32(k.encode()) if isinstance(k, str) else int(k) for k in key
    )
    return np.random.default_rng(np.random.SeedSequence(seed, spawn_key=spawn_key))


def _resolve_rng(seed=None, rng=None):
    """Accept either a seed or an explicit generator (generator wins)."""
    if rng is not None:
        return rng
    return np.random.default_rng(seed)


def sample_haar_unitary(dim: int, seed=None, rng=None,
                        columns: Optional[int] = None,
                        count: Optional[int] = None) -> np.ndarray:
    """Draw a unitary from the Haar measure on U(dim), or its leading columns.

    Uses the Ginibre + QR construction (Mezzadri 2007): QR of a complex
    Gaussian matrix, with the diagonal of R rotated onto the positive real
    axis. Without that phase correction the QR decomposition is not unique
    and the distribution of Q would not be Haar.

    The Ginibre matrix is generated column by column: column j is row j of
    an ``m x 2D`` standard normal draw, read as D interleaved (real,
    imaginary) pairs. Column j of Q depends on columns <= j alone, so with
    ``columns = m`` only the D x m Gaussians of the leading columns are drawn
    and a thin QR costs O(D m^2) instead of O(D^3). The result is the D x m
    Haar isometry made of the leading m columns of the unitary the same
    generator would give in full, to roundoff (the thin and the full QR may
    round differently); with ``m = dim`` it is the full draw.

    A single draw is factored in place: the swapped complex view of the
    normal draw is already the column-major D x m matrix that LAPACK takes,
    so ``_qr_in_place`` overwrites it with Q and the result is that
    column-major buffer, the one D x m array the draw holds. Where
    ``_openblas`` finds no library, ``np.linalg.qr`` gives the same bits in a
    row-major array, through about three more D x m copies.

    With ``count = k`` the k draws come from one ``k x m x 2D`` normal draw
    and one stacked ``np.linalg.qr`` (a ctypes call per slice would drop and
    retake the GIL k times). The stack equals k consecutive single draws
    from the same generator, bit for bit, and leaves the generator in the
    same state.

    Parameters
    ----------
    dim : int
        Dimension D >= 1.
    seed, rng :
        Either a seed for a fresh generator or an existing generator.
    columns : int, optional
        Number of leading columns m, 1 <= m <= D; default D.
    count : int, optional
        Number k >= 0 of draws to stack; default one unstacked draw.

    Returns
    -------
    numpy.ndarray
        D x m complex isometry, ``U^dag U = 1`` to ``1e-10 * D``, or a
        k x D x m stack of them. Its layout follows the route, so a sum
        whose order depends on layout reads a C-ordered copy.
    """
    if dim < 1:
        raise ValueError(f"dimension must be >= 1, got {dim}")
    m = dim if columns is None else columns
    if not 1 <= m <= dim:
        raise ValueError(f"columns must be in [1, {dim}], got {columns}")
    if count is not None and not (isinstance(count, numbers.Integral) and count >= 0):
        raise ValueError(f"count must be a nonnegative integer, got {count!r}")
    rng = _resolve_rng(seed, rng)
    shape = (m, 2 * dim) if count is None else (count, m, 2 * dim)
    a = rng.standard_normal(shape).view(complex).swapaxes(-1, -2)
    blas = _openblas() if count is None else None
    if blas is None:
        q, r = np.linalg.qr(a / math.sqrt(2.0))
        diag = np.diagonal(r, axis1=-2, axis2=-1).copy()
    else:
        a /= math.sqrt(2.0)  # complex division, rounded as a / sqrt(2) is
        q, diag = a, _qr_in_place(blas, a)
    # map zero pivots (probability zero, but finite-precision safe) to phase 1
    diag[diag == 0] = 1.0
    q *= (diag / np.abs(diag))[..., None, :]
    return q


def haar_corner_stacks(dim: int, rows: int, columns: int, rngs) -> Iterator[np.ndarray]:
    """Yield stacks of matrices c, one per generator in ``rngs``, whose Gram
    c^dag c has the law of the ``rows x columns`` corner Gram of a D x columns
    Haar isometry, up to a diagonal phase conjugation, never forming a D-sized array.

    Write the Haar isometry as V = G R^(-1) for a D x p complex Ginibre G
    (p = columns, R its positive QR factor; ``sample_haar_unitary``), and
    split G = [G1; G2] after row d = rows. The corner V[:d] = G1 R^(-1) has
    the Gram m = R^(-dag) R1^dag R1 R^(-1), where R1 and R2 are the R factors
    of G1 and G2, since G1^dag G1 = R1^dag R1 and G^dag G = R1^dag R1 +
    R2^dag R2 = R^dag R. So the stack [R1; R2] has the R factor Delta R for a
    diagonal unitary Delta, and the top rows of its thin Q, c = R1 R^(-1)
    Delta^dag, have the Gram Delta m Delta^dag: the corner's trace and |m_ij|,
    so its G^2, G^4 and principal angles (the Jacobi, or MANOVA, ensemble;
    Killip & Nenciu 2004, Edelman & Sutton 2008).

    R1 and R2 are drawn from their law, the complex Bartlett decomposition:
    the R factor of a k x p block is min(k, p) x p, with independent
    entries, R_ii = sqrt(Gamma(k - i, 1)) and standard complex normals
    (E|z|^2 = 1) right of the diagonal. So a draw takes O(p^2) numbers and a
    QR of at most 2p x p, O(p^3) time, whatever D. R1 has min(d, p) rows, so
    ``rows < columns`` gives the excess angles pi/2; R2 has min(D - d, p)
    rows, none at d = D, where c is unitary. Generator s gives the gamma
    variates of R1's diagonal and then R2's, and then the normals of R1 and
    of R2, row by row.

    The draws are stacked into ``np.linalg.qr`` calls of at most
    ``STACK_ENTRIES`` entries (and at least one draw), each yielded before
    the next is drawn. ``np.linalg.qr`` factors each slice as it would
    alone, so a draw's bits do not depend on how the generators are split
    into stacks.

    Parameters
    ----------
    dim, rows, columns : int
        D >= 1 and the corner's size d x p, with 1 <= d, p <= D.
    rngs : iterable of numpy.random.Generator
        One generator per draw, consumed as the stacks are drawn.

    Yields
    ------
    numpy.ndarray
        k x min(rows, columns) x columns complex stacks, C-ordered.
    """
    if not (1 <= rows <= dim and 1 <= columns <= dim):
        raise ValueError(f"need 1 <= rows, columns <= dim, got ({dim}, {rows}, {columns})")
    # flat positions in the stacked [R1; R2] of the diagonals and of the
    # entries right of them, and the gamma shapes of the diagonals
    upper, diag_at, shapes, top = [], [], [], 0
    for k in (rows, dim - rows):
        i = np.arange(min(k, columns))
        upper.append(np.arange(columns) > i[:, None])
        diag_at.append((top + i) * columns + i)
        shapes.append(k - i.astype(float))
        top += len(i)
    upper_at = np.flatnonzero(np.concatenate(upper))
    diag_at, shapes = np.concatenate(diag_at), np.concatenate(shapes)
    per_stack = max(1, STACK_ENTRIES // (top * columns))
    rngs = iter(rngs)
    while True:
        chunk = list(itertools.islice(rngs, per_stack))
        if not chunk:
            return
        gammas = np.empty((len(chunk), len(shapes)))
        normals = np.empty((len(chunk), 2 * len(upper_at)))
        for s, rng in enumerate(chunk):
            rng.standard_gamma(shapes, out=gammas[s])
            rng.standard_normal(out=normals[s])
        stack = np.zeros((len(chunk), top * columns), dtype=complex)
        stack[:, diag_at] = np.sqrt(gammas)
        stack[:, upper_at] = normals.view(complex) / math.sqrt(2.0)
        q = np.linalg.qr(stack.reshape(len(chunk), top, columns)).Q
        yield np.ascontiguousarray(q[:, :min(rows, columns)])


class _OpenBLAS:
    """The routines of numpy's bundled ILP64 OpenBLAS that this module calls."""

    def __init__(self, lib):
        self.dsterf = lib.scipy_dsterf_64_
        self.zgeqrf = lib.scipy_zgeqrf_64_
        self.zungqr = lib.scipy_zungqr_64_
        self.get_num_threads = lib.scipy_openblas_get_num_threads64_
        self.set_num_threads = lib.scipy_openblas_set_num_threads64_
        int64_p, double_p = ctypes.POINTER(ctypes.c_int64), ctypes.POINTER(ctypes.c_double)
        void_p = ctypes.c_void_p
        self.dsterf.argtypes = [int64_p, double_p, double_p, int64_p]
        # (M, N, A, LDA, TAU, WORK, LWORK, INFO) and (M, N, K, A, ...)
        self.zgeqrf.argtypes = [int64_p, int64_p, void_p, int64_p, void_p, void_p,
                                int64_p, int64_p]
        self.zungqr.argtypes = [int64_p] + self.zgeqrf.argtypes
        for routine in (self.dsterf, self.zgeqrf, self.zungqr):
            routine.restype = None
        self.get_num_threads.argtypes = []
        self.get_num_threads.restype = ctypes.c_int
        self.set_num_threads.argtypes = [ctypes.c_int]
        self.set_num_threads.restype = None


@functools.lru_cache(maxsize=None)
def _openblas() -> Optional[_OpenBLAS]:
    """numpy's bundled OpenBLAS, or None where it is not the known ILP64 build.

    Looked up on first use and cached. The library is the
    ``libscipy_openblas64_`` that numpy's wheel ships in ``numpy.libs``; its
    ``64_`` symbols take 64-bit integers, which its configuration string
    confirms (``USE64BITINT``). Any other build (MKL, conda, LP64) gives
    None, and its callers fall back to numpy's own routines.
    """
    pattern = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs",
                           "libscipy_openblas64_*")
    for path in sorted(glob.glob(pattern)):
        try:
            lib = ctypes.CDLL(path)
            config = lib.scipy_openblas_get_config64_
            blas = _OpenBLAS(lib)
        except (OSError, AttributeError):
            continue
        config.argtypes, config.restype = [], ctypes.c_char_p
        if b"USE64BITINT" in (config() or b"").split():
            return blas
    return None


def _lapack_qr(blas, name: str, dim: int, m: int, a: np.ndarray, tau: np.ndarray,
               work: np.ndarray, lwork: int) -> None:
    """Call ``zgeqrf`` or ``zungqr`` (``name``) on the column-major D x m ``a``.

    ``zungqr`` takes K = m reflectors; ``lwork = -1`` asks for the optimal
    workspace size in ``work[0]`` and reads no entry of ``a``. A nonzero
    ``info`` (an illegal argument; neither routine fails on finite input)
    is an InvariantError.
    """
    info = ctypes.c_int64(0)
    sizes = (dim, m, m) if name == "zungqr" else (dim, m)
    getattr(blas, name)(*(ctypes.byref(ctypes.c_int64(n)) for n in sizes),
                        a.ctypes.data, ctypes.byref(ctypes.c_int64(dim)),
                        tau.ctypes.data, work.ctypes.data,
                        ctypes.byref(ctypes.c_int64(lwork)), ctypes.byref(info))
    if info.value != 0:
        raise InvariantError(f"{name} failed on a {dim} x {m} matrix: info {info.value}")


@functools.lru_cache(maxsize=None)
def _qr_work_size(dim: int, m: int) -> int:
    """The workspace size of a D x m ``_qr_in_place``, from one query per shape.

    numpy's ``qr`` gives each routine max(1, m, its optimum), and both
    routines choose their blocking by whether the workspace reaches that
    optimum, so one buffer of the larger size takes numpy's path in both.
    """
    blas, query = _openblas(), np.zeros(1, dtype=complex)
    sizes = [1, m]
    for name in ("zgeqrf", "zungqr"):
        _lapack_qr(blas, name, dim, m, query, query, query, -1)
        sizes.append(int(query[0].real))
    return max(sizes)


def _qr_in_place(blas, a: np.ndarray) -> np.ndarray:
    """Overwrite the column-major D x m matrix ``a`` (m <= D) with the Q of its
    QR decomposition; return the diagonal of R.

    LAPACK ``zgeqrf`` leaves R and the Householder reflectors in ``a``, and
    ``zungqr`` turns the reflectors into Q in the same buffer: the same two
    routines, on the same workspace path, as ``np.linalg.qr``, so Q and R
    agree with it bit for bit, with no D x m array but ``a``.
    """
    if not (a.ndim == 2 and a.dtype == complex and a.flags.f_contiguous
            and 1 <= a.shape[1] <= a.shape[0]):
        raise ValueError(f"need a column-major complex D x m array with 1 <= m <= D, "
                         f"got {a.dtype} of shape {a.shape}")
    dim, m = a.shape
    tau = np.empty(m, dtype=complex)
    work = np.empty(_qr_work_size(dim, m), dtype=complex)
    _lapack_qr(blas, "zgeqrf", dim, m, a, tau, work, len(work))
    diag = np.diagonal(a).copy()
    _lapack_qr(blas, "zungqr", dim, m, a, tau, work, len(work))
    return diag


@contextlib.contextmanager
def _one_blas_thread():
    """Run the block with numpy's OpenBLAS on one thread; restore the caller's count.

    Where ``_openblas`` finds no library the thread count is left as it is.
    The count is process-wide, so blocks in several threads at once restore
    it in the order they end.
    """
    blas = _openblas()
    if blas is None:
        yield
        return
    before = blas.get_num_threads()
    blas.set_num_threads(1)
    try:
        yield
    finally:
        blas.set_num_threads(before)


#: True in the context of a task that runs on the pool.
_ON_POOL = contextvars.ContextVar("otoc_thermalize_on_pool", default=False)


def _pool_width(count: int) -> int:
    """Threads ``_map_ordered`` runs ``count`` tasks on: 1 on a pool thread."""
    if _ON_POOL.get():
        return 1
    return max(1, min(POOL_CAP, os.cpu_count() or 1, count))


def _map_ordered(fn: Callable[[int], object], count: int) -> List[object]:
    """Return ``[fn(0), ..., fn(count - 1)]``, run on up to
    min(``POOL_CAP``, cpu count, count) threads.

    This is the package's one pool. Results come back in index order, so a
    caller that reduces them in that order, and whose tasks draw from their
    own derived streams, gives output that does not depend on the pool's
    width or on scheduling. Each task runs in its own copy of the caller's
    ``contextvars`` context, so ``np.errstate`` holds on the pool threads. A
    call made from a task already on the pool runs its tasks inline, so there
    is one level of parallelism and never a nested pool. The first failed
    task in index order raises, and tasks not yet started are cancelled.
    """
    workers = _pool_width(count)
    if workers <= 1:
        return [fn(i) for i in range(count)]
    contexts = [contextvars.copy_context() for _ in range(count)]
    for ctx in contexts:
        ctx.run(_ON_POOL.set, True)
    with ThreadPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(lambda ctx, i: ctx.run(fn, i), contexts, range(count)))


def _map_contiguous(fn: Callable[[range], list], count: int) -> list:
    """``fn(r)`` over contiguous ranges ``r`` that split ``range(count)``, one
    per pool thread, through ``_map_ordered``; their lists joined in order.

    Each ``fn(r)`` returns one item per index of ``r``, so the result is what
    ``fn(range(count))`` would return, whatever the number of ranges.
    """
    parts = _pool_width(count)
    ranges = [range(count * j // parts, count * (j + 1) // parts) for j in range(parts)]
    return [item for items in _map_ordered(lambda j: fn(ranges[j]), parts)
            for item in items]


def _tridiagonal_eigvalsh(diag: np.ndarray, off: np.ndarray) -> np.ndarray:
    """Ascending eigenvalues of the real symmetric tridiagonal matrix (diag, off).

    LAPACK ``dsterf`` (Pal-Walker-Kahan QR) reads the two diagonals alone, in
    O(D^2) time and O(D) memory. Without ``_openblas`` the dense D x D matrix
    goes to ``np.linalg.eigvalsh``, whose reduction leaves a tridiagonal
    matrix as it is and ends in the same ``dsterf``: the eigenvalues agree
    bit for bit, and a failure to converge is an ``InvariantError`` on both
    routes. ctypes releases the GIL for the call.
    """
    blas = _openblas()
    if blas is None:
        tri = np.diag(diag)
        k = np.arange(len(off))
        tri[k + 1, k] = tri[k, k + 1] = off
        try:
            return np.linalg.eigvalsh(tri)
        except np.linalg.LinAlgError as exc:  # its dsterf failed, as below
            raise InvariantError(f"eigvalsh failed on a tridiagonal matrix: {exc}") from exc
    evals = np.array(diag, dtype=np.float64)  # dsterf overwrites d and e
    work = np.append(np.asarray(off, dtype=np.float64), 0.0)  # >= 1 entry at D = 1
    if evals.ndim != 1 or work.shape != evals.shape:
        raise ValueError(f"need a diagonal of length D >= 1 and an off-diagonal of "
                         f"length D - 1, got {np.shape(diag)} and {np.shape(off)}")
    info = ctypes.c_int64(0)
    double_p = ctypes.POINTER(ctypes.c_double)
    blas.dsterf(ctypes.byref(ctypes.c_int64(len(evals))), evals.ctypes.data_as(double_p),
                work.ctypes.data_as(double_p), ctypes.byref(info))
    if info.value != 0:
        raise InvariantError(f"dsterf failed on a tridiagonal matrix: info {info.value}")
    return evals


def sample_gue_eigensystem(dim: int, rng, columns: Optional[int] = None) -> tuple:
    """Draw the eigenvalues and eigenvectors of a GUE Hamiltonian, never forming it.

    The GUE is normalized so the spectrum concentrates in [-2, 2]: entry
    variances E[H_ii^2] = E[|H_ij|^2] = 1/dim, i.e. the density
    exp(-(dim/2) Tr H^2). Its law is unitarily invariant, so the eigenbasis is
    Haar on U(dim) and independent of the spectrum, and the two are drawn
    apart. The spectrum is that of the beta = 2 tridiagonal model (Dumitriu &
    Edelman 2002): diagonal N(0, 1), off-diagonals sqrt(chi^2_{2k} / 2) =
    sqrt(Gamma(k, 1)) for k = dim-1 .. 1, scaled by 1/sqrt(dim). LAPACK
    ``dsterf`` finds it from the two diagonals at O(dim^2) time and O(dim)
    memory; where numpy's OpenBLAS is not found, the dense ``eigvalsh`` of
    the dim x dim tridiagonal matrix gives the same eigenvalues at O(dim^3)
    (``_tridiagonal_eigvalsh``). The eigenbasis is one
    ``sample_haar_unitary`` draw from the same generator, after the
    spectrum. Neither step runs a complex dim x dim ``eigh``.

    With ``columns = m`` only the leading m columns of the Haar eigenbasis
    are drawn, a thin QR at O(dim m^2). For any fixed dim x m isometry L,
    V^dag L of a Haar V is again a dim x m Haar isometry, so the thin draw
    has the law of a GUE Hamiltonian's eigenframe W = V^dag L of an m-dimensional
    range, which is how ``Eigenframe.gue`` reads it.

    Returns
    -------
    (evals, evecs) : ascending eigenvalues (dim,) and a dim x m isometry
        (by default the dim x dim unitary of eigenvectors, one per column).
    """
    if dim < 1:
        raise ValueError(f"dimension must be >= 1, got {dim}")
    diag = rng.standard_normal(dim)
    off = np.sqrt(rng.gamma(dim - 1.0 - np.arange(dim - 1)))
    evals = _tridiagonal_eigvalsh(diag, off) / math.sqrt(dim)
    return evals, sample_haar_unitary(dim, rng=rng, columns=columns)


@dataclass(frozen=True, eq=False)
class Projector:
    """An orthogonal projector V V^dag, kept as its read-only D x rank basis V.

    The D x D matrix is never formed. Construction copies the basis, checks
    that it is a finite 2-D array with D >= 1 and runs ``validate``, so that
    numerical degradation surfaces as an error instead of propagating.
    """

    basis: np.ndarray

    def __post_init__(self):
        v = np.array(self.basis, dtype=complex)
        if v.ndim != 2 or v.shape[0] < 1:
            raise ValueError(
                f"basis must be a 2-D D x rank array with D >= 1, got shape {v.shape}")
        if not np.all(np.isfinite(v)):
            raise ValueError("basis must be finite")
        v.flags.writeable = False
        object.__setattr__(self, "basis", v)
        self.validate()

    @property
    def dim(self) -> int:
        return self.basis.shape[0]

    @property
    def rank(self) -> int:
        return self.basis.shape[1]

    def validate(self) -> None:
        """Raise InvariantError unless the basis columns are orthonormal at tolerance.

        ||V^dag V - 1||_F <= min(IDEMPOTENCE_TOL D, RANK_TOL/sqrt(r)) is checked
        at O(D r^2); it bounds the idempotence and trace defects of V V^dag.
        The square is summed over the Hermitian Gram's column panels on and
        right of the diagonal, V[:, j:j+PANEL]^dag V[:, j:], each term right
        of the diagonal block counting twice. So the check copies no basis
        (it holds one conjugated D x PANEL panel and one PANEL x r block at a
        time) and makes half the products of the full Gram.
        """
        v = self.basis
        total = 0.0
        for j in range(0, self.rank, PANEL):
            block = v[:, j:j + PANEL].conj().T @ v[:, j:]
            cols = np.arange(block.shape[0])
            block[cols, cols] -= 1.0
            square = block[:, :len(cols)]
            total += 2.0 * np.vdot(block, block).real - np.vdot(square, square).real
        defect = math.sqrt(total)
        if not defect <= min(IDEMPOTENCE_TOL * self.dim,
                             RANK_TOL / math.sqrt(max(self.rank, 1))):
            raise InvariantError(f"basis columns not orthonormal: defect {defect:.3e}")

    @classmethod
    def coordinate(cls, dim: int, rank: int) -> "Projector":
        """Projector onto the span of the first ``rank`` coordinate vectors."""
        if not 0 <= rank <= dim:
            raise ValueError(f"rank {rank} out of range for dim {dim}")
        return cls(np.eye(dim, rank))


def _check_sites(sites: Sequence[int], n_total: int, label: str) -> tuple:
    sites = tuple(int(s) for s in sites)
    if len(set(sites)) != len(sites):
        raise ValueError(f"{label} sites contain duplicates: {sites}")
    if any(s < 0 or s >= n_total for s in sites):
        raise ValueError(f"{label} sites {sites} out of range for {n_total} qubits")
    return sites


@dataclass(frozen=True)
class ManyBodySetup:
    """A qubit register split into observed, core and complement factors.

    The register has ``n_total`` qubits (D = 2^N). The observable projector
    acts as |chi><chi| on the ``n_observed`` observed qubits tensored with the
    identity on the rest; the core projector acts as |psi><psi| on the
    ``n_core`` core qubits tensored with the identity on the bath. By default
    the observed qubits are the first ``n_observed`` and the core qubits the
    first ``n_core``, so the observed subsystem is nested inside the core.

    Parameters
    ----------
    n_total, n_observed, n_core : int
        Qubit counts N, N_S, N_sigma with N_S <= N_sigma <= N.
    observed_state : array of shape (2**n_observed,)
        Unit vector |chi>.
    core_state : array of shape (2**n_core,)
        Unit vector |psi>.
    observed_sites, core_sites : optional tuples of qubit indices
        Explicit site layouts; default is the leading qubits.
    """

    n_total: int
    n_observed: int
    n_core: int
    observed_state: np.ndarray
    core_state: np.ndarray
    observed_sites: Optional[Sequence[int]] = None
    core_sites: Optional[Sequence[int]] = None

    def __post_init__(self):
        if not (1 <= self.n_observed <= self.n_core <= self.n_total):
            raise ValueError(
                f"need 1 <= n_observed <= n_core <= n_total, got "
                f"({self.n_observed}, {self.n_core}, {self.n_total})")
        for name, vec, n in (("observed_state", self.observed_state, self.n_observed),
                             ("core_state", self.core_state, self.n_core)):
            vec = np.asarray(vec, dtype=complex).ravel()
            if vec.shape != (2 ** n,):
                raise ValueError(f"{name} must have length {2 ** n}, got {vec.shape}")
            if not abs(np.linalg.norm(vec) - 1.0) <= STATE_NORM_TOL:
                raise ValueError(f"{name} is not unit-norm to {STATE_NORM_TOL}")
            object.__setattr__(self, name, vec)
        obs = (tuple(range(self.n_observed)) if self.observed_sites is None
               else _check_sites(self.observed_sites, self.n_total, "observed"))
        core = (tuple(range(self.n_core)) if self.core_sites is None
                else _check_sites(self.core_sites, self.n_total, "core"))
        if len(obs) != self.n_observed or len(core) != self.n_core:
            raise ValueError("site layout lengths do not match qubit counts")
        object.__setattr__(self, "observed_sites", obs)
        object.__setattr__(self, "core_sites", core)

    @property
    def dim(self) -> int:
        return 2 ** self.n_total

    @property
    def d_s(self) -> int:
        return 2 ** self.n_observed

    @property
    def d_sigma(self) -> int:
        return 2 ** self.n_core

    @property
    def d_rho(self) -> int:
        return self.dim // self.d_sigma

    @property
    def d_r(self) -> int:
        return self.dim // self.d_s


def _on_sites(state: np.ndarray, sites: Sequence[int], n_total: int,
              block: np.ndarray) -> np.ndarray:
    """Return |state> on ``sites`` tensored with ``block`` on the other qubits.

    ``block`` is (2^n_total / len(state)) x r, its rows indexing the
    remaining qubits in ascending order; the result is the 2^n_total x r
    block with qubit 0 the leftmost (most significant) tensor factor.
    """
    n_sites = len(sites)
    outer = np.multiply.outer(state.reshape((2,) * n_sites),
                              block.reshape((2,) * (n_total - n_sites) + (-1,)))
    return np.moveaxis(outer, tuple(range(n_sites)), sites).reshape(
        2 ** n_total, -1)


def _factor(setup: ManyBodySetup, which: str):
    """The state and sites of the observable or core factor of ``setup``."""
    if which == "observable":
        return setup.observed_state, setup.observed_sites
    if which == "core":
        return setup.core_state, setup.core_sites
    raise ValueError(f"which must be 'observable' or 'core', got {which!r}")


def embed_isometry(setup: ManyBodySetup, which: str) -> np.ndarray:
    """Isometry from the complement factor into the full register.

    For ``which='observable'`` the columns are |chi> tensor |e_m> over the
    environment basis (shape D x D_R); for ``which='core'`` they are
    |psi> tensor |e_m> over the bath (shape D x D_rho). The columns are an
    orthonormal basis of the corresponding embedded projector's range.
    """
    state, sites = _factor(setup, which)
    return _on_sites(state, sites, setup.n_total, np.eye(setup.dim // len(state)))


def contract_isometry(setup: ManyBodySetup, which: str,
                      block: np.ndarray) -> np.ndarray:
    """``embed_isometry(setup, which)^dag @ block`` for a D x r block, at O(D r).

    <chi| or <psi| is contracted into that factor's own qubits, and the rows
    left index the other qubits in order: this undoes ``_on_sites``.
    """
    state, sites = _factor(setup, which)
    if block.ndim != 2 or block.shape[0] != setup.dim:
        raise ValueError(f"block must be {setup.dim} x r, got shape {block.shape}")
    tensor = block.reshape((2,) * setup.n_total + (block.shape[1],))
    return np.tensordot(state.conj().reshape((2,) * len(sites)), tensor,
                        axes=(tuple(range(len(sites))), sites)).reshape(
                            setup.dim // len(state), -1)


@dataclass(frozen=True)
class UnitarySource:
    """A family of unitaries U(t) that acts on the register, one of two variants.

    ``haar_cue``: each integer t > 0 labels an independent Haar unitary drawn
    from the seed, with t = 0 the identity; this realizes "evolve to the
    Haar-typicality regime" without a model Hamiltonian.
    ``circuit``: brickwork of Haar-random two-qubit gates on log2(dim)
    qubits; integer t counts applied layers, each layer's gates derived
    deterministically from the seed.

    A source holds no mutable state, so one source may be evolved from
    several threads at once. A GUE Hamiltonian is no register source: it is
    an ``Eigenframe``.
    """

    kind: str
    dim: int
    seed: int

    @classmethod
    def haar_cue(cls, dim: int, seed: int) -> "UnitarySource":
        """Independent Haar unitaries indexed by integer time."""
        return cls(kind="haar_cue", dim=dim, seed=seed)

    @classmethod
    def circuit(cls, n_sites: int, seed: int) -> "UnitarySource":
        """Brickwork circuit of Haar two-qubit gates on ``n_sites`` qubits."""
        if n_sites < 2:
            raise ValueError("circuit source needs at least 2 qubits")
        return cls(kind="circuit", dim=2 ** n_sites, seed=seed)


@dataclass(frozen=True, eq=False)
class Eigenframe:
    """exp(-iHt) for a Hamiltonian H = V diag(E) V^dag, kept in its eigenframe.

    ``evals`` is the spectrum E, and ``w`` and ``y`` are a setup's observable
    basis W = V^dag L (D x D_R) and core basis Y = V^dag K (D x D_eta) in
    the eigenframe, where U(t) is the phase exp(-iEt): U(t) K = V exp(-iEt) Y.
    V itself is never held.
    """

    evals: np.ndarray
    w: np.ndarray
    y: np.ndarray

    @classmethod
    def gue(cls, setup: ManyBodySetup, rng) -> "Eigenframe":
        """A GUE H in the eigenframe of ``setup``, drawn from ``rng``.

        ``sample_gue_eigensystem`` draws E and the thin frame W alone, so
        the rest of V never exists. That needs the core inside the
        observable's range, K = L (L^dag K), which holds when
        |psi> = |chi> (x) |psi'> on the core sites; then Y = W (L^dag K),
        and ValueError is raised when L^dag K is no isometry.
        """
        evals, w = sample_gue_eigensystem(setup.dim, rng, columns=setup.d_r)
        core = contract_isometry(setup, "observable", embed_isometry(setup, "core"))
        defect = np.linalg.norm(core.conj().T @ core - np.eye(setup.d_rho))
        if not defect <= RANK_TOL:
            raise ValueError(
                "a GUE source needs the core range inside the observable's, "
                "|psi> = |chi> (x) |psi'> on the core sites, so that L^dag K is an "
                f"isometry; its defect is {defect:.3e}")
        return cls(evals, w, w @ core)


def _apply_circuit(source: UnitarySource, k: np.ndarray, start: int,
                   stop: int) -> np.ndarray:
    """Apply brickwork layers ``start .. stop-1`` to the columns of ``k``.

    Layer l acts on the qubit pairs (a, a+1) starting at a = l mod 2. Qubit
    a is the (a+1)-th most significant bit of the row index, so its gate is
    a 4 x 4 matmul on the middle axis of the (2^a, 4, rest) view of the
    D x r block.
    """
    n_sites = source.dim.bit_length() - 1
    for layer in range(start, stop):
        for slot, a in enumerate(range(layer % 2, n_sites - 1, 2)):
            gate = sample_haar_unitary(4, rng=derive_rng(source.seed, "layer", layer, slot))
            k = (gate @ k.reshape(2 ** a, 4, -1)).reshape(k.shape)
    return k


def evolve_basis_series(source: UnitarySource, k: np.ndarray,
                        times: Sequence[float]) -> Iterator[np.ndarray]:
    """Yield U(t) K for each t in ``times``, in order, never forming U(t).

    K is a D x r matrix (a Hamiltonian is evolved in its ``Eigenframe``
    instead). Times are nonnegative integers, t = 0 giving a copy of K.
    Costs per time: for CUE, the leading m columns of the Haar unitary
    (D x m Gaussians and a thin QR, O(D m^2)), where m is one plus the index
    of the last nonzero row of K, times K[:m] unless K[:m] is the identity
    (checked once per series).
    A circuit carries its block forward while the times do not decrease,
    applying only the layers between consecutive times at O(D r) each, so a
    grid t = 0..T costs T layers rather than T(T+1)/2; a decreasing time
    starts again from K. Circuit blocks for t > 0 are read-only: the next
    block is computed from the last, which a time with no new gate yields again.
    """
    k = np.asarray(k, dtype=complex)
    if k.ndim != 2 or k.shape[0] != source.dim:
        raise ValueError(
            f"dimension mismatch: source acts on {source.dim}, K is {k.shape}")
    if source.kind == "haar_cue":
        m = int(np.max(np.flatnonzero(np.any(k != 0, axis=1)), initial=0)) + 1
        # a product core on the leading qubits has k[:m] = 1: skip that product
        identity = k.shape[1] == m and np.array_equal(k[:m], np.eye(m))
    depth, kt = None, None
    for t in times:
        if not np.isfinite(t):
            raise ValueError(f"time must be finite, got {t}")
        step = int(round(t))
        if step < 0 or abs(t - step) > 1e-12:
            raise ValueError(
                f"{source.kind} sources are defined on nonnegative integer times, got {t}")
        if step == 0:
            yield k.copy()
        elif source.kind == "haar_cue":
            rng = derive_rng(source.seed, "cue", step)
            # yielded unnamed, so the caller alone holds the block (and the
            # draw is freed before the yield)
            yield (sample_haar_unitary(source.dim, rng=rng, columns=m) if identity
                   else sample_haar_unitary(source.dim, rng=rng, columns=m) @ k[:m])
        else:
            if depth is None or step < depth:
                # layer 0 has a gate, so the block yielded is never K itself
                depth, kt = 0, k
            kt = _apply_circuit(source, kt, depth, step)
            depth = step
            kt.flags.writeable = False
            yield kt

