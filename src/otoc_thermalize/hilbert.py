"""Complex linear algebra substrate.

Projectors on C^D, product states on the qubits of a register, Haar-random
unitary sampling, and time evolution from several unitary sources
(Hamiltonian, circular unitary ensemble, brickwork circuit). A ``Projector``
is its D x rank orthonormal basis; its D x D matrix is never formed. A product
state |s><s| (x) 1 is never formed as one: ``embed_isometry`` is its
isometry L, and ``contract_isometry`` applies L^dag by contracting <s| into
the factor's qubits. Time evolution acts on a D x r basis K through
``evolve_basis_series``, the one routine that knows each source: it yields
U(t) K on a time grid without forming U(t), carrying a circuit's block
forward; ``evolve_basis`` is its one-time case and ``evolve`` its case
K = 1. A state is placed on its qubits in one way (``_on_sites``), and a
brickwork gate is a 4 x 4 matmul on a (2^a, 4, rest) view of the block.
"""

from __future__ import annotations

import math
import numbers
import zlib
from dataclasses import dataclass, field
from typing import Iterator, Optional, Sequence

import numpy as np

#: Default cap on the register dimension that the command line accepts.
DIM_CAP_DEFAULT = 2 ** 14

#: Frobenius-norm tolerances, scaled by the dimension where noted.
HERMITICITY_TOL = 1e-10   # times D
IDEMPOTENCE_TOL = 1e-10   # times D
UNITARITY_TOL = 1e-10     # times D
RANK_TOL = 1e-8
STATE_NORM_TOL = 1e-12


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

    With ``count = k`` the k draws come from one ``k x m x 2D`` normal draw
    and one stacked QR. The stack equals k consecutive single draws from the
    same generator, bit for bit, and leaves the generator in the same state.

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
        k x D x m stack of them.
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
    a = rng.standard_normal(shape).view(complex).swapaxes(-1, -2) / math.sqrt(2.0)
    q, r = np.linalg.qr(a)
    diag = np.diagonal(r, axis1=-2, axis2=-1).copy()
    # map zero pivots (probability zero, but finite-precision safe) to phase 1
    diag[diag == 0] = 1.0
    q *= (diag / np.abs(diag))[..., None, :]
    return q


def sample_haar_state(dim: int, seed=None, rng=None) -> np.ndarray:
    """Draw a Haar-random unit vector in C^dim: the one-column Haar draw."""
    return sample_haar_unitary(dim, seed=seed, rng=rng, columns=1)[:, 0]


def gue_hamiltonian(dim: int, seed=None, rng=None) -> np.ndarray:
    """Draw a GUE Hamiltonian normalized so the spectrum concentrates in [-2, 2].

    Entry variances are E[H_ii^2] = E[|H_ij|^2] = 1/dim, i.e. the density
    exp(-(dim/2) Tr H^2); the semicircle radius is then 2.
    """
    rng = _resolve_rng(seed, rng)
    a = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    return (a + a.conj().T) / (2.0 * math.sqrt(dim))


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
        """Raise ValueError unless the basis columns are orthonormal at tolerance.

        ||V^dag V - 1||_F <= min(IDEMPOTENCE_TOL D, RANK_TOL/sqrt(r)) is checked
        at O(D r^2); it bounds the idempotence and trace defects of V V^dag.
        """
        v = self.basis
        defect = np.linalg.norm(v.conj().T @ v - np.eye(self.rank))
        if not defect <= min(IDEMPOTENCE_TOL * self.dim,
                             RANK_TOL / math.sqrt(max(self.rank, 1))):
            raise ValueError(f"basis columns not orthonormal: defect {defect:.3e}")

    @classmethod
    def from_isometry(cls, v: np.ndarray) -> "Projector":
        """Projector V V^dag onto the column span of an isometry V."""
        return cls(v)

    @classmethod
    def coordinate(cls, dim: int, rank: int) -> "Projector":
        """Projector onto the span of the first ``rank`` coordinate vectors."""
        if not 0 <= rank <= dim:
            raise ValueError(f"rank {rank} out of range for dim {dim}")
        return cls(np.eye(dim, rank))


def conjugate(p: Projector, u: np.ndarray) -> Projector:
    """Return U P U^dag, the projector onto the span of U V, validated."""
    u = np.asarray(u, dtype=complex)
    if u.shape != (p.dim, p.dim):
        raise ValueError(f"dimension mismatch: P acts on {p.dim}, U is {u.shape}")
    return Projector(u @ p.basis)


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
    def d_eta(self) -> int:
        """Bath dimension D/D_sigma; equals the core-projector rank D_rho."""
        return self.dim // self.d_sigma

    @property
    def d_env(self) -> int:
        """Environment dimension D/D_S; equals the observable rank D_R."""
        return self.dim // self.d_s

    @property
    def d_rho(self) -> int:
        return self.d_eta

    @property
    def d_r(self) -> int:
        return self.d_env


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
    """A family of unitaries U(t), one of three variants.

    ``hamiltonian``: autonomous evolution exp(-i H t); the constructor
    diagonalizes H once and keeps its eigenvalues and eigenvectors.
    ``haar_cue``: each integer t > 0 labels an independent Haar unitary drawn
    from the seed, with t = 0 the identity; this realizes "evolve to the
    Haar-typicality regime" without a model Hamiltonian.
    ``circuit``: brickwork of Haar-random two-qubit gates; integer t counts
    applied layers, each layer's gates derived deterministically from the seed.

    A source holds no mutable state, so one source may be evolved from
    several threads at once.
    """

    kind: str
    dim: int
    seed: Optional[int] = None
    n_sites: Optional[int] = None
    evals: Optional[np.ndarray] = field(default=None, repr=False, compare=False)
    evecs: Optional[np.ndarray] = field(default=None, repr=False, compare=False)

    @classmethod
    def hamiltonian(cls, h: np.ndarray) -> "UnitarySource":
        """Autonomous source exp(-i H t) for a Hermitian matrix H."""
        h = np.asarray(h, dtype=complex)
        if h.ndim != 2 or h.shape[0] != h.shape[1]:
            raise ValueError(f"Hamiltonian must be square, got {h.shape}")
        defect = np.linalg.norm(h - h.conj().T)
        if not defect <= HERMITICITY_TOL * h.shape[0]:
            raise ValueError(f"Hamiltonian not Hermitian: defect {defect:.3e}")
        evals, evecs = np.linalg.eigh(h)
        return cls(kind="hamiltonian", dim=h.shape[0], evals=evals, evecs=evecs)

    @classmethod
    def haar_cue(cls, dim: int, seed: int) -> "UnitarySource":
        """Independent Haar unitaries indexed by integer time."""
        return cls(kind="haar_cue", dim=dim, seed=seed)

    @classmethod
    def circuit(cls, n_sites: int, seed: int) -> "UnitarySource":
        """Brickwork circuit of Haar two-qubit gates on ``n_sites`` qubits."""
        if n_sites < 2:
            raise ValueError("circuit source needs at least 2 qubits")
        return cls(kind="circuit", dim=2 ** n_sites, seed=seed, n_sites=n_sites)


def _apply_circuit(source: UnitarySource, k: np.ndarray, start: int,
                   stop: int) -> np.ndarray:
    """Apply brickwork layers ``start .. stop-1`` to the columns of ``k``.

    Layer l acts on the qubit pairs (a, a+1) starting at a = l mod 2. Qubit
    a is the (a+1)-th most significant bit of the row index, so its gate is
    a 4 x 4 matmul on the middle axis of the (2^a, 4, rest) view of the
    D x r block.
    """
    for layer in range(start, stop):
        for slot, a in enumerate(range(layer % 2, source.n_sites - 1, 2)):
            gate = sample_haar_unitary(4, rng=derive_rng(source.seed, "layer", layer, slot))
            k = (gate @ k.reshape(2 ** a, 4, -1)).reshape(k.shape)
    return k


def evolve_basis_series(source: UnitarySource, k: np.ndarray,
                        times: Sequence[float]) -> Iterator[np.ndarray]:
    """Yield U(t) K for each t in ``times``, in order, never forming U(t).

    K is a D x r matrix. Hamiltonian sources accept any real t (with
    U(t1) U(t2) = U(t1+t2)); the ensemble variants accept nonnegative
    integers, t = 0 giving a copy of K. Costs per time: O(D^2 r) for a
    Hamiltonian, whose V^dag K is formed once per series; for CUE, the
    leading m columns of the Haar unitary (D x m Gaussians and a thin QR,
    O(D m^2)), where m is one plus the index of the last nonzero row of K,
    times K[:m] unless K[:m] is the identity (checked once per series).
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
    if source.kind == "hamiltonian":
        # V^dag K as conj(V^T conj(K)): V^T is a view, V.conj() a D x D copy
        coeffs = (source.evecs.T @ k.conj()).conj()
    elif source.kind == "haar_cue":
        m = int(np.max(np.flatnonzero(np.any(k != 0, axis=1)), initial=0)) + 1
        # a product core on the leading qubits has k[:m] = 1: skip that product
        identity = k.shape[1] == m and np.array_equal(k[:m], np.eye(m))
    elif source.kind != "circuit":
        raise ValueError(f"unknown source kind {source.kind!r}")
    depth, kt = None, None
    for t in times:
        if not np.isfinite(t):
            raise ValueError(f"time must be finite, got {t}")
        if source.kind == "hamiltonian":
            phases = np.exp(-1j * float(t) * source.evals)
            yield source.evecs @ (phases[:, None] * coeffs)
            continue
        step = int(round(t))
        if step < 0 or abs(t - step) > 1e-12:
            raise ValueError(
                f"{source.kind} sources are defined on nonnegative integer times, got {t}")
        if step == 0:
            yield k.copy()
        elif source.kind == "haar_cue":
            q = sample_haar_unitary(source.dim, rng=derive_rng(source.seed, "cue", step),
                                    columns=m)
            if not identity:
                q = q @ k[:m]  # frees the draw before the yield
            yield q
        else:
            if depth is None or step < depth:
                # layer 0 has a gate, so the block yielded is never K itself
                depth, kt = 0, k
            kt = _apply_circuit(source, kt, depth, step)
            depth = step
            kt.flags.writeable = False
            yield kt


def evolve_basis(source: UnitarySource, k: np.ndarray, t: float) -> np.ndarray:
    """Return U(t) K for a D x r matrix K: ``evolve_basis_series`` at one time."""
    return next(evolve_basis_series(source, k, [t]))


def evolve(source: UnitarySource, t: float) -> np.ndarray:
    """Dense unitary U(t) for the given source: ``evolve_basis`` with K = 1."""
    return evolve_basis(source, np.eye(source.dim, dtype=complex), t)
