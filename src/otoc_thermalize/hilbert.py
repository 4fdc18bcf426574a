"""Complex linear algebra substrate.

Operators and projectors on C^D, tensor embeddings of subsystem states into a
qubit register, Haar-random unitary sampling, and time evolution from several
unitary sources (Hamiltonian, circular unitary ensemble, brickwork circuit).
Operators and projectors are dense D x D matrices. Time evolution acts on a
D x r basis: ``evolve_basis`` returns U(t) K without forming U(t), and
``evolve`` is its special case K = 1; ``evolve_basis_series`` walks a time
grid, carrying a circuit's block forward. The default dimension cap is 2**14.
"""

from __future__ import annotations

import math
import zlib
from dataclasses import dataclass, field
from typing import Iterator, Optional, Sequence

import numpy as np

#: Default hard cap on the Hilbert-space dimension for dense embeddings.
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


def sample_haar_unitary(dim: int, seed=None, rng=None) -> np.ndarray:
    """Draw a unitary from the Haar measure on U(dim).

    Uses the Ginibre + QR construction: QR of a complex Gaussian matrix,
    with the diagonal of R rotated onto the positive real axis. Without that
    phase correction the QR decomposition is not unique and the distribution
    of Q would not be Haar.

    Parameters
    ----------
    dim : int
        Dimension D >= 1.
    seed, rng :
        Either a seed for a fresh generator or an existing generator.

    Returns
    -------
    numpy.ndarray
        D x D complex unitary, ``U^dag U = 1`` to ``1e-10 * D``.
    """
    if dim < 1:
        raise ValueError(f"dimension must be >= 1, got {dim}")
    return _haar_columns(dim, dim, _resolve_rng(seed, rng))


def _haar_columns(dim: int, m: int, rng) -> np.ndarray:
    """Leading ``m`` columns of the Haar unitary ``sample_haar_unitary`` draws.

    The Ginibre matrix comes from the same random stream as the full D x D
    draw (its real part, then its imaginary part, row by row), but only its
    leading ``m`` columns are kept, ``m`` rows of the draw at a time. Column j
    of the QR factor Q depends on columns <= j alone, so the thin QR of those
    columns with the same phase fix gives the leading columns of the full
    unitary; with ``m = dim`` the output is bit-identical to it.
    """
    parts = []
    for _ in range(2):
        part = np.empty((dim, m))
        for start in range(0, dim, m):
            part[start:start + m] = rng.standard_normal(
                (min(m, dim - start), dim))[:, :m]
        parts.append(part)
    a = (parts[0] + 1j * parts[1]) / math.sqrt(2.0)
    q, r = np.linalg.qr(a)
    diag = np.diagonal(r).copy()
    # map zero pivots (probability zero, but finite-precision safe) to phase 1
    diag[diag == 0] = 1.0
    q *= diag / np.abs(diag)
    return q


def sample_haar_state(dim: int, seed=None, rng=None) -> np.ndarray:
    """Draw a Haar-random unit vector in C^dim (normalized complex Gaussian)."""
    rng = _resolve_rng(seed, rng)
    v = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    return v / np.linalg.norm(v)


def gue_hamiltonian(dim: int, seed=None, rng=None) -> np.ndarray:
    """Draw a GUE Hamiltonian normalized so the spectrum concentrates in [-2, 2].

    Entry variances are E[H_ii^2] = E[|H_ij|^2] = 1/dim, i.e. the density
    exp(-(dim/2) Tr H^2); the semicircle radius is then 2.
    """
    rng = _resolve_rng(seed, rng)
    a = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    return (a + a.conj().T) / (2.0 * math.sqrt(dim))


@dataclass(frozen=True)
class Operator:
    """A dense D x D complex matrix with finite entries."""

    entries: np.ndarray

    def __post_init__(self):
        entries = np.asarray(self.entries, dtype=complex)
        if entries.ndim != 2 or entries.shape[0] != entries.shape[1]:
            raise ValueError(f"operator must be square, got shape {entries.shape}")
        if entries.shape[0] < 1:
            raise ValueError("operator dimension must be >= 1")
        if not np.all(np.isfinite(entries.view(float))):
            raise ValueError("operator entries must be finite")
        object.__setattr__(self, "entries", entries)

    @property
    def dim(self) -> int:
        return self.entries.shape[0]


@dataclass(frozen=True)
class Projector(Operator):
    """An orthogonal projector with its integer rank.

    ``validate`` checks hermiticity, idempotence and the trace/rank match at
    the module tolerances; constructors in this package call it so that
    numerical degradation surfaces as an error instead of propagating.
    """

    rank: int = 0

    def __post_init__(self):
        super().__post_init__()
        if not (0 <= self.rank <= self.dim):
            raise ValueError(f"rank {self.rank} out of range for dim {self.dim}")

    def validate(self) -> None:
        """Raise ValueError if the projector invariants fail at tolerance."""
        p = self.entries
        d = self.dim
        herm = np.linalg.norm(p - p.conj().T)
        if herm > HERMITICITY_TOL * d:
            raise ValueError(f"projector not Hermitian: defect {herm:.3e}")
        idem = np.linalg.norm(p @ p - p)
        if idem > IDEMPOTENCE_TOL * d:
            raise ValueError(f"projector not idempotent: defect {idem:.3e}")
        tr = np.trace(p)
        if abs(tr.imag) > RANK_TOL or abs(tr.real - self.rank) > RANK_TOL:
            raise ValueError(
                f"projector trace {tr:.6e} does not match rank {self.rank}")

    @classmethod
    def from_isometry(cls, v: np.ndarray) -> "Projector":
        """Projector V V^dag onto the column span of an isometry V."""
        v = np.asarray(v, dtype=complex)
        p = cls(v @ v.conj().T, rank=v.shape[1])
        p.validate()
        return p

    @classmethod
    def coordinate(cls, dim: int, rank: int) -> "Projector":
        """Projector onto the span of the first ``rank`` coordinate vectors."""
        return cls(np.diag(np.r_[np.ones(rank), np.zeros(dim - rank)]).astype(complex),
                   rank=rank)


def conjugate(p: Projector, u: np.ndarray) -> Projector:
    """Return U P U^dag as a validated projector of the same rank."""
    u = np.asarray(u, dtype=complex)
    if u.shape != p.entries.shape:
        raise ValueError(f"dimension mismatch: P is {p.entries.shape}, U is {u.shape}")
    q = Projector(u @ p.entries @ u.conj().T, rank=p.rank)
    q.validate()
    return q


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
            if abs(np.linalg.norm(vec) - 1.0) > STATE_NORM_TOL:
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


def _site_permutation(sites: Sequence[int], n_total: int) -> np.ndarray:
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


def embed_isometry(setup: ManyBodySetup, which: str) -> np.ndarray:
    """Isometry from the complement factor into the full register.

    For ``which='observable'`` the columns are |chi> tensor |e_m> over the
    environment basis (shape D x D_R); for ``which='core'`` they are
    |psi> tensor |e_m> over the bath (shape D x D_rho). The columns are an
    orthonormal basis of the corresponding embedded projector's range.
    """
    if which == "observable":
        state, sites = setup.observed_state, setup.observed_sites
    elif which == "core":
        state, sites = setup.core_state, setup.core_sites
    else:
        raise ValueError(f"which must be 'observable' or 'core', got {which!r}")
    d = setup.dim
    d_rest = d // len(state)
    block = np.kron(state[:, None], np.eye(d_rest, dtype=complex))
    perm = _site_permutation(sites, setup.n_total)
    return block[perm]


def tensor_embed(setup: ManyBodySetup, which: str,
                 dim_cap: int = DIM_CAP_DEFAULT) -> Projector:
    """Embed the observed or core state projector into the full register.

    Returns |chi><chi| (x) 1_E for ``which='observable'`` (rank D/D_S) or
    |psi><psi| (x) 1_eta for ``which='core'`` (rank D/D_sigma), with the
    site layout of ``setup`` applied.

    Raises
    ------
    ValueError
        If the full dimension exceeds ``dim_cap``.
    """
    if setup.dim > dim_cap:
        raise ValueError(
            f"dimension {setup.dim} exceeds cap {dim_cap}; "
            "raise dim_cap explicitly to allow this allocation")
    return Projector.from_isometry(embed_isometry(setup, which))


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
        if defect > HERMITICITY_TOL * h.shape[0]:
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

    Each two-qubit gate is contracted into legs (a, a+1) of the row index of
    the D x r block, as in a state-vector simulation; layer l acts on the
    pairs starting at qubit l mod 2.
    """
    n = source.n_sites
    tensor = k.reshape((2,) * n + (k.shape[1],))
    for layer in range(start, stop):
        for slot, a in enumerate(range(layer % 2, n - 1, 2)):
            gate = sample_haar_unitary(4, rng=derive_rng(source.seed, "layer", layer, slot))
            tensor = np.tensordot(gate.reshape(2, 2, 2, 2), tensor,
                                  axes=[(2, 3), (a, a + 1)])
            tensor = np.moveaxis(tensor, (0, 1), (a, a + 1))
    return tensor.reshape(k.shape)


def _integer_time(source: UnitarySource, t: float) -> int:
    """The step index of an ensemble source's time ``t``."""
    step = int(round(t)) if np.isfinite(t) else -1
    if step < 0 or abs(t - step) > 1e-12:
        raise ValueError(
            f"{source.kind} sources are defined on nonnegative integer times, got {t}")
    return step


def evolve_basis(source: UnitarySource, k: np.ndarray, t: float) -> np.ndarray:
    """Return U(t) K for a D x r matrix K without forming the D x D U(t).

    Hamiltonian sources accept any real t (with U(t1) U(t2) = U(t1+t2));
    the ensemble variants accept nonnegative integers, t = 0 giving K.
    Costs: O(D^2 r) for a Hamiltonian; a thin QR of the leading m columns
    of the Ginibre draw for CUE, where m is one plus the index of the last
    nonzero row of K; O(t D r) for a circuit (``evolve_basis_series`` makes
    a whole ascending grid cost what its last time does).
    """
    k = np.asarray(k, dtype=complex)
    if k.ndim != 2 or k.shape[0] != source.dim:
        raise ValueError(
            f"dimension mismatch: source acts on {source.dim}, K is {k.shape}")
    if not np.isfinite(t):
        raise ValueError(f"time must be finite, got {t}")
    if source.kind == "hamiltonian":
        phases = np.exp(-1j * float(t) * source.evals)
        # V^dag K as conj(V^T conj(K)): V^T is a view, V.conj() a D x D copy
        coeffs = (source.evecs.T @ k.conj()).conj()
        return source.evecs @ (phases[:, None] * coeffs)
    step = _integer_time(source, t)
    if step == 0:
        return k.copy()
    if source.kind == "haar_cue":
        m = int(np.max(np.flatnonzero(np.any(k != 0, axis=1)), initial=0)) + 1
        q = _haar_columns(source.dim, m, derive_rng(source.seed, "cue", step))
        return q @ k[:m]
    if source.kind == "circuit":
        return _apply_circuit(source, k, 0, step)
    raise ValueError(f"unknown source kind {source.kind!r}")


def evolve_basis_series(source: UnitarySource, k: np.ndarray,
                        times: Sequence[float]) -> Iterator[np.ndarray]:
    """Yield ``evolve_basis(source, k, t)`` for each t in ``times``, in order.

    A circuit source carries the evolved block forward while the times do
    not decrease, applying only the layers between consecutive times, so a
    grid t = 0..T costs T layers rather than T(T+1)/2. A decreasing time
    starts again from K. Other sources evolve K afresh at every time.
    """
    depth, kt = None, None
    for t in times:
        if source.kind != "circuit":
            yield evolve_basis(source, k, t)
            continue
        step = _integer_time(source, t)
        if depth is None or step < depth:
            kt = evolve_basis(source, k, t)
        else:
            kt = _apply_circuit(source, kt, depth, step)
        depth = step
        yield kt


def evolve(source: UnitarySource, t: float) -> np.ndarray:
    """Dense unitary U(t) for the given source: ``evolve_basis`` with K = 1."""
    return evolve_basis(source, np.eye(source.dim, dtype=complex), t)
