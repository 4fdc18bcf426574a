"""Dense reference routes that the tests hold the library against.

Each takes the dense `D x D` projector and works in the ambient space, so it
shares no arithmetic with the principal-axes routes it checks.
``recording_eigh`` shows whether a block of code took the dense
eigendecomposition route at all.
"""

import contextlib

import numpy as np


def dense_expectations(p_r, basis):
    """<b_j|P_R|b_j> for each column b_j of a D x n basis, by the dense product."""
    basis = np.asarray(basis, dtype=complex)
    return np.einsum("ij,ij->j", basis.conj(), p_r.entries @ basis).real


def dense_nonthermal_fraction(p_r, basis, g2, lam):
    """Fraction of the columns of ``basis`` with |<b|P_R|b> - G^2| > lambda."""
    expect = dense_expectations(p_r, basis)
    return float(np.count_nonzero(np.abs(expect - g2) > lam)) / expect.size


@contextlib.contextmanager
def recording_eigh():
    """Yield a list that records the shape of each ``np.linalg.eigh`` argument.

    Calls from every thread are recorded until the block exits.
    """
    calls = []
    eigh = np.linalg.eigh

    def recorded(a, *args, **kwargs):
        calls.append(np.shape(a))
        return eigh(a, *args, **kwargs)

    np.linalg.eigh = recorded
    try:
        yield calls
    finally:
        np.linalg.eigh = eigh
