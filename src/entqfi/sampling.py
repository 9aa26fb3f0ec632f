"""Seed-reproducible random two-qubit density matrices.

A state is a uniformly drawn spectrum conjugated by an independent
Haar-random eigenbasis: eigenvalues come from the flat measure on the
probability simplex (sorted-uniform-gaps construction) and the basis from
QR orthonormalization of a complex Gaussian matrix with the diagonal phase
correction that makes the distribution exactly Haar.

Reproducibility contract, pinned because regression fixtures depend on the
exact byte stream:

* Bit generator: numpy's counter-based Philox, keyed through
  ``SeedSequence(entropy=master_seed, spawn_key=(index,))``, so state
  ``index`` depends only on ``(master_seed, index)`` and never on
  generation order or on the chunk that draws it.  Requires numpy >= 2.0,
  < 3.
* Normal variates: ``Generator.standard_normal`` (numpy's ziggurat
  sampler) is the fixed, documented Gaussian source.
* Draw order per stream: three uniforms for the simplex gaps, then 16 real
  and 16 imaginary standard normals (row-major) for the Haar factor.  Any
  later draws on the same stream belong to downstream consumers.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "derive_stream",
    "random_density_matrix",
]


def derive_stream(master_seed: int, index: int) -> np.random.Generator:
    """Independent, replayable random stream for one ensemble index."""
    if index < 0:
        raise ValueError("index must be nonnegative")
    seq = np.random.SeedSequence(entropy=master_seed, spawn_key=(index,))
    return np.random.Generator(np.random.Philox(seq))


def _simplex_weights(cuts: np.ndarray) -> np.ndarray:
    """The four gaps that each row's three sorted cuts leave in [0, 1]."""
    edges = np.zeros((len(cuts), 5))
    edges[:, 1:4] = np.sort(cuts, axis=1)
    edges[:, 4] = 1.0
    return np.diff(edges, axis=1)


def _haar_bases(normals: np.ndarray) -> np.ndarray:
    """Haar unitaries from the real and imaginary Gaussian parts
    ``normals[..., 0, :, :]`` and ``normals[..., 1, :, :]``, one per leading index."""
    q, r = np.linalg.qr((normals[..., 0, :, :] + 1j * normals[..., 1, :, :]) / np.sqrt(2.0))
    # QR alone is not Haar: the R-diagonal phases must be folded back in.
    diag = np.diagonal(r, axis1=-2, axis2=-1)
    return q * (diag / np.abs(diag))[..., None, :]


def _density_matrices(rngs) -> np.ndarray:
    """One state per stream, as a (n, 4, 4) stack: each stream draws in the
    order pinned above, and the QR and the products run stacked."""
    cuts, normals = [], []
    for rng in rngs:
        cuts.append(rng.uniform(0.0, 1.0, size=3))
        normals.append(rng.standard_normal((2, 4, 4)))
    basis = _haar_bases(np.array(normals))
    rho = (basis * _simplex_weights(np.array(cuts))[:, None, :]) @ basis.conj().swapaxes(1, 2)
    return 0.5 * (rho + rho.conj().swapaxes(1, 2))


def random_density_matrix(rng: np.random.Generator) -> np.ndarray:
    """One random two-qubit state: simplex spectrum in a Haar eigenbasis."""
    return _density_matrices([rng])[0]
