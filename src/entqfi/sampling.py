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
  generation order or worker count.  Requires numpy >= 2.0, < 3.
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
    "simplex_eigenvalues",
    "haar_unitary",
    "random_density_matrix",
]


def derive_stream(master_seed: int, index: int) -> np.random.Generator:
    """Independent, replayable random stream for one ensemble index."""
    if index < 0:
        raise ValueError("index must be nonnegative")
    seq = np.random.SeedSequence(entropy=master_seed, spawn_key=(index,))
    return np.random.Generator(np.random.Philox(seq))


def simplex_eigenvalues(rng: np.random.Generator) -> np.ndarray:
    """Four nonnegative weights summing to one, uniform on the 3-simplex."""
    cuts = np.sort(rng.uniform(0.0, 1.0, size=3))
    return np.diff(np.concatenate(([0.0], cuts, [1.0])))


def haar_unitary(rng: np.random.Generator, dim: int = 4) -> np.ndarray:
    """Haar-distributed unitary of the given dimension."""
    if dim < 1:
        raise ValueError("dim must be at least 1")
    real = rng.standard_normal((dim, dim))
    imag = rng.standard_normal((dim, dim))
    q, r = np.linalg.qr((real + 1j * imag) / np.sqrt(2.0))
    diag = np.diagonal(r)
    # QR alone is not Haar: the R-diagonal phases must be folded back in.
    return q * (diag / np.abs(diag))


def random_density_matrix(rng: np.random.Generator) -> np.ndarray:
    """One random two-qubit state: simplex spectrum in a Haar eigenbasis."""
    spectrum = simplex_eigenvalues(rng)
    basis = haar_unitary(rng, 4)
    rho = (basis * spectrum) @ basis.conj().T
    return 0.5 * (rho + rho.conj().T)
