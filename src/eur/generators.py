"""Constructors for bases, basis families, and random states."""

from __future__ import annotations

import math

import numpy as np

from .core import BipartiteState, DensityMatrix, MeasurementBasis, MeasurementChain


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    k = 2
    while k * k <= n:
        if n % k == 0:
            return False
        k += 1
    return True


def computational_basis(dim: int, label: str = "computational") -> MeasurementBasis:
    if dim < 1:
        raise ValueError(f"dimension must be positive, got {dim}")
    return MeasurementBasis(np.eye(dim, dtype=complex), label=label)


def mub_set(dim: int, count: int | None = None) -> list[MeasurementBasis]:
    """``count`` pairwise mutually unbiased bases in prime dimension ``dim``.

    The full family has dim + 1 members: the computational basis plus the
    quadratic-phase bases with vectors omega^(a k^2 + b k) / sqrt(dim).  In
    dimension 2 the quadratic phase needs the fourth root of unity, giving
    the computational, Hadamard, and circular bases.
    """
    if not _is_prime(dim):
        raise ValueError(f"MUB construction requires a prime dimension, got {dim}")
    if count is None:
        count = dim + 1
    if not 1 <= count <= dim + 1:
        raise ValueError(f"count must be between 1 and dim + 1 = {dim + 1}, got {count}")
    bases = [computational_basis(dim)]
    k = np.arange(dim)
    for a in range(count - 1):
        if dim == 2:
            vectors = np.array([(1j ** (a * k)) * ((-1) ** (b * k)) for b in range(2)], dtype=complex)
        else:
            omega = np.exp(2j * np.pi / dim)
            vectors = np.array([omega ** ((a * k * k + b * k) % dim) for b in range(dim)], dtype=complex)
        bases.append(MeasurementBasis(vectors / np.sqrt(dim), label=f"mub-{a + 1}"))
    return bases


def _paper_d3_vectors(a, phi) -> np.ndarray:
    """(..., 3, 3, 3) bases of :func:`parametric_d3_chain`, one chain per entry of the broadcast
    ``a`` and ``phi``; the first bad entry in C order is reported, ``a`` before ``phi``.

    The parameters are checked here, the bases by their consumer: ``MeasurementBasis`` in
    :func:`parametric_d3_chain`, and ``core._overlap_bank`` in ``eur scan``, which reads the
    orthonormality check from the products it computes anyway.
    """
    a, phi = np.broadcast_arrays(np.asarray(a, dtype=float), np.asarray(phi, dtype=float))
    bad = ~((0.0 <= a) & (a <= 1.0) & np.isfinite(phi))
    if bad.any():
        k = np.flatnonzero(bad)[0]
        if not 0.0 <= a.flat[k] <= 1.0:
            raise ValueError(f"parameter a must lie in [0, 1], got {a.flat[k]}")
        raise ValueError(f"parameter phi must be finite, got {phi.flat[k]}")
    s = 1.0 / np.sqrt(2.0)
    e = np.exp(1j * phi)
    ra, rb = np.sqrt(a), np.sqrt(1.0 - a)
    v = np.zeros(a.shape + (3, 3, 3), dtype=complex)
    v[..., 0, :, :] = np.eye(3)
    v[..., 1, :, :] = [[s, 0.0, -s], [0.0, 1.0, 0.0], [s, 0.0, s]]
    v[..., 2, 0, 0], v[..., 2, 0, 1] = ra, e * rb
    v[..., 2, 1, 0], v[..., 2, 1, 1] = rb, -e * ra
    v[..., 2, 2, 2] = 1.0
    return v


def parametric_d3_chain(a: float, phi: float) -> MeasurementChain:
    """Three-basis family in dimension 3 tuned by weight ``a`` and phase ``phi``.

    The first basis is computational; the second mixes the outer levels
    through a balanced rotation; the third entangles the first two levels
    with amplitude split a : (1 - a) and relative phase phi.
    """
    v = _paper_d3_vectors(a, phi)
    return MeasurementChain(tuple(MeasurementBasis(v[m], label=f"B{m + 1}") for m in range(3)))


def random_basis(dim: int, seed: int) -> MeasurementBasis:
    """Haar-random orthonormal basis (QR of a complex Gaussian with phase fix)."""
    if dim < 1:
        raise ValueError(f"dimension must be positive, got {dim}")
    rng = np.random.default_rng(seed)
    z = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    q, r = np.linalg.qr(z)
    d = np.diag(r)
    q = q * (d / np.abs(d))
    return MeasurementBasis(q.T, label=f"haar-{seed}")


def random_density_matrix(dim: int, rank: int, seed) -> DensityMatrix:
    """Random mixed state G G^dagger / tr, with G a dim x rank complex Gaussian.

    ``seed`` is anything ``np.random.default_rng`` accepts; a numpy Generator
    is used as is, so the draw continues its stream.  The result is a density
    matrix by construction, so it skips the constructor's validation.
    """
    if not 1 <= rank <= dim:
        raise ValueError(f"rank must be between 1 and dim = {dim}, got {rank}")
    draw = np.random.default_rng(seed).standard_normal(2 * dim * rank)
    return DensityMatrix(_unit_trace(_gaussian_gram(dim, [draw])[0]), validate=False)


def _gaussian_gram(dim: int, draws) -> np.ndarray:
    """The (len(draws), dim, dim) stack of G G^dagger, random mixed states times their traces.

    Each draw is the 2 dim r normals of a dim x r complex Gaussian G, its real part and then its
    imaginary part, row-major.  The draws are grouped by rank with a dict (``np.unique``'s first
    call raises a process's peak RSS by about 1.6 MB), and each group takes one stacked product,
    which gives every matrix the bits of its own ``g @ g.conj().T``.
    """
    out = np.empty((len(draws), dim, dim), dtype=complex)
    groups: dict = {}
    for i, draw in enumerate(draws):
        groups.setdefault(draw.size, []).append(i)
    for size, rows in groups.items():
        a = np.array([draws[i] for i in rows]).reshape(len(rows), 2, dim, size // (2 * dim))
        g = a[:, 0] + 1j * a[:, 1]
        out[rows] = g @ g.conj().swapaxes(-1, -2)
    return out


def _unit_trace(m: np.ndarray) -> np.ndarray:
    """Each matrix of the (..., d, d) stack over its real trace; a stack gives each matrix's own bits."""
    return m / np.trace(m, axis1=-2, axis2=-1).real[..., None, None]


def maximally_entangled(dim: int) -> BipartiteState:
    """|Phi> = sum_i |ii> / sqrt(dim) as a bipartite dim x dim state."""
    if dim < 1:
        raise ValueError(f"dimension must be positive, got {dim}")
    return _entangled(dim, dim)


def _entangled(da: int, db: int) -> BipartiteState:
    """The maximally entangled state sum_i |ii> / sqrt(d_A) on A and the first d_A of B's d_B >= d_A
    levels.  Each measured outcome of A is then known from B: every H(M|B) is 0, the least it can be."""
    return BipartiteState.from_pure(np.eye(da, db).ravel() / math.sqrt(da), da, db)
