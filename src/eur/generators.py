"""Constructors for bases, basis families, and random states."""

from __future__ import annotations

import numpy as np

from .core import BipartiteState, DensityMatrix, MeasurementBasis, MeasurementChain, PureState


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


def parametric_d3_chain(a: float, phi: float) -> MeasurementChain:
    """Three-basis family in dimension 3 tuned by weight ``a`` and phase ``phi``.

    The first basis is computational; the second mixes the outer levels
    through a balanced rotation; the third entangles the first two levels
    with amplitude split a : (1 - a) and relative phase phi.
    """
    if not 0.0 <= a <= 1.0:
        raise ValueError(f"parameter a must lie in [0, 1], got {a}")
    s = 1.0 / np.sqrt(2.0)
    second = np.array(
        [[s, 0.0, -s],
         [0.0, 1.0, 0.0],
         [s, 0.0, s]],
        dtype=complex,
    )
    e = np.exp(1j * phi)
    ra, rb = np.sqrt(a), np.sqrt(1.0 - a)
    third = np.array(
        [[ra, e * rb, 0.0],
         [rb, -e * ra, 0.0],
         [0.0, 0.0, 1.0]],
        dtype=complex,
    )
    return MeasurementChain(
        (
            computational_basis(3, label="B1"),
            MeasurementBasis(second, label="B2"),
            MeasurementBasis(third, label="B3"),
        )
    )


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
    rng = np.random.default_rng(seed)
    g = rng.standard_normal((dim, rank)) + 1j * rng.standard_normal((dim, rank))
    m = g @ g.conj().T
    return DensityMatrix(m / np.trace(m).real, validate=False)


def maximally_entangled(dim: int) -> BipartiteState:
    """|Phi> = sum_i |ii> / sqrt(dim) as a bipartite dim x dim state."""
    if dim < 1:
        raise ValueError(f"dimension must be positive, got {dim}")
    vec = np.zeros(dim * dim, dtype=complex)
    for i in range(dim):
        vec[i * dim + i] = 1.0 / np.sqrt(dim)
    return BipartiteState(PureState(vec).projector(), dim, dim)
