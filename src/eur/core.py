"""Finite-dimensional states, orthonormal measurement bases, and projective channels.

Everything downstream (entropies, uncertainty bounds, the verifier) is built on
the handful of validated containers and array operations in this module.
Vectors are stored as rows: ``basis.vectors[i]`` is the i-th outcome vector.
"""

from __future__ import annotations

from dataclasses import InitVar, dataclass
from functools import cached_property

import numpy as np

# Validation tolerances.  Constructors reject inputs outside these windows
# rather than re-orthogonalizing or renormalizing on the caller's behalf.
NORM_TOL = 1e-10          # |sum |a_k|^2 - 1| for pure states / basis rows
ORTHO_TOL = 1e-9          # |<u_i|u_j>| for i != j
HERMITIAN_TOL = 1e-10     # max |M - M^dagger|
TRACE_TOL = 1e-10         # |tr(rho) - 1|
EIGENVALUE_FLOOR = -1e-10  # eigenvalues in [floor, 0) pass, cut to 0 weight by entropy.LOG_CUTOFF; below is an error
PROB_CLAMP = 1e-12        # outcome probabilities in [-PROB_CLAMP, 0) clamp to 0


def _as_square_matrix(m, name: str) -> np.ndarray:
    m = np.asarray(m, dtype=complex)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError(f"{name} must be a square 2-D array, got shape {m.shape}")
    return m


def _check_finite(m: np.ndarray, name: str) -> None:
    if not np.isfinite(m).all():
        raise ValueError(f"{name} contains non-finite entries")


def _check_gram(gram: np.ndarray) -> None:
    """Reject a (..., d, d) stack of Gram matrices <u_i|u_j> of row bases unless every basis is orthonormal."""
    diag = np.diagonal(gram, axis1=-2, axis2=-1)
    norm_err = np.abs(diag.real - 1.0).max()
    if norm_err > NORM_TOL:
        raise ValueError(f"basis row norms deviate from 1 by up to {norm_err:.3e}")
    off = gram - diag[..., None] * np.eye(gram.shape[-1])
    ortho_err = np.abs(off).max()
    if ortho_err > ORTHO_TOL:
        raise ValueError(f"basis rows are not orthogonal: max |<u_i|u_j>| = {ortho_err:.3e}")


def _freeze(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


@dataclass(frozen=True)
class PureState:
    """A normalized state vector."""

    amplitudes: np.ndarray

    def __post_init__(self):
        a = np.asarray(self.amplitudes, dtype=complex)
        if a.ndim != 1 or a.size == 0:
            raise ValueError(f"pure state must be a non-empty 1-D vector, got shape {a.shape}")
        if not np.all(np.isfinite(a.real)) or not np.all(np.isfinite(a.imag)):
            raise ValueError("pure state contains non-finite entries")
        norm_err = abs(np.vdot(a, a).real - 1.0)
        if norm_err > NORM_TOL:
            raise ValueError(f"pure state is not normalized: |<psi|psi> - 1| = {norm_err:.3e}")
        object.__setattr__(self, "amplitudes", _freeze(a))

    @property
    def dim(self) -> int:
        return self.amplitudes.size

    def projector(self) -> "DensityMatrix":
        """Rank-one density matrix |psi><psi|."""
        a = self.amplitudes
        return DensityMatrix(np.outer(a, a.conj()), validate=False)


@dataclass(frozen=True)
class DensityMatrix:
    """Hermitian, unit-trace, positive-semidefinite matrix."""

    matrix: np.ndarray
    validate: InitVar[bool] = True

    def __post_init__(self, validate: bool):
        m = _as_square_matrix(self.matrix, "density matrix")
        _check_finite(m, "density matrix")
        if validate:
            herm_err = np.abs(m - m.conj().T).max()
            if herm_err > HERMITIAN_TOL:
                raise ValueError(f"density matrix is not Hermitian: max |M - M^dag| = {herm_err:.3e}")
            trace_err = abs(np.trace(m).real - 1.0)
            if trace_err > TRACE_TOL:
                raise ValueError(f"density matrix trace differs from 1 by {trace_err:.3e}")
            low = np.linalg.eigvalsh(m).min()
            if low < EIGENVALUE_FLOOR:
                raise ValueError(f"density matrix has negative eigenvalue {low:.3e}")
        object.__setattr__(self, "matrix", _freeze(m))

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    def purity(self) -> float:
        return float(np.trace(self.matrix @ self.matrix).real)


@dataclass(frozen=True)
class MeasurementBasis:
    """Orthonormal basis defining a projective measurement.

    ``vectors`` is a (dim, dim) array whose rows are the outcome vectors.
    Inputs that fail orthonormality are rejected, never re-orthogonalized.
    """

    vectors: np.ndarray
    label: str = ""

    def __post_init__(self):
        # row-major storage, so a basis and its file round trip give bit-identical products
        v = np.ascontiguousarray(_as_square_matrix(self.vectors, "basis"))
        _check_finite(v, "basis")
        _check_gram(_inner(v, v))
        object.__setattr__(self, "vectors", _freeze(v))

    @property
    def dim(self) -> int:
        return self.vectors.shape[0]


@dataclass(frozen=True)
class MeasurementChain:
    """An ordered tuple of two or more same-dimension measurement bases."""

    bases: tuple[MeasurementBasis, ...]

    def __post_init__(self):
        bases = tuple(self.bases)
        if len(bases) < 2:
            raise ValueError(f"chain requires N >= 2 bases, got {len(bases)}")
        dims = {b.dim for b in bases}
        if len(dims) != 1:
            raise ValueError(f"chain bases have mismatched dimensions: {sorted(dims)}")
        object.__setattr__(self, "bases", bases)

    @property
    def dim(self) -> int:
        return self.bases[0].dim

    def __len__(self) -> int:
        return len(self.bases)

    def __iter__(self):
        return iter(self.bases)

    def __getitem__(self, i):
        return self.bases[i]

    @cached_property
    def overlaps(self) -> np.ndarray:
        """Read-only (N, N, d, d) bank: ``overlaps[m, k]`` is ``overlap_table(self[m], self[k])``.

        Computed once per chain by :func:`_overlap_bank`, one product per entry, so every
        table matches that function bit for bit (a mirror's transpose may not).
        """
        return _freeze(_overlap_bank(np.array([b.vectors for b in self.bases])))

    def reordered(self, order) -> "MeasurementChain":
        """Chain with bases permuted by the given index order."""
        order = tuple(order)
        if sorted(order) != list(range(len(self.bases))):
            raise ValueError(f"order {order} is not a permutation of 0..{len(self.bases) - 1}")
        return MeasurementChain(tuple(self.bases[i] for i in order))


@dataclass(frozen=True)
class BipartiteState:
    """Joint state on A (system) tensor B (memory), index (i_A, i_B) -> i_A * dim_b + i_B."""

    joint: DensityMatrix
    dim_a: int
    dim_b: int

    def __post_init__(self):
        if self.dim_a < 1 or self.dim_b < 1:
            raise ValueError("subsystem dimensions must be positive")
        if self.dim_a * self.dim_b != self.joint.dim:
            raise ValueError(
                f"dim_a * dim_b = {self.dim_a * self.dim_b} does not match joint dimension {self.joint.dim}"
            )

    @property
    def matrix(self) -> np.ndarray:
        return self.joint.matrix

    @classmethod
    def from_pure(cls, amplitudes, dim_a: int, dim_b: int) -> "BipartiteState":
        psi = amplitudes if isinstance(amplitudes, PureState) else PureState(amplitudes)
        if psi.dim != dim_a * dim_b:
            raise ValueError(f"vector length {psi.dim} does not match dim_a * dim_b = {dim_a * dim_b}")
        return cls(psi.projector(), dim_a, dim_b)


def _check_same_dim(x_dim: int, y_dim: int, what: str) -> None:
    if x_dim != y_dim:
        raise ValueError(f"dimension mismatch in {what}: {x_dim} vs {y_dim}")


def overlap_table(a: MeasurementBasis, b: MeasurementBasis) -> np.ndarray:
    """Table of squared overlaps c[i, j] = |<a_i|b_j>|^2.

    Rows index outcomes of ``a``, columns outcomes of ``b``.  The table is
    doubly stochastic: every row and column sums to one.
    """
    _check_same_dim(a.dim, b.dim, "overlap_table")
    return np.abs(_inner(a.vectors, b.vectors)) ** 2


def _inner(u: np.ndarray, w: np.ndarray) -> np.ndarray:
    """<u_i|w_j> for the rows of the (..., d, d) stacks ``u`` and ``w``, broadcast."""
    return u.conj() @ np.swapaxes(w, -1, -2)


def _overlap_bank(v: np.ndarray) -> np.ndarray:
    """(..., N, N, d, d) bank of every chain in the (..., N, d, d) stack of row bases ``v``.

    Rejects the stack unless every entry is finite and every basis orthonormal, with the checks
    and messages of :class:`MeasurementBasis`.  Each basis' Gram matrix is read from the diagonal
    blocks of the bank's own inner products, which are then squared, so one product serves both.
    A basis the constructor accepted passes here too: its block is the same product.
    """
    _check_finite(v, "basis")
    g = _inner(v[..., :, None, :, :], v[..., None, :, :, :])
    n = v.shape[-3]
    _check_gram(g[..., range(n), range(n), :, :])
    return np.abs(g) ** 2


def max_overlap(a: MeasurementBasis, b: MeasurementBasis) -> float:
    """Largest squared overlap c(a, b) = max_{i,j} |<a_i|b_j>|^2."""
    return float(overlap_table(a, b).max())


def _stacked_bras(chain: MeasurementChain) -> np.ndarray:
    """The (N d, d) matrix whose rows are the bras <u_i| of every basis, basis by basis."""
    return np.concatenate([b.vectors.conj() for b in chain])


def _born_probabilities(bras: np.ndarray, mats: np.ndarray) -> np.ndarray:
    """<u_i|rho|u_i> for the rows <u_i| of ``bras`` and each rho of the (..., d, d) stack, unvalidated."""
    p = np.einsum("ij,...jk,ik->...i", bras, mats, bras.conj()).real
    if p.min() < -PROB_CLAMP:
        raise ValueError(f"outcome probability below clamp window: {p.min():.3e}")
    return np.where(p < 0.0, 0.0, p)


def outcome_distribution(basis: MeasurementBasis, rho: DensityMatrix) -> np.ndarray:
    """Born probabilities p_i = <u_i|rho|u_i>, tiny negatives clamped to 0."""
    _check_same_dim(basis.dim, rho.dim, "outcome_distribution")
    return _born_probabilities(basis.vectors.conj(), rho.matrix)


def _mixture(vectors: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """sum_i w_i |u_i><u_i| over the rows u_i of ``vectors``, per weight vector of the (..., d) ``weights``."""
    out = (vectors.T * weights[..., None, :]) @ vectors.conj()
    return 0.5 * (out + np.swapaxes(out.conj(), -1, -2))


def measurement_channel(basis: MeasurementBasis, rho: DensityMatrix) -> DensityMatrix:
    """Dephase rho in the given basis: sum_i <u_i|rho|u_i> |u_i><u_i|."""
    return DensityMatrix(_mixture(basis.vectors, outcome_distribution(basis, rho)), validate=False)


def bipartite_measurement_channel(basis: MeasurementBasis, rho: BipartiteState) -> BipartiteState:
    """Measure subsystem A without reading the outcome: sum_i (P_i x I) rho (P_i x I)."""
    _check_same_dim(basis.dim, rho.dim_a, "bipartite_measurement_channel")
    da, db = rho.dim_a, rho.dim_b
    r = rho.matrix.reshape(da, db, da, db)
    v = basis.vectors
    # blocks[i] = <u_i| rho |u_i> acting on the B factor
    blocks = np.einsum("ia,abcd,ic->ibd", v.conj(), r, v)
    out = np.einsum("ia,ibd,ic->abcd", v, blocks, v.conj()).reshape(da * db, da * db)
    out = 0.5 * (out + out.conj().T)
    return BipartiteState(DensityMatrix(out, validate=False), da, db)


def _partial_trace_matrix(m: np.ndarray, dim_a: int, dim_b: int, keep: str) -> np.ndarray:
    """Reduced matrix of every joint matrix in the (..., dA dB, dA dB) stack ``m``."""
    r = m.reshape(m.shape[:-2] + (dim_a, dim_b, dim_a, dim_b))
    if keep == "A":
        return np.einsum("...abcb->...ac", r)
    if keep == "B":
        return np.einsum("...abad->...bd", r)
    raise ValueError(f"keep must be 'A' or 'B', got {keep!r}")


def partial_trace(rho: BipartiteState, keep: str) -> DensityMatrix:
    """Reduced state of the kept subsystem ('A' or 'B')."""
    out = _partial_trace_matrix(rho.matrix, rho.dim_a, rho.dim_b, keep)
    out = 0.5 * (out + out.conj().T)
    return DensityMatrix(out, validate=False)
