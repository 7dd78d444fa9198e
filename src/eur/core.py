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
EIGENVALUE_FLOOR = -1e-10  # eigenvalues in [floor, 0) clamp to 0; below is an error
PROB_CLAMP = 1e-12        # outcome probabilities in [-PROB_CLAMP, 0) clamp to 0


def _as_complex_matrix(m, name: str) -> np.ndarray:
    m = np.asarray(m, dtype=complex)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError(f"{name} must be a square 2-D array, got shape {m.shape}")
    if not np.all(np.isfinite(m.real)) or not np.all(np.isfinite(m.imag)):
        raise ValueError(f"{name} contains non-finite entries")
    return m


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
        m = _as_complex_matrix(self.matrix, "density matrix")
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

    def eigenvalues(self) -> np.ndarray:
        """Spectrum with small negative noise clamped to zero."""
        vals = np.linalg.eigvalsh(self.matrix)
        return np.where(vals < 0.0, 0.0, vals)

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
        v = np.ascontiguousarray(_as_complex_matrix(self.vectors, "basis"))
        gram = v.conj() @ v.T
        d = v.shape[0]
        norm_err = np.abs(np.diag(gram).real - 1.0).max()
        if norm_err > NORM_TOL:
            raise ValueError(f"basis row norms deviate from 1 by up to {norm_err:.3e}")
        off = gram - np.diag(np.diag(gram))
        ortho_err = np.abs(off).max() if d > 1 else 0.0
        if ortho_err > ORTHO_TOL:
            raise ValueError(f"basis rows are not orthogonal: max |<u_i|u_j>| = {ortho_err:.3e}")
        object.__setattr__(self, "vectors", _freeze(v))

    @property
    def dim(self) -> int:
        return self.vectors.shape[0]

    def vector(self, i: int) -> np.ndarray:
        return self.vectors[i]

    def states(self) -> list[PureState]:
        return [PureState(row) for row in self.vectors]


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

        Computed once per chain, one ``overlap_table`` call per entry, so every
        table matches that function bit for bit (a mirror's transpose may not).
        """
        return _freeze(np.array([[overlap_table(a, b) for b in self.bases] for a in self.bases]))

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
    return np.abs(a.vectors.conj() @ b.vectors.T) ** 2


def max_overlap(a: MeasurementBasis, b: MeasurementBasis) -> float:
    """Largest squared overlap c(a, b) = max_{i,j} |<a_i|b_j>|^2."""
    return float(overlap_table(a, b).max())


def outcome_distribution(basis: MeasurementBasis, rho: DensityMatrix) -> np.ndarray:
    """Born probabilities p_i = <u_i|rho|u_i>, tiny negatives clamped to 0."""
    _check_same_dim(basis.dim, rho.dim, "outcome_distribution")
    v = basis.vectors
    p = np.einsum("ij,jk,ik->i", v.conj(), rho.matrix, v).real
    if p.min() < -PROB_CLAMP:
        raise ValueError(f"outcome probability below clamp window: {p.min():.3e}")
    return np.where(p < 0.0, 0.0, p)


def measurement_channel(basis: MeasurementBasis, rho: DensityMatrix) -> DensityMatrix:
    """Dephase rho in the given basis: sum_i <u_i|rho|u_i> |u_i><u_i|."""
    p = outcome_distribution(basis, rho)
    v = basis.vectors
    out = (v.T * p) @ v.conj()
    out = 0.5 * (out + out.conj().T)
    return DensityMatrix(out, validate=False)


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
    r = m.reshape(dim_a, dim_b, dim_a, dim_b)
    if keep == "A":
        return np.einsum("abcb->ac", r)
    if keep == "B":
        return np.einsum("abad->bd", r)
    raise ValueError(f"keep must be 'A' or 'B', got {keep!r}")


def partial_trace(rho: BipartiteState, keep: str) -> DensityMatrix:
    """Reduced state of the kept subsystem ('A' or 'B')."""
    out = _partial_trace_matrix(rho.matrix, rho.dim_a, rho.dim_b, keep)
    out = 0.5 * (out + out.conj().T)
    return DensityMatrix(out, validate=False)
