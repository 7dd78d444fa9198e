"""Finite-dimensional states, orthonormal measurement bases, and projective channels.

Everything downstream (entropies, uncertainty bounds, the verifier) is built on
the handful of validated containers and array operations in this module.
Vectors are stored as rows: ``basis.vectors[i]`` is the i-th outcome vector.
"""

from __future__ import annotations

from functools import cached_property

import numpy as np

# Validation tolerances.  Constructors reject inputs outside these windows
# rather than re-orthogonalizing or renormalizing on the caller's behalf.
NORM_TOL = 1e-10          # |sum |a_k|^2 - 1| for pure states / basis rows
ORTHO_TOL = 1e-9          # |<u_i|u_j>| for i != j
HERMITIAN_TOL = 1e-10     # max |M - M^dagger|
TRACE_TOL = 1e-10         # |tr(rho) - 1|
EIGENVALUE_FLOOR = -1e-10  # eigenvalues and Born probabilities (their averages) in [floor, 0) pass; below is an error


def _as_square_matrix(m, name: str) -> np.ndarray:
    m = np.asarray(m, dtype=complex)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError(f"{name} must be a square 2-D array, got shape {m.shape}")
    if m.size == 0:
        raise ValueError(f"{name} must be non-empty, got shape {m.shape}")
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


class _Frozen:
    """Base of the containers: fields stored once by ``__init__``, then read-only; equal and hashed by identity."""

    def __init__(self, **fields):
        self.__dict__.update(fields)

    def __setattr__(self, name, *value):
        raise AttributeError(f"cannot assign to or delete field {name!r}")

    __delattr__ = __setattr__


class _Record(_Frozen):
    """A frozen container equal to another of its class with equal fields, hashed and shown by them."""

    def __eq__(self, other):
        return vars(self) == vars(other) if other.__class__ is self.__class__ else NotImplemented

    def __hash__(self):
        return hash(tuple(vars(self).values()))

    def __repr__(self):
        return f"{type(self).__name__}({', '.join(f'{k}={v!r}' for k, v in vars(self).items())})"


class PureState(_Frozen):
    """A normalized state vector."""

    def __init__(self, amplitudes):
        a = np.asarray(amplitudes, dtype=complex)
        if a.ndim != 1 or a.size == 0:
            raise ValueError(f"pure state must be a non-empty 1-D vector, got shape {a.shape}")
        _check_finite(a, "pure state")
        norm_err = abs(np.vdot(a, a).real - 1.0)
        if norm_err > NORM_TOL:
            raise ValueError(f"pure state is not normalized: |<psi|psi> - 1| = {norm_err:.3e}")
        super().__init__(amplitudes=_freeze(a))

    @property
    def dim(self) -> int:
        return self.amplitudes.size

    def projector(self) -> "DensityMatrix":
        """Rank-one density matrix |psi><psi|."""
        a = self.amplitudes
        return DensityMatrix(np.outer(a, a.conj()), validate=False)


class DensityMatrix(_Frozen):
    """Hermitian, unit-trace, positive-semidefinite matrix."""

    def __init__(self, matrix, validate: bool = True):
        m = _as_square_matrix(matrix, "density matrix")
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
        super().__init__(matrix=_freeze(m))

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    def purity(self) -> float:
        return float(np.trace(self.matrix @ self.matrix).real)


class MeasurementBasis(_Frozen):
    """Orthonormal basis defining a projective measurement.

    ``vectors`` is a (dim, dim) array whose rows are the outcome vectors.
    Inputs that fail orthonormality are rejected, never re-orthogonalized.
    """

    def __init__(self, vectors, label: str = ""):
        # row-major storage, so a basis and its file round trip give bit-identical products
        v = np.ascontiguousarray(_as_square_matrix(vectors, "basis"))
        _check_finite(v, "basis")
        with np.errstate(over="ignore", invalid="ignore"):  # a huge entry gives an inf norm error, not a warning
            _check_gram(_inner(v, v))
        super().__init__(vectors=_freeze(v), label=label)

    @property
    def dim(self) -> int:
        return self.vectors.shape[0]


class MeasurementChain(_Frozen):
    """An ordered tuple of two or more same-dimension measurement bases."""

    def __init__(self, bases):
        bases = tuple(bases)
        if len(bases) < 2:
            raise ValueError(f"chain requires N >= 2 bases, got {len(bases)}")
        dims = {b.dim for b in bases}
        if len(dims) != 1:
            raise ValueError(f"chain bases have mismatched dimensions: {sorted(dims)}")
        super().__init__(bases=bases)

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


class BipartiteState(_Frozen):
    """Joint state on A (system) tensor B (memory), index (i_A, i_B) -> i_A * dim_b + i_B."""

    def __init__(self, joint: DensityMatrix, dim_a: int, dim_b: int):
        if dim_a < 1 or dim_b < 1:
            raise ValueError("subsystem dimensions must be positive")
        if dim_a * dim_b != joint.dim:
            raise ValueError(f"dim_a * dim_b = {dim_a * dim_b} does not match joint dimension {joint.dim}")
        super().__init__(joint=joint, dim_a=dim_a, dim_b=dim_b)

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


def _overlap_bank(v: np.ndarray, fixed: np.ndarray | None = None) -> np.ndarray:
    """(..., N, N, d, d) bank of every chain in the (..., N, d, d) stack of row bases ``v``.

    Rejects the stack unless every entry is finite and every basis orthonormal, with the checks
    and messages of :class:`MeasurementBasis`.  Each basis' Gram matrix is read from the diagonal
    blocks of the bank's own inner products, which are then squared, so one product serves both.
    A basis the constructor accepted passes here too: its block is the same product.

    ``fixed``, the (m, m, d, d) bank of the first m bases when every chain of the stack shares
    them (checked where it was made), fills their tables, and only the products that involve a
    later basis are taken, and only the later bases checked; each product is the one the whole
    bank would take, so the bits are the same.
    """
    _check_finite(v, "basis")
    n, m = v.shape[-3], 0 if fixed is None else len(fixed)
    g = _inner(v[..., m:, None, :, :], v[..., None, :, :, :])  # the later bases' rows of the bank
    _check_gram(g[..., range(n - m), range(m, n), :, :])
    if fixed is None:
        return np.abs(g) ** 2
    bank = np.empty(v.shape[:-3] + (n, n) + v.shape[-2:])
    bank[..., :m, :m, :, :] = fixed
    bank[..., :m, m:, :, :] = np.abs(_inner(v[..., :m, None, :, :], v[..., None, m:, :, :])) ** 2
    bank[..., m:, :, :, :] = np.abs(g) ** 2
    return bank


def max_overlap(a: MeasurementBasis, b: MeasurementBasis) -> float:
    """Largest squared overlap c(a, b) = max_{i,j} |<a_i|b_j>|^2."""
    return float(overlap_table(a, b).max())


def _stacked_bras(chain: MeasurementChain) -> np.ndarray:
    """The (N d, d) matrix whose rows are the bras <u_i| of every basis, basis by basis."""
    return np.concatenate([b.vectors.conj() for b in chain])


def _born_probabilities(bras: np.ndarray, mats: np.ndarray) -> np.ndarray:
    """<u_i|rho|u_i> for the rows <u_i| of ``bras`` and each rho of the (..., d, d) stack, clipped into [0, 1]."""
    p = np.einsum("ij,...jk,ik->...i", bras, mats, bras.conj()).real
    if p.min() < EIGENVALUE_FLOOR:
        raise ValueError(f"outcome probability below the eigenvalue floor: {p.min():.3e}")
    return p.clip(0.0, 1.0)


def outcome_distribution(basis: MeasurementBasis, rho: DensityMatrix) -> np.ndarray:
    """Born probabilities p_i = <u_i|rho|u_i>, clipped into [0, 1]."""
    _check_same_dim(basis.dim, rho.dim, "outcome_distribution")
    return _born_probabilities(basis.vectors.conj(), rho.matrix)


def measurement_channel(basis: MeasurementBasis, rho: DensityMatrix) -> DensityMatrix:
    """Dephase rho in the given basis: sum_i <u_i|rho|u_i> |u_i><u_i|."""
    out = (basis.vectors.T * outcome_distribution(basis, rho)) @ basis.vectors.conj()
    return DensityMatrix(0.5 * (out + out.conj().T), validate=False)


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
