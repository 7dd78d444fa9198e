"""The eight containers: fields stored once, read-only afterwards, and what ``==`` and ``hash`` mean.

The five that hold arrays or other containers compare and hash by identity; the three records
(``BoundReport``, ``MinimizationConfig``, ``VerificationResult``) compare field by field.  A chain's
record of bound terms (``bounds._Terms``) is read-only too, a field given to it included.
"""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import eur
from eur import BipartiteState, BoundName, BoundReport, DensityMatrix, MeasurementBasis, MeasurementChain
from eur import MinimizationConfig, PureState, VerificationResult
from eur.bounds import _Terms


def _containers():
    basis = eur.mub_set(2, 1)[0]
    psi = PureState(np.array([1.0, 0.0]))
    rho = psi.projector()
    return {
        "PureState": psi,
        "DensityMatrix": rho,
        "MeasurementBasis": basis,
        "MeasurementChain": MeasurementChain(eur.mub_set(2)),
        "BipartiteState": eur.maximally_entangled(2),
        "BoundReport": BoundReport(BoundName.MU_MULTI, 1.0, False, (0, 1)),
        "MinimizationConfig": MinimizationConfig(restarts=8, seed=3),
        "VerificationResult": VerificationResult(2.0, psi, {BoundName.MU_MULTI: 1.0}, 4, 8),
        "_Terms": _Terms(mu=1.0, bank=MeasurementChain(eur.mub_set(2)).overlaps),  # seeded, as under best_order
    }


def test_no_dataclasses_on_the_import_path():
    src = str(Path(eur.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    code = "import eur.cli, sys; print('dataclasses' in sys.modules)"
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "False\n"


def test_array_containers_work_in_lists_sets_and_dicts():
    basis, other = eur.mub_set(2, 2)
    chain = MeasurementChain((basis, other))
    rho = DensityMatrix(np.eye(2) / 2)
    psi = PureState(np.array([0.6, 0.8j]))
    assert basis in [other, basis]
    assert other not in [basis]
    assert len({basis, chain, rho}) == 3
    assert hash(psi) == hash(psi)
    assert {psi: 1}[psi] == 1
    # identity, not content: an equal copy is another object
    assert MeasurementBasis(basis.vectors) != basis
    assert eur.mub_set(2) != eur.mub_set(2)


def test_records_compare_hash_and_show_their_fields():
    report = BoundReport(BoundName.MU_MULTI, 1.0, False, (0, 1))
    assert report == BoundReport(BoundName.MU_MULTI, 1.0, False, (0, 1))
    assert report != BoundReport(BoundName.MU_MULTI, 1.0, False, (1, 0))
    assert hash(report) == hash(BoundReport(BoundName.MU_MULTI, 1.0, False, (0, 1)))
    assert repr(report) == ("BoundReport(bound_name=<BoundName.MU_MULTI: 'MU_MULTI'>, value=1.0, "
                            "state_dependent=False, chain_order=(0, 1))")

    assert MinimizationConfig() == MinimizationConfig(64, 0)
    assert MinimizationConfig(restarts=8) != MinimizationConfig(restarts=8, seed=1)
    assert len({MinimizationConfig(), MinimizationConfig(restarts=64, seed=0)}) == 1
    assert repr(MinimizationConfig()) == "MinimizationConfig(restarts=64, seed=0)"

    psi = PureState(np.array([1.0, 0.0]))
    result = VerificationResult(2.0, psi, {BoundName.MU_MULTI: 1.0}, 4, 8)
    assert result == VerificationResult(2.0, psi, {BoundName.MU_MULTI: 1.0}, 4, 8)
    assert result != VerificationResult(2.0, psi, {BoundName.MU_MULTI: 0.5}, 4, 8)
    assert result != VerificationResult(2.0, psi, {BoundName.MU_MULTI: 1.0}, 4, 16)
    assert result != VerificationResult(2.0, PureState(np.array([1.0, 0.0])), {BoundName.MU_MULTI: 1.0}, 4, 8)
    assert repr(result) == (
        f"VerificationResult(objective_min=2.0, minimizer={psi!r}, "
        "slack_per_bound={<BoundName.MU_MULTI: 'MU_MULTI'>: 1.0}, converged_restarts=4, restarts=8)"
    )
    # no record equals a container of another class with the same fields
    assert report != (BoundName.MU_MULTI, 1.0, False, (0, 1))


@pytest.mark.parametrize("name", list(_containers()))
def test_fields_can_be_neither_set_nor_deleted(name):
    obj = _containers()[name]
    field = next(iter(vars(obj)))
    value = getattr(obj, field)
    with pytest.raises(AttributeError):
        setattr(obj, field, value)
    with pytest.raises(AttributeError):
        delattr(obj, field)
    with pytest.raises(AttributeError):
        obj.extra = 1
    assert getattr(obj, field) is value


def test_arrays_are_read_only_and_the_bank_is_cached():
    containers = _containers()
    arrays = {"PureState": "amplitudes", "DensityMatrix": "matrix", "MeasurementBasis": "vectors"}
    for name, array in arrays.items():
        assert not getattr(containers[name], array).flags.writeable, name
    chain = containers["MeasurementChain"]
    for cached in ("overlaps", "bras", "terms"):
        assert getattr(chain, cached) is getattr(chain, cached), cached
        with pytest.raises(AttributeError):
            setattr(chain, cached, np.zeros(1))
    for array in (chain.overlaps, chain.bras, chain.terms.pairs):
        assert not array.flags.writeable
    with pytest.raises(AttributeError):
        chain.terms.mu = 0.0


def test_keyword_forms():
    m = np.diag([1.0 + 1e-3, -1e-3])  # rejected when validated
    with pytest.raises(ValueError, match="negative eigenvalue"):
        DensityMatrix(m)
    assert DensityMatrix(m, validate=False).matrix[0, 0] == 1.0 + 1e-3
    basis = MeasurementBasis(np.eye(2), label="x")
    assert basis.label == "x"
    assert MeasurementBasis(vectors=np.eye(2)).label == ""
    assert PureState(amplitudes=[1.0, 0.0]).dim == 2
    assert BipartiteState(joint=DensityMatrix(np.eye(4) / 4), dim_a=2, dim_b=2).dim_b == 2
    assert MeasurementChain(bases=[basis, basis]).bases == (basis, basis)
