import json

import numpy as np
import pytest
from numpy.testing import assert_allclose

import eur
from eur.fileio import (
    read_chain,
    read_density_matrix,
    read_measurement_set,
    write_density_matrix,
    write_measurement_set,
)
from eur.verifier import _pure_objective

# The complete files the writers produce for a labelled qubit set and a 2 x 2
# density matrix: key order, indentation, float repr and the final newline.
QUBIT_SET_TEXT = """\
{
 "format_version": 1,
 "dim": 2,
 "bases": [
  {
   "label": "z",
   "vectors": [
    [
     [
      1.0,
      0.0
     ],
     [
      0.0,
      0.0
     ]
    ],
    [
     [
      0.0,
      0.0
     ],
     [
      1.0,
      0.0
     ]
    ]
   ]
  },
  {
   "label": "x",
   "vectors": [
    [
     [
      0.7071067811865475,
      0.0
     ],
     [
      0.7071067811865475,
      0.0
     ]
    ],
    [
     [
      0.7071067811865475,
      0.0
     ],
     [
      -0.7071067811865475,
      0.0
     ]
    ]
   ]
  }
 ]
}
"""

DENSITY_MATRIX_TEXT = """\
{
 "format_version": 1,
 "dim": 2,
 "matrix": [
  [
   [
    0.75,
    0.0
   ],
   [
    0.25,
    -0.25
   ]
  ],
  [
   [
    0.25,
    0.25
   ],
   [
    0.25,
    0.0
   ]
  ]
 ]
}
"""


def write_json(path, payload):
    path.write_text(json.dumps(payload))
    return str(path)


class TestMeasurementSetRoundTrip:
    def test_exact_round_trip(self, tmp_path):
        bases = [eur.random_basis(3, seed=k) for k in range(3)]
        path = tmp_path / "set.json"
        write_measurement_set(path, bases)
        back = read_measurement_set(path)
        assert len(back) == 3
        for orig, loaded in zip(bases, back):
            assert loaded.label == orig.label
            assert_allclose(loaded.vectors, orig.vectors, atol=0)

    def test_chain_round_trip(self, tmp_path):
        path = tmp_path / "chain.json"
        write_measurement_set(path, eur.mub_set(2, 3))
        chain = read_chain(path)
        assert len(chain) == 3
        assert chain.dim == 2

    def test_write_rejects_empty(self, tmp_path):
        with pytest.raises(ValueError, match="at least one"):
            write_measurement_set(tmp_path / "x.json", [])

    def test_write_rejects_mixed_dims(self, tmp_path):
        with pytest.raises(ValueError, match="mismatch"):
            write_measurement_set(
                tmp_path / "x.json", [eur.computational_basis(2), eur.computational_basis(3)]
            )

    def test_default_label(self, tmp_path):
        path = write_json(
            tmp_path / "set.json",
            {
                "format_version": 1,
                "dim": 2,
                "bases": [{"vectors": [[[1, 0], [0, 0]], [[0, 0], [1, 0]]]}],
            },
        )
        assert read_measurement_set(path)[0].label == "basis-0"


class TestMeasurementSetErrors:
    def test_single_basis_not_a_chain(self, tmp_path):
        path = tmp_path / "one.json"
        write_measurement_set(path, [eur.computational_basis(2)])
        with pytest.raises(ValueError, match="N >= 2"):
            read_chain(path)

    def test_not_json(self, tmp_path):
        path = tmp_path / "junk.json"
        path.write_text("not json {")
        with pytest.raises(ValueError, match="not valid JSON"):
            read_measurement_set(str(path))

    def test_top_level_not_object(self, tmp_path):
        path = tmp_path / "list.json"
        path.write_text("[1, 2]")
        with pytest.raises(ValueError, match="top level"):
            read_measurement_set(str(path))

    def test_wrong_version(self, tmp_path):
        path = write_json(tmp_path / "v.json", {"format_version": 99, "dim": 2, "bases": []})
        with pytest.raises(ValueError, match="format_version"):
            read_measurement_set(path)

    def test_missing_keys(self, tmp_path):
        path = write_json(tmp_path / "m.json", {"format_version": 1, "dim": 2})
        with pytest.raises(ValueError, match="'bases'"):
            read_measurement_set(path)

    def test_bad_dim(self, tmp_path):
        path = write_json(tmp_path / "d.json", {"format_version": 1, "dim": "two", "bases": [{}]})
        with pytest.raises(ValueError, match="dim must be"):
            read_measurement_set(path)

    def test_empty_bases(self, tmp_path):
        path = write_json(tmp_path / "e.json", {"format_version": 1, "dim": 2, "bases": []})
        with pytest.raises(ValueError, match="non-empty"):
            read_measurement_set(path)

    def test_missing_vectors(self, tmp_path):
        path = write_json(
            tmp_path / "nv.json", {"format_version": 1, "dim": 2, "bases": [{"label": "x"}]}
        )
        with pytest.raises(ValueError, match="missing 'vectors'"):
            read_measurement_set(path)

    def test_wrong_shape(self, tmp_path):
        path = write_json(
            tmp_path / "s.json",
            {"format_version": 1, "dim": 3, "bases": [{"vectors": [[[1, 0], [0, 0]], [[0, 0], [1, 0]]]}]},
        )
        with pytest.raises(ValueError, match="expected a 3 x 3"):
            read_measurement_set(path)

    def test_malformed_entries(self, tmp_path):
        path = write_json(
            tmp_path / "p.json",
            {"format_version": 1, "dim": 2, "bases": [{"vectors": [[[1], [0]], [[0], [1]]]}]},
        )
        with pytest.raises(ValueError, match="pairs"):
            read_measurement_set(path)

    def test_non_orthonormal_rows_rejected(self, tmp_path):
        path = write_json(
            tmp_path / "o.json",
            {
                "format_version": 1,
                "dim": 2,
                "bases": [{"vectors": [[[1, 0], [0, 0]], [[1, 0], [0, 0]]]}],
            },
        )
        with pytest.raises(ValueError, match="orthogonal"):
            read_measurement_set(path)


class TestDensityMatrixFiles:
    def test_exact_round_trip(self, tmp_path):
        rho = eur.random_density_matrix(3, 2, seed=42)
        path = tmp_path / "rho.json"
        write_density_matrix(path, rho)
        assert_allclose(read_density_matrix(path).matrix, rho.matrix, atol=0)

    def test_missing_matrix_key(self, tmp_path):
        path = write_json(tmp_path / "m.json", {"format_version": 1, "dim": 2})
        with pytest.raises(ValueError, match="'matrix'"):
            read_density_matrix(path)

    def test_invalid_density_rejected(self, tmp_path):
        path = write_json(
            tmp_path / "bad.json",
            {
                "format_version": 1,
                "dim": 2,
                "matrix": [[[1, 0], [0, 0]], [[0, 0], [1, 0]]],
            },
        )
        with pytest.raises(ValueError, match="trace"):
            read_density_matrix(path)


class TestGoldenFiles:
    def test_measurement_set_text(self, tmp_path):
        bases = [
            eur.MeasurementBasis(np.eye(2), label="z"),
            eur.MeasurementBasis(np.array([[1, 1], [1, -1]]) / np.sqrt(2), label="x"),
        ]
        path = tmp_path / "set.json"
        write_measurement_set(path, bases)
        assert path.read_text() == QUBIT_SET_TEXT

    def test_density_matrix_text(self, tmp_path):
        path = tmp_path / "rho.json"
        write_density_matrix(path, eur.DensityMatrix([[0.75, 0.25 - 0.25j], [0.25 + 0.25j, 0.25]]))
        assert path.read_text() == DENSITY_MATRIX_TEXT


class TestGeneratedChainRoundTrip:
    """A generated chain and its own file round trip give bit-identical results."""

    def test_objectives_equal_after_round_trip(self, tmp_path):
        rng = np.random.default_rng(3)
        path = tmp_path / "chain.json"
        ones = [1.0] * 5
        for seed in range(5):
            bases = [eur.random_basis(4, seed=100 * seed + k) for k in range(5)]
            assert all(b.vectors.flags.c_contiguous for b in bases)
            write_measurement_set(path, bases)
            chain, back = eur.MeasurementChain(tuple(bases)), read_chain(path)
            assert np.array_equal(chain.overlaps, back.overlaps)
            f, g = _pure_objective(chain, ones, ones), _pure_objective(back, ones, ones)
            for x in rng.uniform(-4.0, 4.0, size=(50, 6)):
                assert f(x) == g(x)

    def test_minimum_equal_after_round_trip(self, tmp_path):
        bases = [eur.random_basis(3, seed=k) for k in range(3)]
        path = tmp_path / "chain.json"
        write_measurement_set(path, bases)
        config = eur.MinimizationConfig(restarts=4, seed=0)
        library = eur.minimize_entropy_sum(eur.MeasurementChain(tuple(bases)), config=config)
        assert library.objective_min == eur.minimize_entropy_sum(read_chain(path), config=config).objective_min
