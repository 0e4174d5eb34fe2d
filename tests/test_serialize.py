import dataclasses
import json

import numpy as np
import pytest
from numpy.testing import assert_allclose

from hankeltensor import (
    CopositivityReport,
    DiscreteMeasure,
    EigenPair,
    HankelMatrix,
    HankelTensor,
    StrongCertificate,
    VandermondeDecomposition,
    ZBounds,
    assoc_matrix,
    bounds_prop6,
    copositive_check,
    is_strong,
    make_hankel,
    zeig_extreme,
)
from hankeltensor.serialize import (
    decomposition_from_dict,
    decomposition_to_dict,
    load_json,
    measure_from_dict,
    plane_from_dict,
    plane_to_dict,
    report_to_dict,
    tensor_from_dict,
    to_dict,
)


class TestRoundTrips:
    def test_tensor(self):
        a = make_hankel(3, 2, [1.0, -0.25, 1e-17, 3.0])
        doc = json.loads(json.dumps(to_dict(a)))
        b = tensor_from_dict(doc)
        assert (b.order, b.dim) == (3, 2)
        assert_allclose(b.gen, a.gen, atol=0)

    def test_plane(self):
        p = make_hankel(4, 2, [1.0, 0.0, -1 / 6, 0.0, 1.0])
        back = plane_from_dict(json.loads(json.dumps(plane_to_dict(p))))
        assert back.order == 4
        assert_allclose(back.gen, p.gen, atol=0)
        with pytest.raises(ValueError, match="dim = 2"):
            plane_to_dict(make_hankel(2, 3, [1.0, 0.0, 0.0, 0.0, 1.0]))

    def test_decomposition(self):
        d = VandermondeDecomposition([0.5, -2.0], [1.0, 0.125])
        doc = json.loads(json.dumps(decomposition_to_dict(d)))
        assert doc == {
            "terms": [
                {"node": 0.5, "coeff": 1.0},
                {"node": -2.0, "coeff": 0.125},
            ]
        }
        back = decomposition_from_dict(doc)
        assert_allclose(back.nodes, d.nodes, atol=0)
        assert_allclose(back.coeffs, d.coeffs, atol=0)

    def test_empty_decomposition(self):
        back = decomposition_from_dict({"terms": []})
        assert len(back) == 0

    def test_measure(self):
        mu = DiscreteMeasure([1.0, -1.0], [0.75, 0.25])
        back = measure_from_dict(json.loads(json.dumps(to_dict(mu))))
        assert_allclose(back.nodes, mu.nodes, atol=0)
        assert_allclose(back.weights, mu.weights, atol=0)

    def test_floats_survive_exactly(self):
        gen = [0.1, 1 / 3, -1e-300, 6.02e23]
        a = make_hankel(3, 2, gen)
        back = tensor_from_dict(json.loads(json.dumps(to_dict(a))))
        assert back.gen.tolist() == gen


class TestOneWayForms:
    def test_eigenpair(self):
        pair = EigenPair("Z", 0.25, np.array([0.5, -0.5]), True, 1e-12)
        doc = to_dict(pair)
        assert doc["kind"] == "Z"
        assert doc["value"] == 0.25
        assert doc["vector"] == [0.5, -0.5]
        assert doc["converged"] is True
        assert doc["residual"] == 1e-12
        json.dumps(doc)

    def test_report(self):
        rep = CopositivityReport(False, 0.5, [0.0, 0.5, 1.0], -1.0)
        doc = report_to_dict(rep)
        assert doc == {
            "copositive": False,
            "witness_t": 0.5,
            "min_phi": -1.0,
            "critical_points": [0.0, 0.5, 1.0],
        }
        json.dumps(doc)

    def test_one_key_per_field(self):
        a = make_hankel(4, 2, [1.0, 0.0, -1.0 / 6.0, 0.0, 1.0])
        results = [
            a,
            assoc_matrix(a),
            assoc_matrix(make_hankel(3, 2, [1.0, 2.0, 3.0, 4.0]), completion=0.5),
            DiscreteMeasure([1.0, -1.0], [0.75, 0.25]),
            zeig_extreme(a, "min", restarts=2),
            is_strong(a),
            is_strong(make_hankel(2, 2, [1.0, 0.0, 1.0])),
            bounds_prop6(a),
            copositive_check(make_hankel(2, 2, [1.0, -3.0, 1.0])),
            copositive_check(make_hankel(2, 2, [1.0, 0.5, 1.0])),
        ]
        assert {type(r) for r in results} == {
            HankelTensor, HankelMatrix, DiscreteMeasure, EigenPair,
            StrongCertificate, ZBounds, CopositivityReport,
        }
        for obj in results:
            names = [f.name for f in dataclasses.fields(obj)]
            if isinstance(obj, CopositivityReport):
                doc = report_to_dict(obj)
                names = ["copositive" if n == "is_copositive" else n for n in names]
            else:
                doc = to_dict(obj)
            assert list(doc) == names, type(obj).__name__
            assert json.loads(json.dumps(doc)) == doc


class TestValidation:
    def test_missing_field_named(self):
        with pytest.raises(ValueError, match="tensor: missing field 'gen'"):
            tensor_from_dict({"order": 2, "dim": 2})
        with pytest.raises(ValueError, match="plane: missing field 'degree'"):
            plane_from_dict({"p": [1.0, 2.0, 3.0]})
        with pytest.raises(ValueError, match="measure: missing field 'weights'"):
            measure_from_dict({"nodes": [1.0]})

    def test_wrong_types_named(self):
        with pytest.raises(ValueError, match="field 'order' has the wrong type"):
            tensor_from_dict({"order": "2", "dim": 2, "gen": [1, 2, 3]})
        with pytest.raises(ValueError, match="field 'order' has the wrong type"):
            tensor_from_dict({"order": True, "dim": 2, "gen": [1, 2, 3]})
        with pytest.raises(ValueError, match="entry 1 is not a number"):
            tensor_from_dict({"order": 2, "dim": 2, "gen": [1, "x", 3]})

    def test_not_an_object(self):
        with pytest.raises(ValueError, match="expected a JSON object"):
            tensor_from_dict([1, 2, 3])

    def test_term_fields_named_with_index(self):
        with pytest.raises(ValueError, match=r"terms\[1\]: missing field 'coeff'"):
            decomposition_from_dict(
                {"terms": [{"node": 1.0, "coeff": 2.0}, {"node": 3.0}]}
            )

    def test_domain_validation_still_applies(self):
        with pytest.raises(ValueError):
            tensor_from_dict({"order": 2, "dim": 2, "gen": [1.0, 2.0]})
        with pytest.raises(ValueError):
            measure_from_dict({"nodes": [1.0], "weights": [-0.5]})

    def test_load_json_errors(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json", encoding="utf-8")
        with pytest.raises(ValueError, match="invalid JSON"):
            load_json(bad)
        good = tmp_path / "good.json"
        good.write_text('{"order": 2}', encoding="utf-8")
        assert load_json(good) == {"order": 2}
