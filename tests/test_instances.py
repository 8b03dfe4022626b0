"""Instance generators: feasibility, determinism, start points, problem files."""

import json
import re

import numpy as np
import pytest
from numpy import linalg as la

from crmfeas.errors import (
    BadDimension,
    ExhaustedRejection,
    ParseError,
    SchemaVersionMismatch,
)
from crmfeas.instances import (
    Kind,
    ProblemInstance,
    derive_seed,
    gen_polyhedral_instance,
    gen_soc_instance,
    gen_start,
    read_problem,
    write_problem,
)
from crmfeas.product_space import ProductSet
from crmfeas.sets import AffineSubspace, Halfspace, SecondOrderCone
from conftest import INCONSISTENT_PROBLEMS, NON_INTEGER_FIELDS


def replay_polyhedral_draws(n, seed):
    """Mirror of the generator's frozen draw order, to recover b̄, I and r."""
    rng = np.random.default_rng(seed)
    m = int(rng.integers(1, n))
    A = rng.standard_normal((m, n))
    xbar = rng.standard_normal(n)
    b_bar = A @ xbar
    p = int(rng.integers(1, m + 1))
    slack = rng.choice(m, size=p, replace=False)
    r = float(rng.uniform())
    return m, A, xbar, b_bar, slack, r


class TestSocGenerator:
    def test_shape_and_feasibility(self):
        for seed in (0, 1, 99):
            inst = gen_soc_instance(50, seed)
            assert inst.kind is Kind.AFFINE_CONIC
            assert 1 <= inst.m <= 49
            assert inst.affine.A.shape == (inst.m, 50)
            assert isinstance(inst.sets[0], SecondOrderCone)
            assert inst.sets[0].contains(inst.certificate, tol=1e-8)
            assert inst.affine.contains(inst.certificate, tol=1e-8)

    def test_determinism(self):
        a = gen_soc_instance(40, 1234)
        b = gen_soc_instance(40, 1234)
        assert a.m == b.m
        assert np.array_equal(a.affine.A, b.affine.A)
        assert np.array_equal(a.affine.b, b.affine.b)
        assert np.array_equal(a.certificate, b.certificate)

    def test_n2_forces_single_row(self):
        inst = gen_soc_instance(2, 7)
        assert inst.m == 1

    def test_bad_dimension(self):
        with pytest.raises(BadDimension):
            gen_soc_instance(1, 0)


class TestPolyhedralGenerator:
    def test_slater_strict_on_slack_indices(self):
        for seed in (3, 17, 256):
            inst = gen_polyhedral_instance(60, seed)
            m, A, xbar, b_bar, slack, r = replay_polyhedral_draws(60, seed)
            assert inst.m == m
            assert np.array_equal(inst.certificate, xbar)
            b = np.array([h.b for h in inst.sets])
            # non-slack constraints keep b = b̄ exactly (the r -> 0 limit form)
            tight = np.setdiff1d(np.arange(m), slack)
            assert np.array_equal(b[tight], b_bar[tight])
            assert np.allclose(b[slack], b_bar[slack] + la.norm(b_bar) * r)
            for i in slack:
                assert float(A[i] @ xbar) < b[i]  # strict
            for h in inst.sets:
                assert h.contains(xbar, tol=1e-8)

    def test_determinism(self):
        a = gen_polyhedral_instance(30, 5)
        b = gen_polyhedral_instance(30, 5)
        assert a.m == b.m
        assert all(
            np.array_equal(x.a, y.a) and x.b == y.b for x, y in zip(a.sets, b.sets)
        )

    def test_bad_dimension(self):
        with pytest.raises(BadDimension):
            gen_polyhedral_instance(0, 0)


class TestStartPoints:
    def test_norm_window_and_projection(self):
        inst = gen_soc_instance(40, 11)
        for seed in range(5):
            st = gen_start(inst, seed)
            assert 5.0 <= la.norm(st.raw) <= 15.0
            assert la.norm(st.projected - inst.affine.project(st.projected)) <= 1e-10
            z = st.projected
            assert la.norm(inst.affine.project(z) - inst.sets[0].project(z)) > 1e-6

    def test_polyhedral_start_is_diagonal_lift(self):
        inst = gen_polyhedral_instance(25, 3)
        st = gen_start(inst, 0)
        assert st.projected.size == 25 * inst.m
        assert np.array_equal(st.projected, np.tile(st.raw, inst.m))
        W = ProductSet(inst.sets)
        assert la.norm(st.projected - W.project(st.projected)) > 1e-6

    def test_a_draw_in_the_cone_but_off_the_affine_part_is_kept(self):
        # C_2 = {|x_1| <= x_0} holds a quarter of the draws, and the line
        # x_0 = 0.01 meets it only where |x_1| <= 0.01: such a draw does not
        # solve the problem, and its projection onto the line lies off C_2
        cone = SecondOrderCone(2)
        inst = ProblemInstance(kind=Kind.AFFINE_CONIC, sets=[cone],
                               affine=AffineSubspace([[1.0, 0.0]], [0.01]), n=2, m=1,
                               seed=0, certificate=[0.01, 0.0])
        assert any(cone.contains(gen_start(inst, seed).raw, 1e-9) for seed in range(40))

    def test_determinism(self):
        inst = gen_soc_instance(30, 2)
        a, b = gen_start(inst, 77), gen_start(inst, 77)
        assert np.array_equal(a.raw, b.raw)
        assert np.array_equal(a.projected, b.projected)

    def test_exhausted_rejection_on_trivially_feasible_problem(self):
        # every norm-15 point satisfies this halfspace, so no start can be drawn
        inst = ProblemInstance(
            kind=Kind.POLYHEDRAL,
            sets=[Halfspace([1.0, 0.0, 0.0], 1e9)],
            affine=None,
            n=3,
            m=1,
            seed=0,
            certificate=None,
        )
        with pytest.raises(ExhaustedRejection):
            gen_start(inst, 0)


class TestInstanceValidation:
    def test_affine_conic_requires_affine_part(self):
        with pytest.raises(ValueError):
            ProblemInstance(
                kind=Kind.AFFINE_CONIC, sets=[SecondOrderCone(3)], affine=None,
                n=3, m=1, seed=0, certificate=None,
            )

    def test_affine_conic_requires_a_cone(self):
        with pytest.raises(ValueError, match=re.escape("needs sets == [SecondOrderCone]")):
            ProblemInstance(
                kind=Kind.AFFINE_CONIC, sets=[Halfspace([1.0, 0.0], 0.0)],
                affine=AffineSubspace([[1.0, 0.0]], [0.0]), n=2, m=1, seed=0, certificate=None,
            )

    def test_certificate_must_be_feasible(self):
        with pytest.raises(ValueError, match="certificate"):
            ProblemInstance(
                kind=Kind.POLYHEDRAL, sets=[Halfspace([1.0, 0.0], 0.0)], affine=None,
                n=2, m=1, seed=0, certificate=[1.0, 0.0],
            )


class TestProblemFiles:
    def test_round_trip_soc(self, tmp_path):
        inst = gen_soc_instance(20, 42)
        path = tmp_path / "soc.json"
        write_problem(inst, path)
        back = read_problem(path)
        assert back.kind is inst.kind
        assert back.n == inst.n and back.m == inst.m and back.seed == inst.seed
        assert np.array_equal(back.affine.A, inst.affine.A)
        assert np.array_equal(back.affine.b, inst.affine.b)
        assert np.array_equal(back.certificate, inst.certificate)
        assert isinstance(back.sets[0], SecondOrderCone) and back.sets[0].n == 20
        assert list(json.loads(path.read_text())["affine"]) == ["A", "b"]

    def test_round_trip_polyhedral(self, tmp_path):
        inst = gen_polyhedral_instance(15, 8)
        path = tmp_path / "poly.json"
        write_problem(inst, path)
        back = read_problem(path)
        assert back.affine is None
        assert len(back.sets) == inst.m
        for x, y in zip(back.sets, inst.sets):
            assert np.array_equal(x.a, y.a) and x.b == y.b
        assert np.array_equal(back.certificate, inst.certificate)

    def test_missing_field(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"schema": 1, "kind": "polyhedral"}')
        with pytest.raises(ParseError, match="missing field"):
            read_problem(path)

    def test_unknown_set_type(self, tmp_path):
        inst = gen_polyhedral_instance(10, 1)
        path = tmp_path / "p.json"
        write_problem(inst, path)
        doc = json.loads(path.read_text())
        doc["sets"][0]["type"] = "banana"
        path.write_text(json.dumps(doc))
        with pytest.raises(ParseError):
            read_problem(path)

    def test_schema_mismatch(self, tmp_path):
        path = tmp_path / "v2.json"
        path.write_text('{"schema": 2}')
        with pytest.raises(SchemaVersionMismatch):
            read_problem(path)

    def test_invalid_json(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        with pytest.raises(ParseError, match="line"):
            read_problem(path)

    @pytest.mark.parametrize("fields, first_set", [
        ({"n": [10]}, {}),
        ({"n": 1e400}, {}),  # read back as inf
        ({"certificate": [0.0, 1.0]}, {}),
        ({"certificate": None}, {"b": float("nan")}),
        ({"certificate": None}, {"b": [1.0, 2.0]}),
        ({"kind": "banana"}, {}),
        ({"affine": [[1.0] * 10]}, {}),
    ])
    def test_malformed_values_are_parse_errors(self, tmp_path, fields, first_set):
        path = tmp_path / "p.json"
        write_problem(gen_polyhedral_instance(10, 1), path)
        doc = json.loads(path.read_text())
        doc.update(fields)
        doc["sets"][0].update(first_set)
        path.write_text(json.dumps(doc))
        with pytest.raises(ParseError):
            read_problem(path)

    @pytest.mark.parametrize("doc, reason", [
        ([], "problem file must contain a JSON object"),
        ({"schema": 1, "kind": "polyhedral", "sets": {"type": "soc", "n": 2}},
         "field 'sets' must be a list"),
    ])
    def test_a_file_of_the_wrong_shape_is_a_parse_error(self, tmp_path, doc, reason):
        path = tmp_path / "p.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(ParseError, match=f"^{re.escape(reason)}$"):
            read_problem(path)

    def test_not_utf8(self, tmp_path):
        path = tmp_path / "binary.json"
        path.write_bytes(b"\xff\xfe{")
        with pytest.raises(ParseError, match="UTF-8"):
            read_problem(path)

    @pytest.mark.parametrize("name", INCONSISTENT_PROBLEMS)
    def test_inconsistent_problem_files_are_parse_errors(self, tmp_path, name):
        doc, reason = INCONSISTENT_PROBLEMS[name]
        path = tmp_path / "p.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(ParseError, match=f"^inconsistent problem file: {reason}$"):
            read_problem(path)

    @pytest.mark.parametrize("name", NON_INTEGER_FIELDS)
    def test_a_count_or_seed_that_is_not_an_integer_is_a_parse_error(self, tmp_path, name):
        doc, reason = NON_INTEGER_FIELDS[name]
        path = tmp_path / "p.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(ParseError, match=f"^{re.escape(reason)}$"):
            read_problem(path)
        # the same file with integers reads
        path.write_text(json.dumps({**doc, "n": 5, "m": 2, "seed": 0}))
        back = read_problem(path)
        assert (back.n, back.m, back.seed) == (5, 2, 0)

    def test_corrupted_certificate(self, tmp_path):
        inst = gen_polyhedral_instance(10, 1)
        path = tmp_path / "p.json"
        write_problem(inst, path)
        doc = json.loads(path.read_text())
        doc["certificate"] = [1e6] * 10
        path.write_text(json.dumps(doc))
        with pytest.raises(ParseError, match="inconsistent"):
            read_problem(path)


class TestSeedDerivation:
    def test_deterministic_and_distinct(self):
        a = derive_seed(7, 1, 0)
        assert a == derive_seed(7, 1, 0)
        assert a != derive_seed(7, 1, 1)
        assert a != derive_seed(7, 2, 0)
        assert a != derive_seed(8, 1, 0)
        assert 0 <= a < 2**64
