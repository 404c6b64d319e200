import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cliqueforest import (
    CommutationOracle,
    ObstructionCertificate,
    UnipotentMatrix,
    center_nonabelian_check,
    find_centralizer_quadruple,
    heisenberg_ball,
    remark_counterexample_suite,
)
from cliqueforest.obstructions import X, Y, Z, parse_oracle

ints = st.integers(min_value=-20, max_value=20)
unipotent = st.builds(UnipotentMatrix, ints, ints, ints)


def np_matrix(m: UnipotentMatrix) -> np.ndarray:
    return np.array(m.rows(), dtype=object)


class TestUnipotentMatrix:
    @given(unipotent, unipotent)
    @settings(max_examples=200, deadline=None)
    def test_product_matches_numpy(self, m, n):
        # oracle: literal 3x3 integer matrix multiplication
        assert np.array_equal(np_matrix(m * n), np_matrix(m) @ np_matrix(n))

    @given(unipotent)
    @settings(max_examples=100, deadline=None)
    def test_inverse(self, m):
        assert (m * m.inverse()).is_identity()
        assert (m.inverse() * m).is_identity()

    @given(unipotent, unipotent, unipotent)
    @settings(max_examples=100, deadline=None)
    def test_associative(self, a, b, c):
        assert (a * b) * c == a * (b * c)

    @given(unipotent, unipotent)
    @settings(max_examples=100, deadline=None)
    def test_commutation_criterion(self, m, n):
        # [m, n] = 1 iff the off-diagonal vectors are proportional
        assert m.commutes_with(n) == (m.a * n.b == n.a * m.b)

    def test_generators(self):
        assert (X * Y * X.inverse() * Y.inverse()) == Z
        assert X.commutes_with(Z) and Y.commutes_with(Z)
        assert not X.commutes_with(Y)

    def test_from_rows_round_trip(self):
        m = UnipotentMatrix(2, -3, 5)
        assert UnipotentMatrix.from_rows(m.rows()) == m

    def test_from_rows_rejects_non_unipotent(self):
        with pytest.raises(ValueError):
            UnipotentMatrix.from_rows([[2, 0, 0], [0, 1, 0], [0, 0, 1]])
        with pytest.raises(ValueError):
            UnipotentMatrix.from_rows([[1, 0, 0], [1, 1, 0], [0, 0, 1]])


class TestHeisenbergBall:
    def test_radius_one(self):
        ball = heisenberg_ball(1)
        assert len(ball.labels) == 7  # id plus the six signed generators
        assert ball.element("id").is_identity()

    def test_radius_two_contains_commutator_structure(self):
        ball = heisenberg_ball(2)
        assert ball.commute("x", "z")
        assert ball.commute("y", "z")
        assert not ball.commute("x", "y")

    def test_ball_growth(self):
        assert len(heisenberg_ball(2).labels) > len(heisenberg_ball(1).labels)

    def test_bad_radius(self):
        with pytest.raises(ValueError):
            heisenberg_ball(0)

    def test_labels_unique(self):
        ball = heisenberg_ball(3)
        assert len(set(ball.labels)) == len(ball.labels)


class TestCentralizerQuadruple:
    def test_found_on_radius_two(self):
        ball = heisenberg_ball(2)
        cert = find_centralizer_quadruple(ball)
        assert cert is not None
        assert cert.reverify(ball)
        facts = cert.facts()
        assert [want for _, _, want in facts] == [True, True, True, False]

    def test_deterministic(self):
        c1 = find_centralizer_quadruple(heisenberg_ball(2))
        c2 = find_centralizer_quadruple(heisenberg_ball(2))
        assert c1 == c2

    def test_none_on_abelian_list(self):
        # powers of x only: everything commutes, no quadruple can exist
        labels = tuple(f"x{k}" for k in range(1, 5))
        rows = [UnipotentMatrix(k, 0, 0).rows() for k in range(1, 5)]
        oracle = CommutationOracle(labels, tuple(map(UnipotentMatrix.from_rows, rows)))
        assert find_centralizer_quadruple(oracle) is None

    def test_reverify_rejects_doctored(self):
        ball = heisenberg_ball(2)
        cert = find_centralizer_quadruple(ball)
        swapped = ObstructionCertificate(cert.h2, cert.g2, cert.h1, cert.g1)
        # x and h2 do not commute, so swapping g1 and h2 breaks a True fact
        assert not swapped.reverify(ball)

    def test_to_dict_scope_note(self):
        cert = find_centralizer_quadruple(heisenberg_ball(2))
        d = cert.to_dict()
        assert "finite element list" in d["scope_note"]
        assert len(d["facts"]) == 4


class TestCenterCheck:
    def test_heisenberg_center(self):
        nonab, w = center_nonabelian_check(heisenberg_ball(2))
        assert nonab
        assert w.central == "z"
        ball = heisenberg_ball(2)
        assert all(
            ball.element(w.central).commutes_with(e) for e in ball.elements
        )
        assert not ball.commute(*w.noncommuting_pair)

    def test_abelian_list(self):
        labels = tuple(f"x{k}" for k in range(1, 4))
        rows = [UnipotentMatrix(k, 0, 0).rows() for k in range(1, 4)]
        oracle = CommutationOracle(labels, tuple(map(UnipotentMatrix.from_rows, rows)))
        nonab, w = center_nonabelian_check(oracle)
        assert not nonab and w is None


class TestOracleParsing:
    def test_parse(self):
        text = "# two elements\nx 1 1 0 0 1 0 0 0 1\ny 1 0 0 0 1 1 0 0 1\n"
        oracle = parse_oracle(text)
        assert oracle.element("x") == X
        assert oracle.element("y") == Y

    def test_parse_bad_field_count(self):
        with pytest.raises(ValueError):
            parse_oracle("x 1 1 0\n")

    def test_parse_non_integer(self):
        with pytest.raises(ValueError):
            parse_oracle("x 1 q 0 0 1 0 0 0 1\n")

    def test_parse_non_unipotent_names_line(self):
        with pytest.raises(ValueError, match="line 3: matrix is not upper-triangular unipotent"):
            parse_oracle("# header\nx 1 1 0 0 1 0 0 0 1\ny 1 0 0 1 1 0 0 0 1\n")

    def test_duplicate_labels(self):
        with pytest.raises(ValueError, match="^line 3: duplicate label 'x'$"):
            parse_oracle("x 1 1 0 0 1 0 0 0 1\n# a comment line\nx 1 0 0 0 1 1 0 0 1\n")


class TestLineCounterexample:
    def test_partial_commutations_hold(self):
        rep = remark_counterexample_suite(1.0, 2.0)
        assert rep.res_fa_ga < 1e-12
        assert rep.res_ga_gb < 1e-12

    def test_non_commutation_visible(self):
        rep = remark_counterexample_suite(1.0, 2.0)
        assert max(r for _, _, r in rep.power_residuals) > 1e-3

    def test_witness_point_reproduces(self):
        rep = remark_counterexample_suite(1.0, 2.0)
        n, x, r = rep.power_residuals[0]
        from cliqueforest import Power, SineShear, commutator_witness

        x2, r2 = commutator_witness(
            Power(SineShear(1.0), n), Power(SineShear(2.0), n),
            rep.grid_n, rep.domain,
        )
        assert (x2, r2) == (x, r)

    def test_bad_parameters(self):
        with pytest.raises(ValueError):
            remark_counterexample_suite(1.0, 1.0)
        with pytest.raises(ValueError):
            remark_counterexample_suite(0.0, 1.0)

    def test_to_dict_fields(self):
        d = remark_counterexample_suite(1.0, 2.0, n_max=2).to_dict()
        assert len(d["power_residuals"]) == 2
        assert d["domain"] == [0.0, 4 * math.pi]
