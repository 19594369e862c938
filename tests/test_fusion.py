import pytest
from hypothesis import given, settings, strategies as st

from blowring.fusion import FusionRangeError, consistency_sweep, fusion_table


class TestClosedFormula:
    def test_single_factor(self):
        # a=1, b=0: exponent (0 + l*1*0)/2 = 0
        exp = fusion_table("tri", a=1, b=0, l=7)
        assert str(exp) == "v(8)_1"
        assert exp.lhs_str() == "v(8)_1"

    def test_consecutive_pair(self):
        # a=1, b=1: exponent (0 + 2l(-1))/2 = -l
        exp = fusion_table("tri", a=1, b=1, l=2)
        assert str(exp) == "q^-2 * v(5)_2"

    def test_square(self):
        exp = fusion_table("tri", a=2, b=0, l=3)
        assert str(exp) == "q^-4 * v(8)_2"

    def test_range_errors(self):
        with pytest.raises(FusionRangeError):
            fusion_table("tri", a=0, b=0, l=1)
        with pytest.raises(FusionRangeError):
            fusion_table("tri", a=-1, b=2, l=1)

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 6), st.integers(0, 6), st.integers(0, 8))
    def test_exponent_always_integral(self, a, b, l):
        if a + b < 1:
            return
        exp = fusion_table("tri", a=a, b=b, l=l)
        (term,) = exp.terms
        assert term.v.m == a + b
        assert term.v.n == a + l * (a + b)


class TestGeneralRules:
    def test_general_rule_example(self):
        exp = fusion_table("odin", n=2, l=3)
        assert exp.lhs_str() == "q^-3 * v(5)_1 * v(3)_1"
        assert str(exp) == "q^-6 * v(8)_2 + q^2 * v(0)_0"
        assert not exp.ambiguous

    def test_even_tail_terminates_at_zero(self):
        exp = fusion_table("odin", n=6, l=1)
        assert [(t.q_power, t.v.n, t.v.m) for t in exp.terms] == [
            (-2, 8, 2),
            (2, 4, 0),
            (4, 2, 0),
            (6, 0, 0),
        ]

    def test_odd_tail_terminates_at_one(self):
        exp = fusion_table("odin", n=5, l=2)
        assert [(t.q_power, t.v.n, t.v.m) for t in exp.terms] == [
            (-4, 9, 2),
            (2, 3, 0),
            (4, 1, 0),
        ]

    def test_second_rule(self):
        exp = fusion_table("dva", n=2, l=5)
        assert exp.lhs_str() == "q^-7 * v(3)_1 * v(5)_1"
        assert [(t.q_power, t.v.n, t.v.m) for t in exp.terms] == [(-12, 8, 2), (-2, 0, 0)]

    @pytest.mark.parametrize("n", [0, 1])
    def test_boundary_flagged_ambiguous(self, n):
        for kind in ("odin", "dva"):
            exp = fusion_table(kind, n=n, l=2)
            assert exp.ambiguous
            assert exp.note and "point orbit" in exp.note

    def test_negative_n_rejected(self):
        with pytest.raises(FusionRangeError):
            fusion_table("odin", n=-1, l=1)

    def test_unknown_kind(self):
        with pytest.raises(FusionRangeError):
            fusion_table("chetyre", n=1, l=1)


class TestConsistencySweep:
    def test_default_window_passes(self):
        records = consistency_sweep()
        statuses = {r.status for r in records}
        assert "fail" not in statuses
        assert "skipped-ambiguous" in statuses
        checked = [r for r in records if r.status == "pass"]
        assert len(checked) == 5 * 4

    def test_rules_agree_at_q1_by_hand(self):
        # odin(n=2, l=1): v(3)v(1) -> {v(4)_2, v(0)_0}; dva(n=2, l=3) matches
        first = fusion_table("odin", n=2, l=1)
        second = fusion_table("dva", n=2, l=3)
        assert first.q1_symbols() == second.q1_symbols() == ((0, 0), (4, 2))

    def test_tri_agrees_where_unambiguous(self):
        # the closed formula at a=2 matches the n=0 head term of the general
        # rule (whose tail is empty exactly when the boundary reading is
        # consistent): q^-l v(l)v(l) = q^-2l v(2l)_2
        closed = fusion_table("tri", a=2, b=0, l=4)  # v(5)^2 -> q^-5 v(10)_2
        (term,) = closed.terms
        assert (term.v.n, term.v.m) == (10, 2)
