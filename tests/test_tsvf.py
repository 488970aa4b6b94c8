"""Two-state-vector operations: weak values, post-selection, projector sums."""

import numpy as np
import pytest

from tsvsim import hilbert as hb, tsvf
from tsvsim.errors import (DimensionMismatch, IncompleteSet, OrthogonalSelection,
                           ZeroProbabilityBranch)

SQ2 = np.sqrt(2.0)
SQ3 = np.sqrt(3.0)


@pytest.fixture
def boxes():
    sp = hb.space(("box", ["box1", "box2", "box3"]))
    pre = hb.Ket(sp, np.ones(3) / SQ3)
    post = hb.Ket(sp, np.array([1, 1, -1]) / SQ3)
    return sp, tsvf.TwoStateVector(pre, post)


def box_projectors(sp):
    return [hb.Operator.projector(sp, {"box": lab}) for lab in sp.factor("box").labels]


class TestWeakValue:
    def test_three_boxes(self, boxes):
        sp, tsv = boxes
        values = [tsvf.weak_value(tsv, p) for p in box_projectors(sp)]
        np.testing.assert_allclose(values, [1, 1, -1], atol=1e-12)

    def test_identity_gives_one(self, boxes):
        sp, tsv = boxes
        wv = tsvf.weak_value(tsv, hb.Operator.projector(sp, {}))
        assert wv == pytest.approx(1.0, abs=1e-14)

    def test_hardy_negative_pair(self):
        sp = hb.space(("positron", ["O+", "NO+"]), ("electron", ["O-", "NO-"]))
        pre = hb.from_amplitudes(sp, {("O+", "NO-"): 1 / SQ3, ("NO+", "O-"): 1 / SQ3,
                                      ("NO+", "NO-"): 1 / SQ3})
        post = hb.from_amplitudes(sp, {("O+", "O-"): 0.5, ("O+", "NO-"): -0.5,
                                       ("NO+", "O-"): -0.5, ("NO+", "NO-"): 0.5})
        tsv = tsvf.TwoStateVector(pre, post)
        pair = hb.Operator.projector(sp, {"positron": "NO+", "electron": "NO-"})
        assert tsvf.weak_value(tsv, pair) == pytest.approx(-1.0, abs=1e-12)

    def test_orthogonal_selection_raises(self):
        sp = hb.space(("a", ["x", "y"]))
        tsv = tsvf.TwoStateVector(hb.basis_state(sp, "x"), hb.basis_state(sp, "y"))
        with pytest.raises(OrthogonalSelection):
            tsvf.weak_value(tsv, hb.Operator.projector(sp, {}))

    def test_eigenvector_selection_gives_eigenvalue(self):
        sp = hb.space(("a", ["x", "y", "z"]))
        obs = hb.Operator(sp, np.diag([2.0, 5.0, -3.0]))
        for idx, lam in enumerate((2.0, 5.0, -3.0)):
            k = hb.basis_state(sp, sp.factor("a").labels[idx])
            tsv = tsvf.TwoStateVector(k, k)
            assert tsvf.weak_value(tsv, obs) == lam

    @pytest.mark.parametrize("label, expect", [("x", (1 - 1j) / 2), ("y", (1 + 1j) / 2)])
    def test_complex_weak_value_by_hand(self, label, expect):
        # pre = (1, i)/sqrt2 and post = (1, 1)/sqrt2 give <post|pre> = (1 + i)/2,
        # <post|P_x|pre> = 1/2 and <post|P_y|pre> = i/2; swapping pre and post
        # anywhere conjugates a value or flips its sign
        sp = hb.space(("a", ["x", "y"]))
        tsv = tsvf.TwoStateVector(hb.Ket(sp, np.array([1, 1j]) / SQ2),
                                  hb.Ket(sp, np.array([1, 1]) / SQ2))
        wv = tsvf.weak_value(tsv, hb.Operator.projector(sp, {"a": label}))
        assert wv == pytest.approx(expect, abs=1e-15)

    def test_linearity_on_random_operators(self, boxes):
        sp, tsv = boxes
        rng = np.random.default_rng(21)
        for _ in range(40):
            a = hb.Operator(sp, rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3)))
            b = hb.Operator(sp, rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3)))
            alpha = complex(rng.normal(), rng.normal())
            beta = complex(rng.normal(), rng.normal())
            combined = hb.Operator(sp, alpha * a.matrix + beta * b.matrix)
            lhs = tsvf.weak_value(tsv, combined)
            rhs = alpha * tsvf.weak_value(tsv, a) + beta * tsvf.weak_value(tsv, b)
            assert lhs == pytest.approx(rhs, abs=1e-10 * max(1.0, abs(rhs)))


class TestPostSelect:
    def oblivion_state(self):
        sp = hb.space(("electron", ["1'", "1''"]), ("positron", ["2'", "2''"]),
                      ("det", ["READY", "CLICK"]))
        # hand-enumerated: flip the detector on the (1'', 2') branch of the
        # four equal branches, then keep the silent component
        entries = {}
        for e in ("1'", "1''"):
            for p in ("2'", "2''"):
                flag = "CLICK" if (e, p) == ("1''", "2'") else "READY"
                entries[(e, p, flag)] = 0.5
        return sp, hb.from_amplitudes(sp, entries)

    def test_silence_probability_and_collapse(self):
        sp, state = self.oblivion_state()
        p, collapsed = tsvf.post_select(state, hb.Operator.projector(sp, {"det": "READY"}))
        assert p == pytest.approx(0.75, abs=1e-14)
        # surviving branches renormalized to 1/sqrt3
        for labels in ((("1'", "2'", "READY")), ("1'", "2''", "READY"),
                       ("1''", "2''", "READY")):
            assert collapsed.amplitude(labels) == pytest.approx(1 / SQ3, abs=1e-14)
        assert collapsed.amplitude(("1''", "2'", "READY")) == 0.0

    def test_second_stage_conditional(self):
        # from the 1/sqrt3 state, removing the (1', 2') branch keeps 2/3
        sp, state = self.oblivion_state()
        _, mid = tsvf.post_select(state, hb.Operator.projector(sp, {"det": "READY"}))
        first, second = (hb.Operator.projector(sp, c).diagonal
                         for c in ({"electron": "1''"}, {"electron": "1'", "positron": "2''"}))
        proj = hb.Diagonal(sp, first + second)
        p, final = tsvf.post_select(mid, proj)
        assert p == pytest.approx(2 / 3, abs=1e-14)
        assert final.amplitude(("1'", "2''", "READY")) == pytest.approx(1 / SQ2, abs=1e-12)
        assert final.amplitude(("1''", "2''", "READY")) == pytest.approx(1 / SQ2, abs=1e-12)

    def test_identity_projector(self):
        sp, state = self.oblivion_state()
        for identity in (hb.Operator.projector(sp, {}),
                         hb.Permutation(sp, np.arange(sp.dim))):
            p, same = tsvf.post_select(state, identity)
            assert p == pytest.approx(1.0, abs=1e-14)
            np.testing.assert_allclose(same.amplitudes, state.amplitudes, atol=1e-15)

    def test_zero_probability_branch(self):
        sp = hb.space(("a", ["x", "y"]))
        with pytest.raises(ZeroProbabilityBranch):
            tsvf.post_select(hb.basis_state(sp, "x"),
                             hb.Operator.projector(sp, {"a": "y"}))

    def test_nan_or_inf_probability_refused(self):
        # a NaN ket, and amplitudes whose squared norm overflows, fail the
        # threshold as a zero probability does (warnings are errors here)
        sp = hb.space(("a", ["x", "y"]))
        proj = hb.Operator.projector(sp, {"a": "x"})
        for amp, p in ((np.nan, "nan"), (1e200, "inf")):
            with pytest.raises(ZeroProbabilityBranch,
                               match=f"^cannot project a ket of squared norm {p}$"):
                tsvf.post_select(hb.Ket(sp, np.array([amp, 0.5])), proj)

    def test_non_finite_ket_refused_before_projecting(self):
        # born_probability refuses what post_select does, and both refuse an
        # infinite amplitude before inf * 0 in P|psi> can warn (an error here)
        sp = hb.space(("a", ["x", "y"]))
        for proj in (hb.Operator.projector(sp, {"a": "x"}), hb.Operator(sp, np.diag([1.0, 0]))):
            for amp in (np.nan, np.inf, 1e200):
                for call in (tsvf.born_probability, tsvf.post_select):
                    with pytest.raises(ZeroProbabilityBranch,
                                       match="^cannot project a ket of squared norm "
                                             "(nan|inf)$"):
                        call(hb.Ket(sp, np.array([amp, 0.5])), proj)
            assert tsvf.born_probability(hb.basis_state(sp, "y"), proj) == 0.0
            assert tsvf.born_probability(hb.Ket(sp, np.zeros(2)), proj) == 0.0

    @pytest.mark.parametrize("call", [tsvf.born_probability, tsvf.post_select])
    @pytest.mark.parametrize("amp,p", [(np.inf, "inf"), (np.nan, "nan")])
    def test_non_finite_ket_names_its_squared_norm(self, call, amp, p):
        # np.vdot folds inf * 0 into NaN on some BLAS kernels; an infinite
        # entry still reads inf
        sp = hb.space(("a", ["x", "y"]))
        with pytest.raises(ZeroProbabilityBranch,
                           match=f"^cannot project a ket of squared norm {p}$"):
            call(hb.Ket(sp, [amp, 0.0]), hb.Operator.projector(sp, {"a": "x"}))

    def test_non_projector_rejected(self):
        sp = hb.space(("a", ["x", "y"]))
        for bad in (hb.Operator(sp, np.array([[0.5, 0], [0, 0.5]])),
                    hb.Diagonal(sp, 2 * hb.Operator.projector(sp, {"a": "x"}).diagonal),
                    hb.flag_flip(sp, {}, "a", "x", "y")):
            with pytest.raises(ValueError, match="is not a projector"):
                tsvf.post_select(hb.basis_state(sp, "x"), bad)

    def test_complete_outcome_set_sums_to_one(self):
        rng = np.random.default_rng(33)
        sp = hb.space(("a", ["x", "y", "z"]))
        for _ in range(10):
            v = rng.normal(size=3) + 1j * rng.normal(size=3)
            k = hb.Ket(sp, v / np.linalg.norm(v))
            total = sum(tsvf.post_select(k, p)[0] for p in box_like(sp))
            assert total == pytest.approx(1.0, abs=1e-10)


def box_like(sp):
    return [hb.Operator.projector(sp, {"a": lab}) for lab in sp.factor("a").labels]


class TestProjectorSum:
    def test_three_boxes_totals_one(self, boxes):
        sp, tsv = boxes
        assert tsvf.projector_weak_value_sum(tsv, box_projectors(sp)) == \
            pytest.approx(1.0, abs=1e-12)

    def test_single_identity(self, boxes):
        sp, tsv = boxes
        assert tsvf.projector_weak_value_sum(tsv, [hb.Operator.projector(sp, {})]) == \
            pytest.approx(1.0, abs=1e-14)

    def test_incomplete_set_rejected(self, boxes):
        sp, tsv = boxes
        with pytest.raises(IncompleteSet):
            tsvf.projector_weak_value_sum(tsv, box_projectors(sp)[:2])

    def test_empty_set_rejected(self, boxes):
        _, tsv = boxes
        with pytest.raises(IncompleteSet):
            tsvf.projector_weak_value_sum(tsv, [])

    @pytest.mark.parametrize("first", [False, True])
    def test_non_diagonal_projector_rejected(self, boxes, first):
        # a dense projector has no diagonal to sum: refused by its type, first or not
        sp, tsv = boxes
        dense = hb.Operator.ket_projector(tsv.pre)
        family = [dense] if first else box_projectors(sp) + [dense]
        with pytest.raises(ValueError, match=r"^projector Operator\(Space\(box\[3\]\)\) is "
                                             r"not a label projector \(Diagonal\)$"):
            tsvf.projector_weak_value_sum(tsv, family)


@pytest.mark.parametrize("call,message", [
    (lambda a, b: tsvf.TwoStateVector(hb.basis_state(a, "x"), hb.basis_state(b, "x")),
     "pre and post selections on different spaces"),
    (lambda a, b: tsvf.weak_value(
        tsvf.TwoStateVector(hb.basis_state(a, "x"), hb.basis_state(a, "x")),
        hb.Operator.projector(b, {})), "operator space differs from selection space"),
    (lambda a, b: tsvf.born_probability(hb.basis_state(a, "x"), hb.Operator.projector(b, {})),
     "projector space differs from state space"),
    (lambda a, b: tsvf.post_select(hb.basis_state(a, "x"), hb.Operator.projector(b, {})),
     "projector space differs from state space"),
    (lambda a, b: tsvf.projector_weak_value_sum(
        tsvf.TwoStateVector(hb.basis_state(a, "x"), hb.basis_state(a, "x")),
        [hb.Operator.projector(a, {}), hb.Operator.projector(b, {})]),
     "projectors on different spaces"),
], ids=["two_state_vector", "weak_value", "born_probability", "post_select",
        "projector_weak_value_sum"])
def test_space_mismatch_refused(call, message):
    a, b = hb.space(("a", ["x", "y"])), hb.space(("b", ["x", "y"]))
    with pytest.raises(DimensionMismatch, match=f"^{message}$"):
        call(a, b)


class TestTwoStateVector:
    def test_requires_normalized(self):
        sp = hb.space(("a", ["x", "y"]))
        with pytest.raises(ValueError):
            tsvf.TwoStateVector(hb.Ket(sp, np.array([2.0, 0])),
                                hb.basis_state(sp, "x"))

    def test_nan_ket_rejected(self):
        sp = hb.space(("a", ["x", "y"]))
        with pytest.raises(ValueError, match=r"^pre-selected ket is not normalized \(norm nan\)$"):
            tsvf.TwoStateVector(hb.Ket(sp, np.array([np.nan, 0])), hb.basis_state(sp, "x"))

    def test_selection_probability(self, boxes):
        _, tsv = boxes
        assert tsv.selection_probability() == pytest.approx(1 / 9, abs=1e-12)

    def test_born_probability_matches_post_select(self):
        rng = np.random.default_rng(4)
        sp = hb.space(("a", ["x", "y", "z"]))
        v = rng.normal(size=3) + 1j * rng.normal(size=3)
        k = hb.Ket(sp, v / np.linalg.norm(v))
        proj = hb.Operator.projector(sp, {"a": "y"})
        p1 = tsvf.born_probability(k, proj)
        p2, _ = tsvf.post_select(k, proj)
        assert p1 == pytest.approx(p2, abs=1e-15)
