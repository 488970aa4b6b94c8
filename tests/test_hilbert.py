"""Core Hilbert-space machinery: labels, kets, operators, Schmidt."""

import itertools

import numpy as np
import pytest

from tsvsim import hilbert as hb, tsvf
from tsvsim.errors import DimensionMismatch, InvalidBipartition

SQ2 = np.sqrt(2.0)
SQ3 = np.sqrt(3.0)


def pair_space():
    return hb.space(("electron", ["1'", "1''"]), ("positron", ["2'", "2''"]))


def split_state(sp):
    """Both particles split 50/50 with real amplitudes, as prepared by the
    phase-absorbed splitter."""
    return hb.Ket(sp, np.full(4, 0.5))


class TestSpaceAndLabels:
    def test_label_to_index_roundtrip(self):
        sp = hb.space(("a", ["x", "y", "z"]), ("b", ["u", "v"]), ("c", ["p", "q"]))
        labels = itertools.product(*(f.labels for f in sp.factors))
        assert [sp.index_of(lab) for lab in labels] == list(range(sp.dim))

    def test_duplicate_labels_rejected(self):
        with pytest.raises(ValueError):
            hb.Factor("f", ("a", "a"))

    def test_duplicate_factor_names_rejected(self):
        f = hb.Factor("f", ("a", "b"))
        with pytest.raises(ValueError):
            hb.Space([f, f])

    def test_unknown_label(self):
        sp = pair_space()
        with pytest.raises(KeyError, match="unknown label 'nope' in factor 'positron'"):
            sp.index_of(("1'", "nope"))
        with pytest.raises(KeyError, match="unknown label 'nope' in factor 'electron'"):
            sp.factor("electron").index("nope")

    def test_wrong_label_count(self):
        sp = pair_space()
        with pytest.raises(DimensionMismatch, match="expected 2 labels, got 1"):
            sp.index_of(("1'",))

    def test_label_lookup_table_is_not_part_of_the_value(self):
        f = hb.Factor("f", ("a", "b"))
        assert [f.index("a"), f.index("b")] == [0, 1]
        assert repr(f) == "Factor(name='f', labels=('a', 'b'))"
        assert f == hb.Factor("f", ("a", "b"))
        assert hash(f) == hash(("f", ("a", "b")))


class TestInner:
    def test_orthonormal_basis(self):
        sp = hb.space(("electron", ["1'", "1''"]))
        assert hb.inner(hb.basis_state(sp, "1'"), hb.basis_state(sp, "1''")) == 0.0

    def test_three_box_overlap_is_one_third(self):
        # hand expansion oracle: (1*1 + 1*1 + 1*(-1)) / 3
        oracle = (1 + 1 - 1) / 3
        sp = hb.space(("box", ["1", "2", "3"]))
        pre = hb.Ket(sp, np.array([1, 1, 1]) / SQ3)
        post = hb.Ket(sp, np.array([1, 1, -1]) / SQ3)
        assert hb.inner(post, pre) == pytest.approx(oracle, abs=1e-15)

    def test_self_inner_is_one_for_normalized(self):
        rng = np.random.default_rng(3)
        sp = hb.space(("a", ["p", "q", "r"]))
        v = rng.normal(size=3) + 1j * rng.normal(size=3)
        k = hb.Ket(sp, v / np.linalg.norm(v))
        assert hb.inner(k, k) == pytest.approx(1.0, abs=1e-12)

    def test_conjugate_linear_first_argument(self):
        sp = hb.space(("a", ["p", "q"]))
        x = hb.Ket(sp, np.array([1, 1j]) / SQ2)
        y = hb.Ket(sp, np.array([1, -1]) / SQ2)
        assert hb.inner(x, y) == pytest.approx(np.conj(hb.inner(y, x)), abs=1e-15)

    def test_space_mismatch(self):
        with pytest.raises(DimensionMismatch):
            hb.inner(hb.basis_state(hb.space(("a", ["x", "y"])), "x"),
                     hb.basis_state(hb.space(("b", ["x", "y"])), "x"))


class TestApply:
    def test_identity(self):
        sp = pair_space()
        k = split_state(sp)
        out = hb.apply(hb.Operator.projector(sp, {}), k)
        np.testing.assert_array_equal(out.amplitudes, k.amplitudes)

    def test_beamsplitter_on_single_arm(self):
        # fixed symmetric convention: |2''> -> (i|2'> + |2''>)/sqrt2;
        # magnitudes are 1/sqrt2 each regardless of phase convention
        sp = hb.space(("positron", ["2'", "2''"]))
        out = hb.apply(hb.Operator(sp, hb.BS_SYMMETRIC), hb.basis_state(sp, "2''"))
        np.testing.assert_allclose(np.abs(out.amplitudes), 1 / SQ2, atol=1e-15)
        np.testing.assert_allclose(out.amplitudes, np.array([1j, 1]) / SQ2, atol=1e-15)

    def test_projector_on_silent_final_state(self):
        # projecting the electron's 1' component out of the silent final state
        # leaves amplitude 1/sqrt2 on the 1' x 2'' branch
        sp = pair_space()
        state = hb.from_amplitudes(sp, {("1'", "2''"): 1 / SQ2, ("1''", "2''"): 1 / SQ2})
        proj = hb.Operator.projector(sp, {"electron": "1'"})
        out = hb.apply(proj, state)
        assert out.amplitude(("1'", "2''")) == pytest.approx(1 / SQ2, abs=1e-15)
        assert out.amplitude(("1''", "2''")) == 0.0

    def test_unitaries_preserve_norm(self):
        rng = np.random.default_rng(11)
        sp = hb.space(("m", ["a", "b"]))
        for mat in (hb.BS_SYMMETRIC, hb.SPLIT_REAL):
            op = hb.Operator(sp, mat)
            assert hb.is_unitary(mat, 1e-14)
            for _ in range(30):
                v = rng.normal(size=2) + 1j * rng.normal(size=2)
                k = hb.Ket(sp, v)
                assert abs(hb.apply(op, k).norm() - k.norm()) <= 1e-12

    def test_dimension_mismatch(self):
        sp = pair_space()
        other = hb.space(("x", ["0", "1"]))
        with pytest.raises(DimensionMismatch):
            hb.apply(hb.Operator.projector(other, {}), split_state(sp))


class TestApplyToFactors:
    def test_matches_full_operator(self):
        rng = np.random.default_rng(5)
        sp = hb.space(("a", ["a0", "a1"]), ("b", ["b0", "b1", "b2"]), ("c", ["c0", "c1"]))
        v = rng.normal(size=sp.dim) + 1j * rng.normal(size=sp.dim)
        k = hb.Ket(sp, v / np.linalg.norm(v))
        mat = hb.BS_SYMMETRIC
        # c is the last factor, so the full-space operator is 1_(a,b) (x) mat
        via_full = hb.apply(hb.Operator(sp, np.kron(np.eye(6), mat)), k)
        via_factors = hb.apply_to_factors(k, mat, ["c"])
        np.testing.assert_allclose(via_full.amplitudes, via_factors.amplitudes,
                                   atol=1e-14)

    def test_middle_factor_with_reordering(self):
        rng = np.random.default_rng(6)
        sp = hb.space(("a", ["a0", "a1"]), ("b", ["b0", "b1"]), ("c", ["c0", "c1"]))
        v = rng.normal(size=8) + 1j * rng.normal(size=8)
        k = hb.Ket(sp, v)
        swap = np.array([[0, 1], [1, 0]], dtype=complex)
        big = np.kron(swap, swap)  # acts on (c, a) in that order
        out = hb.apply_to_factors(k, big, ["c", "a"])
        expect = hb.apply_to_factors(hb.apply_to_factors(k, swap, ["a"]), swap, ["c"])
        np.testing.assert_allclose(out.amplitudes, expect.amplitudes, atol=1e-14)


class TestProjectors:
    def test_completeness(self):
        sp = pair_space()
        total = np.zeros((sp.dim, sp.dim), dtype=complex)
        for lab_e in ("1'", "1''"):
            for lab_p in ("2'", "2''"):
                total += hb.Operator.projector(
                    sp, {"electron": lab_e, "positron": lab_p}).matrix
        np.testing.assert_allclose(total, np.eye(sp.dim), atol=1e-12)

    def test_projector_laws(self):
        sp = pair_space()
        p = hb.Operator.projector(sp, {"electron": "1'"})
        assert p.is_projector()
        k = hb.Ket(sp, np.array([0.5, 0.5, 0.5, 0.5]))
        twice = hb.apply(p, hb.apply(p, k))
        np.testing.assert_allclose(twice.amplitudes, hb.apply(p, k).amplitudes,
                                   atol=1e-15)


class TestSchmidt:
    def test_product_state_rank_one(self):
        sp = pair_space()
        rank, coeffs = hb.schmidt_rank(split_state(sp), ["electron"])
        assert rank == 1
        assert coeffs[0] == pytest.approx(1.0, abs=1e-12)

    def test_entangled_midpoint_rank_two_with_known_coefficients(self):
        # oracle: singular values of [[1, 1], [0, 1]]/sqrt3 are
        # sqrt((3 +- sqrt5)/6), both nonzero
        s_hi = np.sqrt((3 + np.sqrt(5)) / 6)
        s_lo = np.sqrt((3 - np.sqrt(5)) / 6)
        sp = pair_space()
        state = hb.from_amplitudes(sp, {
            ("1'", "2'"): 1 / SQ3, ("1'", "2''"): 1 / SQ3, ("1''", "2''"): 1 / SQ3,
        })
        rank, coeffs = hb.schmidt_rank(state, ["electron"])
        assert rank == 2
        np.testing.assert_allclose(coeffs, [s_hi, s_lo], atol=1e-12)
        assert np.sum(coeffs ** 2) == pytest.approx(1.0, abs=1e-10)

    def test_silent_final_state_rank_one(self):
        sp = pair_space()
        state = hb.from_amplitudes(sp, {("1'", "2''"): 1 / SQ2, ("1''", "2''"): 1 / SQ2})
        rank, _ = hb.schmidt_rank(state, ["electron"])
        assert rank == 1

    def test_rank_one_reconstructs_as_product(self):
        rng = np.random.default_rng(13)
        sp = pair_space()
        a = rng.normal(size=2) + 1j * rng.normal(size=2)
        b = rng.normal(size=2) + 1j * rng.normal(size=2)
        amps = np.kron(a / np.linalg.norm(a), b / np.linalg.norm(b))
        k = hb.Ket(sp, amps)
        rank, coeffs = hb.schmidt_rank(k, ["electron"])
        assert rank == 1
        # reconstruct |u0><v0| from the SVD and compare to the amplitudes
        mat = k.as_tensor().reshape(2, 2)
        u, s, vh = np.linalg.svd(mat)
        rebuilt = s[0] * np.outer(u[:, 0], vh[0])
        np.testing.assert_allclose(rebuilt, mat, atol=1e-10)

    def test_invalid_bipartition(self):
        sp = pair_space()
        for left in (["electron", "electron"], ["electron", "positron"], []):
            with pytest.raises(InvalidBipartition):
                hb.schmidt_rank(split_state(sp), left)
        with pytest.raises(KeyError, match="no factor named 'muon'"):
            hb.schmidt_rank(split_state(sp), ["muon"])


class TestGateBuilders:
    def test_mode_coupler_disjoint_pairs_round_trip(self):
        # outbound pass then return pass recombines exactly
        f = hb.Factor("photon", ("L_u", "L_d", "R_u", "R_d"))
        u = hb.mode_coupler(f, ("L_u", "L_d"), ("R_u", "R_d"))
        assert hb.is_unitary(u, 1e-14)
        state = np.zeros(4, dtype=complex)
        state[1] = 1.0  # L_d
        round_trip = u @ (u @ state)
        np.testing.assert_allclose(round_trip, state, atol=1e-15)

    FOUR = hb.Factor("photon", ("L_u", "L_d", "R_u", "R_d"))

    @pytest.mark.parametrize("block", [None, hb.SPLIT_REAL])
    def test_mode_coupler_identical_pairs_embed_the_block(self, block):
        b = hb.BS_SYMMETRIC if block is None else block
        u = hb.mode_coupler(self.FOUR, ("R_d", "L_d"), ("R_d", "L_d"), block=block)
        want = np.eye(4, dtype=complex)
        want[3, 3], want[3, 1], want[1, 3], want[1, 1] = b[0, 0], b[0, 1], b[1, 0], b[1, 1]
        assert np.array_equal(u, want)

    def test_mode_coupler_disjoint_pairs_route_through_block_and_inverse(self):
        b = np.array([[1, 2j], [3, 4 - 1j]])
        u = hb.mode_coupler(self.FOUR, ("R_u", "L_u"), ("L_d", "R_d"), block=b)
        # rows/columns in label order L_u, L_d, R_u, R_d
        want = np.array([[0, b[0, 1].conjugate(), 0, b[1, 1].conjugate()],
                         [b[0, 1], 0, b[0, 0], 0],
                         [0, b[0, 0].conjugate(), 0, b[1, 0].conjugate()],
                         [b[1, 1], 0, b[1, 0], 0]])
        assert np.array_equal(u, want)
        two = hb.Factor("f", ("a", "b", "c", "d", "e"))
        u = hb.mode_coupler(two, ("a", "b"), ("c", "d"))
        bs = hb.BS_SYMMETRIC
        assert np.array_equal(u[np.ix_([2, 3], [0, 1])], bs)
        assert np.array_equal(u[np.ix_([0, 1], [2, 3])], bs.conj().T)
        assert u[4, 4] == 1 and np.count_nonzero(u[4]) == 1

    def test_mode_coupler_rejects_overlapping_pairs(self):
        with pytest.raises(ValueError, match="^in/out pairs overlap but are not identical$"):
            hb.mode_coupler(self.FOUR, ("L_u", "L_d"), ("L_d", "L_u"))
        with pytest.raises(ValueError, match="^in/out pairs must be identical or disjoint$"):
            hb.mode_coupler(self.FOUR, ("L_u", "L_d"), ("L_d", "R_u"))

    def test_flag_flip_is_permutation(self):
        sp = hb.space(("p", ["x", "y"]), ("d", ["READY", "CLICK"]))
        op = hb.flag_flip(sp, {"p": "x"}, "d", "READY", "CLICK")
        assert hb.is_unitary(op.matrix, 1e-14)
        k = hb.basis_state(sp, "x", "READY")
        out = hb.apply(op, k)
        assert out.amplitude(("x", "CLICK")) == 1.0
        untouched = hb.apply(op, hb.basis_state(sp, "y", "READY"))
        assert untouched.amplitude(("y", "READY")) == 1.0

    def test_permutation_rejects_non_bijections(self):
        sp = hb.space(("a", ["x", "y", "z"]))
        for index in ([0, 1], [0, 1, 2, 0], [0, 1, 3], [0, 1, -1], [-3, 1, 2], [0, 1, 1]):
            with pytest.raises(ValueError, match="^index array is not a permutation of 3 states$"):
                hb.Permutation(sp, np.array(index))
        assert hb.Permutation(sp, np.array([2, 0, 1])).index.tolist() == [2, 0, 1]

    def test_label_swap_wildcard(self):
        sp = hb.space(("a", ["a0", "a1"]), ("b", ["b0", "b1"]))
        op = hb.label_swap(sp, ["a", "b"], ["*", "b0"], ["*", "b1"])
        assert hb.is_unitary(op.matrix, 1e-14)
        out = hb.apply(op, hb.basis_state(sp, "a1", "b0"))
        assert out.amplitude(("a1", "b1")) == 1.0

    def test_label_swap_repeated_factor(self):
        # one fixed label per axis: a repeat would keep only its last pair
        sp = hb.space(("a", ["x", "y", "z"]))
        with pytest.raises(ValueError, match="target factors must be distinct"):
            hb.label_swap(sp, ["a", "a"], ["x", "y"], ["y", "z"])

    def test_label_swap_mismatched_wildcards(self):
        sp = hb.space(("a", ["a0", "a1"]), ("b", ["b0", "b1"]))
        with pytest.raises(ValueError):
            hb.label_swap(sp, ["a", "b"], ["*", "b0"], ["a0", "b1"])


def _matrix_from_swaps(dim, swaps):
    perm = np.arange(dim)
    for i, j in swaps:
        perm[i], perm[j] = perm[j], perm[i]
    mat = np.zeros((dim, dim), dtype=complex)
    mat[perm, np.arange(dim)] = 1.0
    return mat


def reference_label_swap(sp, factor_names, src, dst):
    """Dense label_swap built with the per-basis-state loop."""
    fixed_src, fixed_dst = {}, {}
    for nm, s, d in zip(factor_names, src, dst):
        if s != "*":
            ax = sp.factor_index(nm)
            fixed_src[ax] = sp.factor(nm).index(s)
            fixed_dst[ax] = sp.factor(nm).index(d)
    free_axes = [i for i in range(len(sp.dims)) if i not in fixed_src]
    swaps = []
    for combo in np.ndindex(*(sp.dims[a] for a in free_axes)):
        multi_s = [0] * len(sp.dims)
        multi_d = [0] * len(sp.dims)
        for a, v in zip(free_axes, combo):
            multi_s[a] = multi_d[a] = v
        for a in fixed_src:
            multi_s[a] = fixed_src[a]
            multi_d[a] = fixed_dst[a]
        i = int(np.ravel_multi_index(multi_s, sp.dims))
        j = int(np.ravel_multi_index(multi_d, sp.dims))
        if i != j:
            swaps.append((i, j))
    return _matrix_from_swaps(sp.dim, swaps)


def reference_flag_flip(sp, condition, flag_factor, ready, click):
    """Dense flag_flip built with the per-basis-state loop."""
    m = hb.Operator.projector(sp, condition).diagonal.astype(bool).reshape(sp.dims)
    ax = sp.factor_index(flag_factor)
    f = sp.factor(flag_factor)
    r_idx, c_idx = f.index(ready), f.index(click)
    swaps = []
    for multi in np.argwhere(m):
        if multi[ax] != r_idx:
            continue
        other = multi.copy()
        other[ax] = c_idx
        if not m[tuple(other)]:
            raise ValueError("condition depends on the flag factor")
        swaps.append((int(np.ravel_multi_index(tuple(multi), sp.dims)),
                      int(np.ravel_multi_index(tuple(other), sp.dims))))
    return _matrix_from_swaps(sp.dim, swaps)


def random_space(rng, min_flag_dim=1):
    n = int(rng.integers(1, 5))
    dims = rng.integers(1, 4, size=n)
    dims[0] = max(dims[0], min_flag_dim)
    return hb.space(*((f"f{k}", [f"f{k}_{j}" for j in range(d)])
                      for k, d in enumerate(dims)))


class TestBasisMapsAgainstDenseReference:
    def test_label_swap_with_and_without_wildcards(self):
        rng = np.random.default_rng(2015)
        for _ in range(300):
            sp = random_space(rng)
            k = int(rng.integers(1, len(sp.factors) + 1))
            targets = [sp.factors[i] for i in rng.permutation(len(sp.factors))[:k]]
            src, dst = [], []
            for f in targets:
                if rng.random() < 0.3:
                    src.append("*")
                    dst.append("*")
                else:
                    src.append(f.labels[rng.integers(f.dim)])
                    dst.append(f.labels[rng.integers(f.dim)])
            names = [f.name for f in targets]
            op = hb.label_swap(sp, names, src, dst)
            assert np.array_equal(np.sort(op.index), np.arange(sp.dim))
            np.testing.assert_array_equal(
                op.matrix, reference_label_swap(sp, names, src, dst))

    def test_flag_flip(self):
        rng = np.random.default_rng(1504)
        for _ in range(300):
            sp = random_space(rng, min_flag_dim=2)
            flag = sp.factors[0]
            ready, click = (flag.labels[i] for i in rng.choice(flag.dim, 2, replace=False))
            condition = {}
            for f in sp.factors[1:]:
                if rng.random() < 0.6:
                    condition[f.name] = f.labels[rng.integers(f.dim)]
            op = hb.flag_flip(sp, condition, flag.name, ready, click)
            assert np.array_equal(np.sort(op.index), np.arange(sp.dim))
            np.testing.assert_array_equal(
                op.matrix, reference_flag_flip(sp, condition, flag.name, ready, click))
            # a condition that reads the flag itself is rejected by both
            with pytest.raises(ValueError):
                reference_flag_flip(sp, {flag.name: ready}, flag.name, ready, click)
            with pytest.raises(ValueError):
                hb.flag_flip(sp, {flag.name: ready}, flag.name, ready, click)


class TestKetValidation:
    def test_amplitudes_are_immutable(self):
        sp = hb.space(("a", ["x", "y"]))
        k = hb.basis_state(sp, "x")
        with pytest.raises(ValueError):
            k.amplitudes[0] = 0.0

    def test_marginal_probability(self):
        sp = pair_space()
        state = hb.from_amplitudes(sp, {("1'", "2''"): 1 / SQ2, ("1''", "2''"): 1 / SQ2})
        positron = hb.Operator.projector(sp, {"positron": "2''"})
        electron = hb.Operator.projector(sp, {"electron": "1'"})
        assert tsvf.born_probability(state, positron) == pytest.approx(1.0)
        assert tsvf.born_probability(state, electron) == pytest.approx(0.5)
