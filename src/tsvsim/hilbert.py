"""Finite-dimensional labeled Hilbert spaces: kets, operators, projectors, and
Schmidt decomposition.

States live on a product of named factors (particle paths, detector flags,
pointer bins, ...). Every factor carries a label table, so basis states are
addressed by label tuples such as ``("1''", "2'", "READY1")`` instead of raw
indices. Kets are dense amplitude vectors. A label projector is a 0/1 mask
(Diagonal), a detector flip or collision an index permutation (Permutation), a
splitter a small matrix on its target factors (apply_to_factors); only general
matrices are dense d x d arrays (Operator). Operators have no arithmetic: a
sum of scaled projectors is built as one Diagonal from their diagonals.

All values are immutable after construction and safe to share between threads.
The public Ket, Operator and Diagonal constructors each hold a read-only
C-order copy of their input; a ket the library computes (unit, from_amplitudes,
apply, apply_to_factors, and tsvf's and pointer's results) keeps the array it
just computed, frozen in place, and copies only one that is not C-order complex.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from math import prod
from operator import getitem
from sys import float_info
from typing import Iterable, Mapping, Sequence

import numpy as np

from .errors import DimensionMismatch, InvalidBipartition, InvalidNames, ZeroProbabilityBranch

ATOL_PROJECTOR = 1e-12
SCHMIDT_TOL = 1e-8  # singular values above this count toward the Schmidt rank

# Fixed 50/50 convention: symmetric beam splitter / Stern-Gerlach splitter,
# (1/sqrt2)[[1, i], [i, 1]] on a 2-dim factor. Scenario builders that need
# real equal-amplitude splits absorb the i phases (see SPLIT_REAL).
BS_SYMMETRIC = np.array([[1.0, 1.0j], [1.0j, 1.0]], dtype=complex) / np.sqrt(2.0)

# Phase-absorbed variant: splits a source mode into two equal real amplitudes
# and is its own inverse, which keeps time-reversal checks transparent.
SPLIT_REAL = np.array([[1.0, 1.0], [1.0, -1.0]], dtype=complex) / np.sqrt(2.0)
BS_SYMMETRIC.flags.writeable = SPLIT_REAL.flags.writeable = False


@dataclass(frozen=True)
class Factor:
    """One tensor factor: a name plus its ordered basis label table."""

    name: str
    labels: tuple[str, ...]
    _index: dict[str, int] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if not self.labels:
            raise InvalidNames(f"factor {self.name!r} has no labels")
        index = {lab: i for i, lab in enumerate(self.labels)}
        if len(index) != len(self.labels):
            raise InvalidNames(f"factor {self.name!r} has duplicate labels")
        object.__setattr__(self, "_index", index)

    @property
    def dim(self) -> int:
        return len(self.labels)

    def index(self, label: str) -> int:
        try:
            return self._index[label]
        except KeyError:
            raise KeyError(f"unknown label {label!r} in factor {self.name!r}") from None


class Space:
    """Ordered product of factors. Basis index = C-order flattening of factor indices."""

    def __init__(self, factors: Iterable[Factor]):
        self.factors: tuple[Factor, ...] = tuple(factors)
        if not self.factors:
            raise InvalidNames("space needs at least one factor")
        names = [f.name for f in self.factors]
        if len(set(names)) != len(names):
            raise InvalidNames(f"duplicate factor names: {names}")
        self.dims: tuple[int, ...] = tuple(f.dim for f in self.factors)
        self.dim: int = prod(self.dims)
        self._by_name = {f.name: i for i, f in enumerate(self.factors)}
        # {label: index * stride} per factor, so that a flat index is one sum;
        # the last factor's stride is 1 and its table is its own index
        stride, offsets = 1, []
        for f in reversed(self.factors):
            offsets.append({lab: i * stride for lab, i in f._index.items()}
                           if stride > 1 else f._index)
            stride *= f.dim
        self._offsets: tuple[dict[str, int], ...] = tuple(offsets[::-1])

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Space) and self.factors == other.factors

    def __hash__(self) -> int:
        return hash(self.factors)

    def __repr__(self) -> str:
        inner = ", ".join(f"{f.name}[{f.dim}]" for f in self.factors)
        return f"Space({inner})"

    def factor_index(self, name: str) -> int:
        try:
            return self._by_name[name]
        except KeyError:
            raise KeyError(f"no factor named {name!r} in {self!r}") from None

    def factor(self, name: str) -> Factor:
        return self.factors[self.factor_index(name)]

    def index_of(self, labels: Sequence[str]) -> int:
        """Flat basis index of the joint basis state given one label per factor."""
        if len(labels) != len(self.factors):
            raise DimensionMismatch(
                f"expected {len(self.factors)} labels, got {len(labels)}"
            )
        try:
            return sum(map(getitem, self._offsets, labels))
        except KeyError:
            for f, lab in zip(self.factors, labels):
                f.index(lab)  # raises the unknown-label KeyError
            raise


def space(*factors: tuple[str, Sequence[str]]) -> Space:
    """Shorthand: space(("photon", ["L_u", "L_d"]), ("det", ["READY", "CLICK"]))."""
    return Space(Factor(name, tuple(labels)) for name, labels in factors)


def _frozen(space: Space, values, dtype, what: str, ndim: int = 1,
            copy: bool = True) -> np.ndarray:
    """A read-only C-order copy of values as dtype (None keeps their own),
    checked to be space.dim long on each of its ndim axes. With copy=False
    an array that already is C-order of that dtype is frozen in place."""
    arr = (np.array if copy else np.asarray)(values, dtype, order="C")
    if arr.shape != (space.dim,) * ndim:
        raise DimensionMismatch(f"{what} shape {arr.shape} does not match space dim {space.dim}")
    arr.flags.writeable = False
    return arr


def dot(a: np.ndarray, b: np.ndarray) -> complex:
    """sum conj(a_i) b_i, as one np.vdot: every inner product, weak-value
    numerator and pointer mean is this reduction."""
    return complex(np.vdot(a, b))


def norm(amps: np.ndarray) -> float:
    """The l2 norm of a 1-D complex array, with np.linalg.norm's arithmetic
    (one dot on each of the real and imaginary views) and its bits, without
    its Python dispatch."""
    re, im = amps.real, amps.imag
    return math.sqrt(re.dot(re) + im.dot(im))


def squared_norm(amps: np.ndarray) -> float:
    """sum |a|^2 over an amplitude array, as one dot. Some BLAS kernels
    fold inf * 0 into that sum and return NaN for an infinite entry; such an
    array reads inf here, so NaN means a NaN entry."""
    norm_sq = dot(amps, amps).real
    if norm_sq != norm_sq and not np.isnan(amps).any():
        return math.inf
    return norm_sq


def usable(amps: np.ndarray, doing: str) -> np.ndarray:
    """amps as a normalization or a Born draw reads them: a nonzero complex
    amps of subnormal squared norm is first scaled by the exact power of two
    that brings its largest modulus into [0.5, 1), by np.ldexp, since
    2.0 ** 1074 overflows. A squared norm of 0, NaN or inf is refused with
    ZeroProbabilityBranch, naming what the caller was doing."""
    norm_sq = squared_norm(amps)
    if norm_sq < float_info.min and (big := float(np.abs(amps).max())) > 0:
        amps = np.ldexp(amps.view(float), -math.frexp(big)[1]).view(complex)
        norm_sq = squared_norm(amps)
    if not 0 < norm_sq < math.inf:  # NaN fails too
        raise ZeroProbabilityBranch(f"cannot {doing} a ket of squared norm {norm_sq!r}")
    return amps


def require_finite(amps: np.ndarray, doing: str) -> np.ndarray:
    """amps, refused with ZeroProbabilityBranch, naming what the caller was
    doing, when their squared norm is NaN or inf, before an operator acting on
    them can make inf * 0; the zero ket is allowed."""
    norm_sq = squared_norm(amps)
    if not norm_sq < math.inf:  # NaN fails too
        raise ZeroProbabilityBranch(f"cannot {doing} a ket of squared norm {norm_sq!r}")
    return amps


class Ket:
    """Dense complex amplitude vector over a labeled product basis, of any
    norm; callers that need unit norm check it (TwoStateVector) or make it
    (unit)."""

    __slots__ = ("space", "amplitudes")

    def __init__(self, space: Space, amplitudes: np.ndarray | Sequence[complex]):
        self.space = space
        self.amplitudes = _frozen(space, amplitudes, complex, "amplitude vector")

    @classmethod
    def _owning(cls, space: Space, amplitudes: np.ndarray) -> "Ket":
        """A Ket that takes over amplitudes, an array its caller has just
        computed and keeps no other reference to: frozen in place, copied
        only when it is not C-order complex. hilbert, tsvf and pointer make
        their results here; the constructor copies."""
        k = cls.__new__(cls)
        k.space = space
        k.amplitudes = _frozen(space, amplitudes, complex, "amplitude vector", copy=False)
        return k

    def norm(self) -> float:
        return norm(self.amplitudes)

    def unit(self) -> "Ket":
        """Return the normalized copy of this ket, made from its usable
        amplitudes: a zero, NaN or infinite squared norm raises
        ZeroProbabilityBranch before the norm can overflow."""
        amps = usable(self.amplitudes, "normalize")
        return Ket._owning(self.space, amps / norm(amps))

    def amplitude(self, labels: Sequence[str]) -> complex:
        return complex(self.amplitudes[self.space.index_of(labels)])

    def probability(self, labels: Sequence[str]) -> float:
        return abs(self.amplitude(labels)) ** 2

    def as_tensor(self) -> np.ndarray:
        return self.amplitudes.reshape(self.space.dims)

    def __repr__(self) -> str:
        return f"Ket({self.space!r}, norm={self.norm():.6f})"


def basis_state(sp: Space, *labels: str) -> Ket:
    """Basis ket |labels...> with amplitude 1."""
    return from_amplitudes(sp, {labels: 1.0})


def from_amplitudes(sp: Space, entries: Mapping[Sequence[str], complex]
                    | Iterable[tuple[Sequence[str], complex]]) -> Ket:
    """Build a ket from a {label tuple: amplitude} mapping or an iterable of
    (label tuple, amplitude) pairs, each stored at its index_of in one pass,
    so a repeated label tuple keeps its last amplitude and the first bad label
    tuple raises index_of's error; unlisted entries are 0."""
    amps = np.zeros(sp.dim, dtype=complex)
    for labels, amp in entries.items() if isinstance(entries, Mapping) else entries:
        amps[sp.index_of(labels)] = amp
    return Ket._owning(sp, amps)


def inner(bra: Ket, ket: Ket) -> complex:
    """<bra|ket>, conjugate-linear in the first argument."""
    if bra.space != ket.space:
        raise DimensionMismatch("inner product between different spaces")
    return dot(bra.amplitudes, ket.amplitudes)


class OperatorForm:
    """Shared by Operator, Diagonal and Permutation: the `space` acted on, a
    dense `matrix` built on request, `act(t)`, which applies the operator
    along axis 0 of an amplitude array, and `is_projector()`.
    """

    __slots__ = ("space", "__weakref__")  # pointer's weak-keyed levels memo

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self.space!r})"


class Operator(OperatorForm):
    """Dense complex square matrix, for matrices without structure to exploit
    (ket projectors, user matrices, observables). Label projectors, the
    identity projector(sp, {}) among them, are Diagonal. The free-form `tag`
    is kept for perfbench's tracer, which passes it on; tsvsim never sets it."""

    __slots__ = ("matrix", "tag")

    def __init__(self, space: Space, matrix: np.ndarray, tag: str = ""):
        self.space = space
        self.matrix = _frozen(space, matrix, complex, "matrix", ndim=2)
        self.tag = tag

    # construction helpers ------------------------------------------------

    @staticmethod
    def projector(sp: Space, constraints: Mapping[str, str | Sequence[str]]) -> "Diagonal":
        """Diagonal projector onto basis states whose labels satisfy the constraints.

        constraints maps factor name -> label (or collection of allowed labels);
        unconstrained factors are untouched. The result holds the 0/1 mask.
        """
        mask = np.ones(sp.dims, dtype=bool)
        for name, allowed in constraints.items():
            f = sp.factor(name)
            if isinstance(allowed, str):
                allowed = [allowed]
            sel = np.zeros(f.dim, dtype=bool)
            for lab in allowed:
                sel[f.index(lab)] = True
            shape = [1] * len(sp.dims)
            shape[sp.factor_index(name)] = f.dim
            mask &= sel.reshape(shape)
        return Diagonal(sp, mask.reshape(sp.dim).astype(float))

    @classmethod
    def ket_projector(cls, k: Ket) -> "Operator":
        """|k><k| (k should be normalized for a true projector)."""
        v = k.amplitudes
        return cls(k.space, np.outer(v, v.conj()))

    # queries --------------------------------------------------------------

    def act(self, t: np.ndarray) -> np.ndarray:
        return self.matrix @ t

    def is_projector(self) -> bool:
        """Hermitian and idempotent, to ATOL_PROJECTOR."""
        m = self.matrix
        return bool(np.max(np.abs(m - m.conj().T)) <= ATOL_PROJECTOR
                    and np.max(np.abs(m @ m - m)) <= ATOL_PROJECTOR)


class Diagonal(OperatorForm):
    """Operator diagonal in the product basis, stored as its diagonal: the 0/1
    mask of a label projector, or a sum of scaled projectors (.scn observables).
    A boolean mask is stored as 0.0/1.0 floats; a non-numeric diagonal is refused."""

    __slots__ = ("diagonal",)

    def __init__(self, space: Space, diagonal: np.ndarray):
        arr = np.asarray(diagonal)
        if arr.dtype.kind not in "biufc":
            raise ValueError(f"diagonal dtype {arr.dtype} is not numeric")
        self.space = space
        self.diagonal = _frozen(space, arr, float if arr.dtype.kind == "b" else None,
                                "diagonal")

    @property
    def matrix(self) -> np.ndarray:
        return np.diag(self.diagonal.astype(complex))

    def act(self, t: np.ndarray) -> np.ndarray:
        # + 0.0 turns -0.0 into +0.0, as the sums of a dense product do, so
        # results match the dense matrix bit for bit
        return self.diagonal.reshape((-1,) + (1,) * (t.ndim - 1)) * t + 0.0

    def is_projector(self) -> bool:
        """Hermitian and idempotent: every entry real and 0 or 1, to ATOL_PROJECTOR."""
        d = self.diagonal
        return bool(np.max(np.abs(d - d.conj())) <= ATOL_PROJECTOR
                    and np.max(np.abs(d * d - d)) <= ATOL_PROJECTOR)


class Permutation(OperatorForm):
    """Basis map stored as an index array, (P t)[i] = t[index[i]]; the array is
    checked to be an integer bijection, so the map is exactly unitary."""

    __slots__ = ("index",)

    def __init__(self, space: Space, index: np.ndarray):
        idx = np.array(index)
        hit = np.zeros(space.dim, dtype=bool)  # a bijection hits every state
        if (idx.dtype.kind in "iu" and idx.shape == (space.dim,)
                and idx.min() >= 0 and idx.max() < space.dim):
            idx = idx.astype(np.intp, copy=False)
            hit[idx] = True
        if not hit.all():
            raise ValueError(f"index array is not a permutation of {space.dim} states")
        idx.flags.writeable = False
        self.space = space
        self.index = idx

    @property
    def matrix(self) -> np.ndarray:
        mat = np.zeros((self.space.dim, self.space.dim), dtype=complex)
        mat[np.arange(self.space.dim), self.index] = 1.0
        return mat

    def act(self, t: np.ndarray) -> np.ndarray:
        return t[self.index] + 0.0  # +0.0 as in Diagonal.act

    def is_projector(self) -> bool:
        """Only the identity map: no other permutation is idempotent."""
        return bool(np.array_equal(self.index, np.arange(self.space.dim)))


def apply(op: OperatorForm, k: Ket) -> Ket:
    """op|k>. Spaces must match exactly."""
    if op.space != k.space:
        raise DimensionMismatch("operator and ket live on different spaces")
    return Ket._owning(k.space, op.act(k.amplitudes))


def _unfold(k: Ket, axes: list[int]) -> tuple[np.ndarray, list[int]]:
    """k's amplitudes as a matrix, rows over the given axes in their order and
    columns over the rest in space order, plus that axis order."""
    dims = k.space.dims
    order = axes + [i for i in range(len(dims)) if i not in axes]
    t = np.transpose(k.as_tensor(), order)
    return t.reshape(prod(dims[a] for a in axes), -1), order


def apply_to_factors(k: Ket, matrix: np.ndarray, factor_names: Sequence[str]) -> Ket:
    """Apply a small unitary/matrix to a subset of factors, identity elsewhere.

    The matrix is indexed in the order of factor_names (C-order flattening of
    those factors' label indices). This avoids building full-space matrices.
    """
    sp = k.space
    axes = [sp.factor_index(n) for n in factor_names]
    if len(set(axes)) != len(axes):
        raise InvalidNames("target factors must be distinct")
    mat = np.asarray(matrix, dtype=complex)
    t, order = _unfold(k, axes)
    if mat.shape != (len(t), len(t)):
        raise DimensionMismatch(f"matrix shape {mat.shape} does not match target dims {len(t)}")
    t = (mat @ t).reshape([sp.dims[a] for a in order])
    return Ket._owning(sp, np.transpose(t, np.argsort(order)).reshape(sp.dim))


# ---------------------------------------------------------------------------
# Schmidt decomposition


def schmidt_rank(k: Ket, left: Sequence[str]) -> tuple[int, np.ndarray]:
    """Schmidt rank and coefficients of k across the cut between the named
    factors and the rest.

    Returns (rank, coefficients): the number of singular values above
    SCHMIDT_TOL and the full descending singular-value list of the reshaped
    amplitude matrix.
    For a normalized ket the squared coefficients sum to 1. A name given
    twice, or a side left with no factor, raises InvalidBipartition.
    """
    dims = k.space.dims
    axes = sorted(k.space.factor_index(n) for n in left)
    if len(set(axes)) != len(axes):
        raise InvalidBipartition(f"factor named twice in the cut {list(left)}")
    if not 0 < len(axes) < len(dims):
        raise InvalidBipartition("both sides of a bipartition must be non-empty")
    coeffs = np.linalg.svd(_unfold(k, axes)[0], compute_uv=False)
    rank = int(np.sum(coeffs > SCHMIDT_TOL))
    return rank, coeffs


# ---------------------------------------------------------------------------
# Gate library. Everything returned here is unitary.


def is_unitary(matrix: np.ndarray | Sequence[Sequence[complex]], tol: float) -> bool:
    """Whether matrix is a non-empty square 2-D matrix U with U U+ the
    identity to tol in every entry."""
    try:
        u = np.asarray(matrix, dtype=complex)
    except (TypeError, ValueError):  # ragged rows, or entries that are not numbers
        return False
    if u.ndim != 2 or u.shape[0] != u.shape[1] or not u.size:
        return False
    return bool(np.max(np.abs(u @ u.conj().T - np.eye(len(u)))) <= tol)


def mode_coupler(factor: Factor, in_pair: tuple[str, str], out_pair: tuple[str, str],
                 block: np.ndarray | None = None) -> np.ndarray:
    """Unitary on one factor coupling two input modes to two output modes.

    With in_pair == out_pair this embeds the 2x2 block on those modes. With
    disjoint pairs it builds the block-antidiagonal unitary [[0, B+], [B, 0]]:
    a second application routes the output modes back through the inverse, so
    round trips through an untouched splitter recombine exactly. A pair that
    names one mode twice is refused: it leaves no two modes for the block, and
    so is a block that is not a 2x2 unitary to 1e-12 (the default is one).
    """
    if in_pair[0] == in_pair[1] or out_pair[0] == out_pair[1]:
        raise InvalidNames("each mode pair must name two distinct modes")
    b = BS_SYMMETRIC if block is None else np.asarray(block, dtype=complex)
    if block is not None and not (b.shape == (2, 2) and is_unitary(b, 1e-12)):
        raise ValueError("block is not a 2x2 unitary to 1e-12")
    ins = [factor.index(x) for x in in_pair]
    outs = [factor.index(x) for x in out_pair]
    if set(ins) == set(outs):
        if ins != outs:
            raise InvalidNames("in/out pairs overlap but are not identical")
    elif set(ins) & set(outs):
        raise InvalidNames("in/out pairs must be identical or disjoint")
    disjoint = ins != outs
    u = np.eye(factor.dim, dtype=complex)
    if disjoint:
        for m in ins + outs:
            u[m, m] = 0.0
    # scalar stores of Python complexes: np.ix_ assignments took longer than the whole build
    for o, row in zip(outs, b.tolist()):
        for i, x in zip(ins, row):
            u[o, i] = x
            if disjoint:  # B+ in the mirrored block
                u[i, o] = x.conjugate()
    return u


def _exchange(sp: Space, src: Mapping[int, int], dst: Mapping[int, int]) -> np.ndarray:
    """Index array of the map exchanging the basis states whose axes carry the
    src label indices with those carrying the dst ones, every other axis
    carried through."""
    index = np.arange(sp.dim).reshape(sp.dims)
    at_src = tuple(src.get(a, slice(None)) for a in range(len(sp.dims)))
    at_dst = tuple(dst.get(a, slice(None)) for a in range(len(sp.dims)))
    index[at_src], index[at_dst] = index[at_dst].copy(), index[at_src].copy()
    return index.reshape(sp.dim)


def flag_flip(sp: Space, condition: Mapping[str, str], flag_factor: str,
              ready: str, click: str) -> Permutation:
    """Permutation toggling a flag factor on basis states matching condition,
    one label per conditioned factor; the condition may not name the flag.

    Models detectors and annihilation events as norm-preserving basis maps:
    |paths, READY> <-> |paths, CLICK> exactly on the triggering path states.
    """
    return label_swap(sp, [*condition, flag_factor], [*condition.values(), ready],
                      [*condition.values(), click])


def label_swap(sp: Space, factor_names: Sequence[str],
               src: Sequence[str], dst: Sequence[str]) -> Permutation:
    """Transposition of two joint label assignments on the given factors.

    Entries in src/dst may be "*" to mean "any label, carried through"; the
    wildcard positions must agree between src and dst. All other factors are
    untouched. The result is a permutation, hence exactly unitary.
    """
    if len(src) != len(factor_names) or len(dst) != len(factor_names):
        raise DimensionMismatch("src/dst must give one label per target factor")
    axes = [sp.factor_index(n) for n in factor_names]
    if len(set(axes)) != len(axes):
        raise InvalidNames("target factors must be distinct")
    fixed_src: dict[int, int] = {}
    fixed_dst: dict[int, int] = {}
    for ax, nm, s, d in zip(axes, factor_names, src, dst):
        f = sp.factor(nm)
        if s == "*" or d == "*":
            if s != d:
                raise InvalidNames("wildcard positions must match between src and dst")
        else:
            fixed_src[ax] = f.index(s)
            fixed_dst[ax] = f.index(d)
    return Permutation(sp, _exchange(sp, fixed_src, fixed_dst))
