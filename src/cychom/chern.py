"""Chern characters of idempotents and invertibles, with trace pairings.

Both characters are built one way (Loday, Cyclic Homology, 8.3).  The
class's own tensor, an idempotent e in degree 0 or u^-1 (x) u for an
invertible u in degree 1, is a cycle of the (b, B) total complex of its
carrier: the subalgebra of the N x N matrices that the unit and the
tensor's factors generate (algebra.subalgebra_closure), so every
idempotent and every invertible has one, whatever the order of u.  That
cycle is raised q times, keeping its image under S, and then each carrier
basis element, an N x N matrix over the algebra, is put in place of each
tensor factor and the matrix indices are collapsed by the generalized
trace.  The chains live on the layout of the (b, B) total chains,
cyclic.CyclicComplexWindow.  The substitution and the trace are the one
chain-map builder of hochschild, _tensor_chain_matrix, applied to each
Hochschild component of the carrier cycle; it maps only that component's
own coordinates.  Carrier and target share one field.  The push runs on
cleared ints (linalg.cleared): each carrier basis element's matrix is
cleared once, the words' weights are divided by their letters'
denominators and cleared by one D, and the image, D times the character,
is divided by D once at the end (linalg.divided).  Every produced chain is
checked to be a cycle, b x_m + B x_(m-2) = 0 in each tensor degree m, on
ints too: the pushed chain before that division, the carrier's chains
cleared.  b and B are applied term by term to the chain's own words and
added up in native arithmetic over Q (linalg.combination).  So the only
boundary matrices built are the carrier's b_(n+2), which each raise
solves against; the target window builds none.
"""

from dataclasses import dataclass
from fractions import Fraction
from functools import reduce
from itertools import product
from math import prod

from .algebra import FDAlgebra, _normalize_vec, _unflatten, matrix_algebra, \
    subalgebra_closure
from .cyclic import CyclicComplexWindow, cyclic_complex, operator_B, \
    operator_S
from .errors import (
    AmbientMismatch,
    NotIdempotent,
    NotInvertible,
    ValidationError,
    check_int,
)
from .hochschild import _require_degree, _tensor_chain_matrix
from .linalg import cleared, divided, vec_add, vec_equal
from .scalars import Cyclotomic


# ---------------------------------------------------------------------------
# chains in the total complex


@dataclass
class CyclicChain:
    """A total-degree homogeneous chain of the (b, B) total complex, in a
    degree of its window and in that degree's coordinates."""

    window: CyclicComplexWindow
    degree: int
    chain: dict

    def __post_init__(self):
        _require_degree(self.window, self.degree)
        if any(not 0 <= i < self.window.dims[self.degree] for i in self.chain):
            raise AmbientMismatch("degree %d has coordinates 0..%d" % (
                self.degree, self.window.dims[self.degree] - 1))

    def component(self, m: int) -> dict:
        """The piece sitting in tensor degree m, in bar-window coordinates."""
        if (self.degree - m) % 2 or not 0 <= m <= self.degree:
            raise ValidationError(
                "degree-%d chains have no tensor degree %d part"
                % (self.degree, m))
        return self.window.component(self.degree, self.chain,
                                     (self.degree - m) // 2)

    def s(self) -> "CyclicChain":
        return CyclicChain(self.window, self.degree - 2,
                           operator_S(self.window, self.degree, self.chain))

    def is_cycle(self) -> bool:
        """Whether b x_m + B x_(m-2) = 0 for each tensor degree m > 0, x_m
        the component in tensor degree m, read on the chain cleared to ints
        (linalg.cleared), which leaves the answer as it is.  b and B are
        applied to the chain's own words; no boundary matrix is built."""
        hoch, field = self.window.hochschild_window, self.window.field
        ints = cleared(self.chain, field)[1]
        x = {m: self.window.component(self.degree, ints, k)
             for k, (m, _) in enumerate(self.window.summands(self.degree))}
        for m in filter(None, x):
            B = operator_B(hoch, m - 2, x[m - 2]) if m > 1 else {}
            if vec_add(hoch._boundary(m, x[m]), B, field):
                return False
        return True

    def equals(self, other: "CyclicChain") -> bool:
        return (self.degree == other.degree
                and vec_equal(self.chain, other.chain, self.window.field))


def _require_cycle(ch: CyclicChain, what: str) -> CyclicChain:
    if not ch.is_cycle():
        raise ValidationError("%s is not a cycle at degree %d"
                              % (what, ch.degree))
    return ch


def _extend_cycle(ch: CyclicChain) -> CyclicChain:
    """Raise the total degree by two, keeping the image under S equal to ch.

    The new top component solves b(top) = -B(previous top); the solver's
    echelon preimage (free variables zero) makes the choice canonical.
    Below it sits ch itself, shifted up by the top's width (the layout of
    CyclicComplexWindow).
    """
    window = ch.window
    n = ch.degree
    hoch = window.hochschild_window
    field = window.field
    rhs = operator_B(hoch, n, window.component(n, ch.chain, 0))
    negated = {i: field.neg(c) for i, c in rhs.items()}
    top = hoch.boundaries[n + 2].solve(negated)
    if top is None:
        raise ValidationError(
            "no chain-level extension exists at degree %d" % (n + 2))
    out = window.include_component(n + 2, top, 0)
    cut = hoch.dims[n + 2]
    out.update({i + cut: c for i, c in ch.chain.items()})
    return _require_cycle(CyclicChain(window, n + 2, out), "extension")


# ---------------------------------------------------------------------------
# K-class representatives


@dataclass
class KClassRep:
    """An N x N idempotent or invertible matrix over an algebra.

    flat is the matrix as an element of matrices, the N x N matrices over
    the algebra.  Invertibles carry their two-sided inverse.
    """

    kind: str
    algebra: FDAlgebra
    size: int
    matrices: FDAlgebra
    flat: dict
    inverse_flat: dict | None = None


def _normalize_entries(A: FDAlgebra, matrix) -> tuple:
    N = len(matrix)
    rows = []
    for row in matrix:
        if len(row) != N:
            raise ValidationError("matrix must be square")
        rows.append(tuple(_normalize_vec(dict(entry), A) for entry in row))
    return tuple(rows)


def _flatten(A: FDAlgebra, entries, N: int) -> dict:
    out = {}
    for p in range(N):
        for q in range(N):
            for i, c in entries[p][q].items():
                out[(p * N + q) * A.dim + i] = c
    return out


def idempotent_rep(A: FDAlgebra, matrix) -> KClassRep:
    """Validate a square matrix over A as an exact idempotent."""
    entries = _normalize_entries(A, matrix)
    N = len(entries)
    M = matrix_algebra(A, N)
    flat = _flatten(A, entries, N)
    if not vec_equal(M.multiply(flat, flat), flat, A.field):
        raise NotIdempotent("the matrix does not square to itself")
    return KClassRep("idempotent", A, N, M, flat)


def invertible_rep(A: FDAlgebra, matrix) -> KClassRep:
    """Validate a square matrix u over A as invertible, with its inverse.

    The inverse is solved for, as the v with u v = 1: in a
    finite-dimensional unital algebra that makes x -> u x onto, hence one
    to one, and u (v u) = u gives v u = 1, so v is two-sided.
    """
    entries = _normalize_entries(A, matrix)
    N = len(entries)
    M = matrix_algebra(A, N)
    flat = _flatten(A, entries, N)
    inv = M.left_mult_matrix(flat).solve(M.unit)
    if inv is None:
        raise NotInvertible("no right inverse exists")
    return KClassRep("invertible", A, N, M, flat, inverse_flat=inv)


# ---------------------------------------------------------------------------
# the characters


@dataclass
class ChernClass:
    """A character chain in the total complex of the coefficient algebra."""

    kind: str
    algebra: FDAlgebra
    q: int
    rep: KClassRep
    chain: CyclicChain

    @property
    def degree(self) -> int:
        return self.chain.degree

    def component(self, m: int) -> dict:
        return self.chain.component(m)

    def degree_zero_part(self) -> dict:
        if self.degree % 2:
            raise ValidationError("odd classes have no degree-zero part")
        return self.chain.component(0)

    def s(self) -> "ChernClass":
        return ChernClass(self.kind, self.algebra, self.q - 1, self.rep,
                          self.chain.s())


def _character(rep: KClassRep, q: int, seed: tuple) -> ChernClass:
    """Raise the seed q times over its carrier, then put each carrier basis
    element's N x N matrix in place of it and take the generalized trace.

    seed holds the class's tensor factors as elements of rep.matrices; the
    carrier is the subalgebra they and the unit generate, and the seed
    tensor, read in the carrier's basis, is a cycle in Hochschild degree
    len(seed) - 1.  The q-fold image of the raised cycle under S is
    exactly that seed.
    """
    M, field = rep.matrices, rep.algebra.field
    carrier, include = subalgebra_closure(M, [M.unit, *seed])
    start = len(seed) - 1
    degree = start + 2 * q
    # nothing below reads a degree above the character's
    window = cyclic_complex(carrier, degree, normalized=False)
    hoch = window.hochschild_window
    coords = [include.matrix.solve(x).items() for x in seed]
    ch = _require_cycle(CyclicChain(window, start, {
        hoch.index_of(start, tuple(k for k, _ in word)):
            reduce(field.mul, (c for _, c in word))
        for word in product(*coords)}), "seed")
    for _ in range(q):
        ch = _extend_cycle(ch)
    # D_b times carrier basis element b is the int matrix mats[b], so the
    # word (b_0, .., b_m) with weight c pushes through the mats to
    # D_(b_0) .. D_(b_m) times its image; the weights c / (D_(b_0) ..
    # D_(b_m)) are cleared to ints by one D
    dens, ints = zip(*[cleared(col, field)
                       for col in include.matrix.columns()])
    mats = [_unflatten(rep.algebra, w, rep.size) for w in ints]
    summands = window.summands(degree)
    den, weights = cleared({
        off + i: field.scale(c, Fraction(1, prod(
            dens[b] for b in hoch.tuple_of(m, i))))
        for k, (m, off) in enumerate(summands)
        for i, c in window.component(degree, ch.chain, k).items()}, field)
    tgt = cyclic_complex(rep.algebra, degree, normalized=False)
    out = {}
    for k, (m, _) in enumerate(summands):
        traced = _tensor_chain_matrix(
            hoch, tgt.hochschild_window, m, mats, mats,
            window.component(degree, weights, k))
        out.update(tgt.include_component(degree, traced, k))
    # out, D times the character, is a cycle exactly when the character is
    _require_cycle(CyclicChain(tgt, degree, out), "%s character" % rep.kind)
    return ChernClass(rep.kind, rep.algebra, q, rep,
                      CyclicChain(tgt, degree, divided(out, den, field)))


def chern_idempotent(rep: KClassRep, q: int) -> ChernClass:
    """The even character of an idempotent e, as a degree-2q cycle raised
    from e itself."""
    if rep.kind != "idempotent":
        raise ValidationError("expected an idempotent representative")
    check_int(q, "the even character's q", 0)
    return _character(rep, q, (rep.flat,))


def chern_invertible(rep: KClassRep, q: int) -> ChernClass:
    """The odd character of an invertible u, as a degree-(2q+1) cycle
    raised from u^-1 (x) u.

    The carrier is the subalgebra that u and u^-1 generate, a quotient of
    the Laurent polynomials in u, so u need not have finite order.
    """
    if rep.kind != "invertible":
        raise ValidationError("expected an invertible representative")
    check_int(q, "the odd character's q", 0)
    return _character(rep, q, (rep.inverse_flat, rep.flat))


# ---------------------------------------------------------------------------
# trace pairings


def pair_with_trace(ch: ChernClass, tau: dict):
    """Evaluate a trace functional on the degree-zero part of a character.

    tau is a sparse vector of the trace's values on the basis of the
    character's algebra.  The value is a Cyclotomic in every field, so it
    compares equal to ints and Fractions.
    """
    vec = ch.degree_zero_part()
    field = ch.algebra.field
    tau = _normalize_vec(tau, ch.algebra)
    total = field.zero
    for i, c in vec.items():
        t = tau.get(i)
        if t is not None:
            total = field.add(total, field.mul(t, c))
    return Cyclotomic.from_raw(total, field.order)
