"""Chern characters of idempotents and invertibles, with trace pairings.

The even character of an idempotent matrix starts from the canonical
degree-2q cycle over the scalars with a fresh unit adjoined (the old unit
surviving as an idempotent), pushes it through the unital substitution
sending that idempotent to the matrix, and collapses matrix indices with
the generalized trace.  The odd character of an invertible matrix plays
the same game over the group algebra of a finite cyclic group, seeded by
inverse-tensor-generator in degree one.  The chains live on the layout of
the (b, B) total chains, cyclic.CyclicComplexWindow.  The substitution and
the trace are the one chain-map builder of hochschild, _tensor_chain_matrix,
applied to each Hochschild component of the carrier cycle; it maps only
that component's own coordinates.  Every produced chain is checked to be
a cycle, b x_m + B x_(m-2) = 0 in each tensor degree m.
"""

from dataclasses import dataclass

from .algebra import FDAlgebra, _normalize_vec, _unflatten, matrix_algebra
from .cyclic import CyclicComplexWindow, cyclic_complex, operator_B, \
    operator_S
from .errors import (
    AmbientMismatch,
    NotIdempotent,
    NotInvertible,
    OrderUnbounded,
    ValidationError,
    check_int,
)
from .groups import cyclic_group, group_algebra
from .hochschild import _require_degree, _tensor_chain_matrix
from .linalg import cleared, vec_add, vec_equal
from .scalars import Cyclotomic

ORDER_SEARCH_LIMIT = 24


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
        (linalg.cleared), which leaves the answer as it is."""
        hoch, field = self.window.hochschild_window, self.window.field
        ints = cleared(self.chain, field)[1]
        x = {m: self.window.component(self.degree, ints, k)
             for k, (m, _) in enumerate(self.window.summands(self.degree))}
        for m in filter(None, x):
            B = operator_B(hoch, m - 2, x[m - 2]) if m > 1 else {}
            if vec_add(hoch.boundaries[m].mat_vec(x[m]), B, field):
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


def _adjoined_unit_scalars() -> FDAlgebra:
    # the ground field with a fresh unit; the old unit is the idempotent p
    mul = {(0, 0): {0: 1}, (0, 1): {1: 1}, (1, 0): {1: 1}, (1, 1): {1: 1}}
    return FDAlgebra(2, 1, mul, labels=["one", "p"], unit={0: 1},
                     name="scalars_plus").require_valid()


# ---------------------------------------------------------------------------
# K-class representatives


@dataclass
class KClassRep:
    """An N x N idempotent or invertible matrix over an algebra.

    entries[p][q] is a sparse vector over the base; flat is the same
    matrix as an element of the matrix algebra.  Invertibles carry their
    verified two-sided inverse.
    """

    kind: str
    algebra: FDAlgebra
    size: int
    matrices: FDAlgebra
    entries: tuple
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
    return KClassRep("idempotent", A, N, M, entries, flat)


def invertible_rep(A: FDAlgebra, matrix, inverse=None) -> KClassRep:
    """Validate a square matrix over A with an exact two-sided inverse."""
    entries = _normalize_entries(A, matrix)
    N = len(entries)
    M = matrix_algebra(A, N)
    flat = _flatten(A, entries, N)
    if inverse is not None:
        inv = _flatten(A, _normalize_entries(A, inverse), N)
    else:
        inv = M.left_mult_matrix(flat).solve(M.unit)
        if inv is None:
            raise NotInvertible("no right inverse exists")
    if not vec_equal(M.multiply(flat, inv), M.unit, A.field):
        raise NotInvertible("the stored inverse fails on the right")
    if not vec_equal(M.multiply(inv, flat), M.unit, A.field):
        raise NotInvertible("the stored inverse fails on the left")
    return KClassRep("invertible", A, N, M, entries, flat, inverse_flat=inv)


def multiplicative_order(rep: KClassRep, limit: int) -> int | None:
    """Smallest k >= 1 with rep^k = 1, or None past the limit."""
    M = rep.matrices
    power = rep.flat
    for k in range(1, limit + 1):
        if vec_equal(power, M.unit, M.field):
            return k
        power = M.multiply(power, rep.flat)
    return None


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


def _character(rep: KClassRep, q: int, carrier: FDAlgebra, seed: tuple,
               mats) -> ChernClass:
    """Seed a cycle over the carrier, raise it q times, then substitute
    mats[k] for carrier basis element k and take the generalized trace.

    The seed is the basis tensor seed in Hochschild degree len(seed) - 1;
    the q-fold image of the raised cycle under S is exactly that seed.
    """
    start = len(seed) - 1
    degree = start + 2 * q
    # nothing below reads a degree above the character's
    window = cyclic_complex(carrier, degree, normalized=False)
    hoch = window.hochschild_window
    ch = _require_cycle(CyclicChain(
        window, start, {hoch.index_of(start, seed): window.field.one}), "seed")
    for _ in range(q):
        ch = _extend_cycle(ch)
    tgt = cyclic_complex(rep.algebra, degree, normalized=False)
    out = {}
    for k, (m, _) in enumerate(window.summands(degree)):
        traced = _tensor_chain_matrix(
            hoch, tgt.hochschild_window, m, mats, mats,
            window.component(degree, ch.chain, k))
        out.update(tgt.include_component(degree, traced, k))
    pushed = CyclicChain(tgt, degree, out)
    return ChernClass(rep.kind, rep.algebra, q, rep,
                      _require_cycle(pushed, "%s character" % rep.kind))


def chern_idempotent(rep: KClassRep, q: int) -> ChernClass:
    """The even character of an idempotent, as a degree-2q cycle."""
    if rep.kind != "idempotent":
        raise ValidationError("expected an idempotent representative")
    check_int(q, "the even character's q", 0)
    # the seed is the old unit p; keeping it apart from the fresh unit is
    # what lets the non-unital evaluation p -> rep stay a chain map
    mats = [_unflatten(rep.algebra, rep.matrices.unit, rep.size), rep.entries]
    return _character(rep, q, _adjoined_unit_scalars(), (1,), mats)


def chern_invertible(rep: KClassRep, q: int) -> ChernClass:
    """The odd character of an invertible, as a degree-(2q+1) cycle.

    The carrier is the group algebra of the cyclic group whose order is
    the multiplicative order of the matrix; elements of unbounded order
    fall outside the finite carrier and are reported as such.
    """
    if rep.kind != "invertible":
        raise ValidationError("expected an invertible representative")
    check_int(q, "the odd character's q", 0)
    n = multiplicative_order(rep, ORDER_SEARCH_LIMIT)
    if n is None:
        raise OrderUnbounded(
            "no power up to %d returns to the identity; out of the finite "
            "carrier's range" % ORDER_SEARCH_LIMIT)
    powers = []
    flat = rep.matrices.unit
    for _ in range(n):
        powers.append(_unflatten(rep.algebra, flat, rep.size))
        flat = rep.matrices.multiply(flat, rep.flat)
    # the seed is inverse-tensor-generator, g^-1 (x) g
    return _character(rep, q, group_algebra(cyclic_group(n)),
                      (n - 1, 1) if n > 1 else (0, 0), powers)


# ---------------------------------------------------------------------------
# trace pairings


def pair_with_trace(x, tau: dict, algebra: FDAlgebra | None = None):
    """Evaluate a trace functional on a degree-zero class.

    Accepts a character with a degree-zero part or a plain sparse vector
    over the algebra (a degree-zero homology representative).  The value
    is a Cyclotomic in every field, so it compares equal to ints and
    Fractions.
    """
    if isinstance(x, ChernClass):
        vec = x.degree_zero_part()
        algebra = x.algebra
    else:
        if algebra is None:
            raise ValidationError("plain vectors need the algebra")
        vec = _normalize_vec(x, algebra)
    tau = _normalize_vec(tau, algebra)
    field = algebra.field
    total = field.zero
    for i, c in vec.items():
        t = tau.get(i)
        if t is not None:
            total = field.add(total, field.mul(t, c))
    return Cyclotomic.from_raw(total, field.order)
