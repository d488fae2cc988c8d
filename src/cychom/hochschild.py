"""Bar complexes and Hochschild homology.

Chain spaces are windows of tensor powers with sparse boundary matrices.
The normalized complex (interior slots taken modulo the unit) is the
default route for unital algebras; the unnormalized complex is the
reference implementation and the only route without a unit.  Which of the
two a window is, and how a chain index splits into slot 0 and an interior
word, gets decided in one place, its slot basis (_SlotData): every
boundary, operator and chain map reads that basis as tables.

A normalized window may also be relative to orthogonal idempotents
e_1 .. e_r summing to the unit, central or not.  Every slot-0 value and
interior code then lies in one Peirce piece e_i A e_j and carries the
state pair (i, j); a chain is a closed walk
e_(i_0) A e_(i_1) (x) e_(i_1) A e_(i_2) (x) .. (x) e_(i_n) A e_(i_0), and no
e_i enters an interior slot.  Central idempotents are the case of one
state per block, where the window is the direct sum of the blocks'
normalized complexes.  hh takes this route with the idempotents of
structure.split_idempotents, each a polynomial in one element e g e read
off its minimal polynomial.  Every other window has one state (r = 1):
bar_complex unless given blocks, the slot basis of cyclic's Connes
complex, induced maps, Morita maps, and the unnormalized and coefficient
complexes.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from collections import defaultdict
from dataclasses import dataclass
from functools import partial
from itertools import groupby
from math import lcm

from .config import check_chain_dims
from .errors import (
    NonUnital,
    NotMultiplicative,
    ValidationError,
    check_int,
)
from .linalg import (
    Homology,
    SparseMatrix,
    add_term,
    cleared,
    combination,
    divided,
    homology,
    induced_map,
    leading_columns,
    vec_axpy,
    vec_equal,
    vec_scale,
)
from .algebra import AlgebraMap, Bimodule, FDAlgebra, _action_of, \
    _normalize_vec, _unflatten, matrix_algebra
from .structure import split_idempotents


class _SlotData:
    """The slot basis of one window: the one place normalization is decided.

    Slot 0 runs over a basis f_0 .. f_(d-1) of the algebra: f_vectors holds
    it in the algebra's basis, e_to_f, the inverse of the matrix with
    columns f_vectors, turns algebra coordinates into f-coordinates and mulf
    multiplies in it.  Interior slots run over the f-indices in interior;
    code k stands for f_(interior[k]) and code maps an f-index to its code.
    imul[s][t] is the product of the codes s and t with its part outside
    the interior dropped.

    Every f-index carries a state pair, label[f] = (i, j), and units[i] is
    the idempotent of state i in f-coordinates.  Unnormalized windows keep
    the algebra's basis with the one state (0, 0), whose unit is the
    algebra's (None without one), and let every index into every slot.
    Normalized windows take orthogonal idempotents e_0 .. e_(r-1), central
    or not, that sum to the unit and rebase onto a Peirce basis: the pieces
    e_i A e_j in the order (0, 0), (0, 1), .., (r-1, r-1), each with the
    basis _pieces picks, except that in the piece (i, i) e_i comes first and
    replaces the lowest-indexed basis vector it involves; f-indices of piece
    (i, j) carry the label (i, j).  No e_i enters the interior: the
    window is the complex relative to E = span(e_i),
    A (x)_(E^e) (A/E)^((x)_E n), whose chains are the closed walks
    e_(i_0) A e_(i_1) (x) e_(i_1) A e_(i_2) (x) .. (x) e_(i_n) A e_(i_0).
    The one-idempotent list [unit] gives the ordinary normalized complex,
    on the algebra's basis with the unit in place of the lowest index it
    involves, and central idempotents give one state per block, with no
    piece between two blocks.  On a window with coefficients slot 0 runs
    over the bimodule's basis instead, slot0 of them, all with the state
    (0, 0) (such windows have one state).

    slot0 lists the slot-0 values as runs of one piece each, and pieces
    the piece of each run.

    The Peirce basis and mulf are computed on cleared vectors
    (linalg.cleared, v = w / D with w integral): _pieces multiplies by
    D_i e_i, and mulf[a][b] is the cleared inverse delta * e_to_f applied
    to the product of D_a f_a and D_b f_b.  Each result is divided once at
    the end (linalg.divided), by D_i D_j for a basis vector of the piece
    (i, j) and by delta D_a D_b for mulf[a][b].  Pivot choices do not change
    under nonzero scaling, so every value is that of the rational route;
    only the arithmetic runs on ints.  The one idempotent [unit] needs
    none of it: its basis, e_to_f and mulf are read off the table
    (_unit_basis).
    """

    def __init__(self, A: FDAlgebra, idempotents, slot0: int | None = None):
        field = A.field
        d = A.dim
        if idempotents is None:
            self.f_vectors = [{j: field.one} for j in range(d)]
            self.e_to_f = SparseMatrix.identity(d, field)
            self.mulf = A.mul
            self.units = [A.unit]
            self.label = [(0, 0)] * d
            self.interior = list(range(d))
        elif len(idempotents) == 1:
            self._unit_basis(A, idempotents[0])
        else:
            self._peirce(A, idempotents)
        self.code = {f: k for k, f in enumerate(self.interior)}
        self.interior_radix = len(self.interior)
        self.imul = [[{self.code[k]: c for k, c in self.mulf[a][b].items()
                       if k in self.code}
                      for b in self.interior] for a in self.interior]
        self.slot0_label = self.label if slot0 is None else [(0, 0)] * slot0
        self.slot0, self.pieces = [], []
        for piece, run in groupby(self.slot0_label):
            first = self.slot0[-1].stop if self.slot0 else 0
            self.slot0.append(range(first, first + len(list(run))))
            self.pieces.append(piece)
        self.group = [g for g, values in enumerate(self.slot0) for _ in values]
        # steps[i][j]: the codes of the piece (i, j), a run since the
        # pieces are listed in order
        self.code_label = [self.label[f] for f in self.interior]
        states = range(len(self.units))
        self.steps = [[range(bisect_left(self.code_label, (i, j)),
                             bisect_right(self.code_label, (i, j)))
                       for j in states] for i in states]
        self._tables = {}

    def _peirce(self, A: FDAlgebra, idempotents) -> None:
        field = A.field
        self.f_vectors, self.label = [], []
        self.units = [None] * len(idempotents)
        for i, j, basis in _pieces(A, idempotents):
            if i == j:
                # e_i replaces the lowest-indexed basis vector it involves
                e = idempotents[i]
                top = min(SparseMatrix.from_columns(basis, A.dim,
                                                    field).solve(e))
                self.units[i] = {len(self.f_vectors): field.one}
                basis = [dict(e)] + basis[:top] + basis[top + 1:]
            self.f_vectors += basis
            self.label += [(i, j)] * len(basis)
        self.e_to_f = SparseMatrix.from_columns(self.f_vectors, A.dim,
                                                field).inverse()
        firsts = {f for e in self.units for f in e}
        self.interior = [f for f in range(A.dim) if f not in firsts]
        fs = [cleared(f, field) for f in self.f_vectors]
        # a list, not a generator, so that the argument tuple is taken
        # from the free list of its length (see linalg._CycRows.prim)
        dens, rows = zip(*[cleared(row, field) for row in self.e_to_f.rows])
        delta = lcm(*dens)
        inverse = SparseMatrix(A.dim, A.dim, field, rows=[
            vec_scale(row, field.from_rational(delta // den), field)
            for den, row in zip(dens, rows)])
        # pieces (i, j) and (k, l) multiply to zero unless j == k
        self.mulf = [[divided(inverse.mat_vec(A.multiply(x, y)),
                              delta * dx * dy, field)
                      if a[1] == b[0] else {}
                      for (dy, y), b in zip(fs, self.label)]
                     for (dx, x), a in zip(fs, self.label)]

    def _unit_basis(self, A: FDAlgebra, unit: dict) -> None:
        """_peirce's answer for the one idempotent [unit], read off the
        table: the algebra's basis with the unit in place of x_top, top the
        lowest index the unit involves.  x = c_0 unit + the sum of c_k x_k
        over k != top has c_0 = x_top / u_top and c_k = x_k - u_k c_0, and
        mulf reads the table's products x_k x_l in these coordinates."""
        field, d = A.field, A.dim
        top = min(unit)
        scale = field.inv(unit[top])
        order = [top] + [k for k in range(d) if k != top]
        f_of = {k: f for f, k in enumerate(order)}
        # x_top = (unit - the sum of u_k x_k over k != top) / u_top
        column = {f_of[k]: field.neg(field.mul(u, scale))
                  for k, u in unit.items()}
        column[0] = scale
        self.e_to_f = SparseMatrix.from_columns(
            [divided(column, 1, field) if k == top else {f_of[k]: field.one}
             for k in range(d)], d, field)
        self.f_vectors = [dict(unit)] + [{k: field.one} for k in order[1:]]
        self.mulf = [[{b: field.one} if a == 0 else {a: field.one} if b == 0
                      else divided(self.e_to_f.mat_vec(
                          A.mul[order[a]][order[b]]), 1, field)
                      for b in range(d)] for a in range(d)]
        self.units, self.label = [{0: field.one}], [(0, 0)] * d
        self.interior = list(range(1, d))

    def dim(self, n: int) -> int:
        """The dimension of the degree-n chain space, from walk counts."""
        states = range(len(self.units))
        # walks[j][i] counts the walks of length n from j to i
        walks = [[int(i == j) for i in states] for j in states]
        for _ in range(n):
            walks = [[sum(row[t] * len(self.steps[t][i]) for t in states)
                      for i in states] for row in walks]
        return sum(len(values) * walks[j][i]
                   for values, (i, j) in zip(self.slot0, self.pieces))

    def ranks(self, n: int) -> dict:
        return self._table(n)[1]

    def blocks(self, n: int) -> list:
        """The chain layout.  A degree-n chain is a slot-0 value s and an
        interior word u, the tuple of interior codes c_1 .. c_n, that close
        up to a walk: if s lies in the piece (i, j), c_1 leaves j, each
        letter leaves the state the one before it enters, and c_n enters
        i.  blocks(n) pairs each run of slot-0 values of one piece (i, j)
        with its words, the walks of length n from j to i: the walks of
        length n - 1 from j to each state t in turn, each followed by every
        code of the piece (t, i) in increasing order (degree 0 has the one
        empty word, a walk from j to j).  With one state, or one state per
        block, that is lexicographic order.  ranks(n) maps each word to its
        rank within its group.  The chain (s, u) of group g has index
        offset_g + (s - s_g) * #walks_g + rank(u), where s_g is the group's
        first slot-0 value and offset_g counts the chains of the groups
        before it; starts(n)[s] is the part before rank(u).  On a one-state
        window this is s * interior_radix**n + rank(u).
        """
        return self._table(n)[0]

    def starts(self, n: int) -> list:
        return self._table(n)[2]

    def _table(self, n: int):
        if n not in self._tables:
            states = range(len(self.units))
            # walks[j][i]: the walks of length n from j to i
            walks = [[[()] if i == j else [] for i in states] for j in states]
            for _ in range(n):
                walks = [[[u + (k,) for t in states for u in row[t]
                           for k in self.steps[t][i]] for i in states]
                         for row in walks]
            blocks = [(values, walks[j][i])
                      for values, (i, j) in zip(self.slot0, self.pieces)]
            ranks = {u: r for _, words in blocks for r, u in enumerate(words)}
            starts, offset = [], 0
            for values, words in blocks:
                starts += [offset + i * len(words) for i in range(len(values))]
                offset += len(values) * len(words)
            self._tables[n] = (blocks, ranks, starts)
        return self._tables[n]

    def rebase(self, matrix: SparseMatrix, source: "_SlotData") -> list:
        """The columns of a linear map from source's algebra into this one,
        in the f-bases."""
        return [self.e_to_f.mat_vec(matrix.mat_vec(f))
                for f in source.f_vectors]


def _pieces(A: FDAlgebra, idempotents):
    """Yield (i, j, basis) for each Peirce piece e_i A e_j, in the order
    (0, 0), (0, 1), .., (r-1, r-1).  basis holds the leftmost vectors
    e_i x_k e_j that span the piece: the pivot columns u_p of the columns
    e_i x_k span e_i A, and the pivot columns of the u_p e_j span the piece,
    read by leading_columns off products by cleared units (see _SlotData).
    """
    field = A.field
    cleared_units = [cleared(e, field) for e in idempotents]
    for i, (den_i, w) in enumerate(cleared_units):
        left = A.left_mult_matrix(w)
        ideal = [left.columns()[p] for p in leading_columns(left.rows, field)]
        for j, (den_j, v) in enumerate(cleared_units):
            mult = SparseMatrix.from_columns(
                [A.multiply(u, v) for u in ideal], A.dim, field)
            yield i, j, [divided(mult.columns()[q], den_i * den_j, field)
                         for q in leading_columns(mult.rows, field)]


def _require_degree(window, n: int) -> None:
    check_int(n, "a degree", 0)
    if n > window.n_max:
        raise ValidationError("degree %d is outside the window 0..%d"
                              % (n, window.n_max))


class _Boundaries:
    """boundaries[0..n_max] of a window, each built the first time it is
    read, by itself or through a slice; degree 0 has none."""

    def __init__(self, build, n_max: int):
        self._build = build
        self._built = [None] * (n_max + 1)

    def __getitem__(self, n):
        size = len(self._built)
        if isinstance(n, slice):
            return [self[k] for k in range(size)[n]]
        if self._built[n] is None and n % size:
            self._built[n] = self._build(n % size)
        return self._built[n]


class ChainComplexWindow:
    """Degrees 0..n_max of a bar-type complex with explicit boundaries.

    boundaries[n] maps degree n to degree n-1; degree-n coordinates follow
    the chain layout of the window's slot basis (_SlotData.blocks).  Each
    boundary matrix is built the first time it is read, so a window used
    only for its layout, or only through _boundary on chains, builds none.
    """

    def __init__(self, algebra, n_max, variant, module, normalized, slots,
                 dims, faces):
        self.algebra = algebra
        self.n_max = n_max
        self.variant = variant
        self.module = module
        self.normalized = normalized
        self.slots = slots
        self.dims = dims
        self.field = algebra.field
        # _boundary(n) builds boundaries[n], _boundary(n, chain) is b(chain);
        # a partial, not a bound method, so no reference cycle holds windows
        self._boundary = partial(_boundary_matrix, slots, *faces, dims,
                                 self.field)
        self.boundaries = _Boundaries(self._boundary, n_max)

    def tuple_of(self, n: int, index: int) -> tuple:
        _require_degree(self, n)
        if not 0 <= index < self.dims[n]:
            raise ValidationError(
                "index %d is outside the degree-%d chain space" % (index, n))
        starts = self.slots.starts(n)
        s = bisect_right(starts, index) - 1
        words = self.slots.blocks(n)[self.slots.group[s]][1]
        return (s,) + words[index - starts[s]]

    def index_of(self, n: int, tup) -> int:
        """The index of a chain (s, c_1, .., c_n); refuses a tuple that is
        not a closed walk (see _SlotData.blocks)."""
        _require_degree(self, n)
        if len(tup) != n + 1:
            raise ValidationError("tensor has wrong length for this degree")
        slots = self.slots
        s = tup[0]
        if not 0 <= s < len(slots.slot0_label):
            raise ValidationError("slot-0 index %d is out of range" % s)
        home, state = slots.slot0_label[s]
        for code in tup[1:]:
            if not 0 <= code < slots.interior_radix or \
                    slots.code_label[code][0] != state:
                raise ValidationError(
                    "interior code %d does not continue the walk of slot-0 "
                    "index %d" % (code, s))
            state = slots.code_label[code][1]
        if state != home:
            raise ValidationError(
                "the tensor %r is not a closed walk" % (tup,))
        return slots.starts(n)[s] + slots.ranks(n)[tuple(tup[1:])]

    def check_differential(self) -> None:
        for n in range(2, self.n_max + 1):
            prod = self.boundaries[n - 1].matmul(self.boundaries[n])
            if not prod.is_zero_matrix():
                raise ValidationError(
                    "boundary squared is nonzero at degree %d" % n)


def _check_blocks(A: FDAlgebra, blocks) -> list:
    """The blocks as vectors over A, refused unless they are a list of
    nonzero idempotents summing to the unit."""
    # nonzero idempotents that sum to the unit are orthogonal in
    # characteristic zero: their left multiplications are projections whose
    # ranks (= traces) add up to the dimension, so their images are
    # independent
    if not isinstance(blocks, (list, tuple)) or \
            not all(isinstance(e, dict) for e in blocks):
        raise ValidationError("blocks must be a list of vectors {index: "
                              "scalar}")
    field = A.field
    blocks = [_normalize_vec(e, A) for e in blocks]
    total = {}
    for e in blocks:
        # e e = e, tested on the cleared w = D e as w w = D w
        den, w = cleared(e, field)
        if not e or not vec_equal(
                A.multiply(w, w),
                vec_scale(w, field.from_rational(den), field), field):
            raise ValidationError("blocks must be nonzero idempotents")
        vec_axpy(total, field.one, e, field)
    if not vec_equal(total, A.unit, field):
        raise ValidationError(
            "blocks must be orthogonal idempotents summing to the unit")
    return blocks


def bar_complex(A: FDAlgebra, n_max: int, variant: str = "b",
                coefficients: Bimodule | None = None,
                normalized: bool = False,
                blocks=None) -> ChainComplexWindow:
    """Build degrees 0..n_max of the bar-type complex.

    variant "b" is the Hochschild boundary with the wrap-around face,
    "b_prime" omits it.  With coefficients the first face acts through
    the bimodule's right action and the last through its left action.
    blocks, for a normalized window without coefficients, lists nonzero
    orthogonal idempotents, central or not, that sum to the unit; the
    window is then the complex relative to them, whose chains are closed
    walks through their Peirce pieces (see _SlotData).  Central
    idempotents make it the direct sum of the blocks' normalized
    complexes.  The default is the one idempotent [unit].
    """
    if variant not in ("b", "b_prime"):
        raise ValidationError("variant must be b or b_prime")
    check_int(n_max, "a degree bound", 0)
    if normalized and not A.is_unital:
        raise NonUnital("the normalized complex needs a unit")
    if normalized and variant == "b_prime":
        # b' does not preserve degenerate tensors, so it has no
        # normalized form
        raise ValidationError("b_prime does not descend to the normalized complex")
    if coefficients is not None:
        if not A.is_unital:
            raise NonUnital("coefficient complexes need a unital algebra")
        if coefficients.algebra is not A:
            raise ValidationError("bimodule belongs to a different algebra")
    if blocks is not None:
        if not normalized or coefficients is not None:
            raise ValidationError(
                "blocks need a normalized window without coefficients")
        blocks = _check_blocks(A, blocks)
    field = A.field
    slot0 = A.dim if coefficients is None else coefficients.dim
    slots = _SlotData(A, (blocks or [A.unit]) if normalized else None,
                      None if coefficients is None else slot0)

    # slot 0 acted on by f_a: left[a][i] = f_a . x_i, right[a][i] = x_i . f_a
    if coefficients is None:
        left = slots.mulf
        right = [list(col) for col in zip(*slots.mulf)]
    else:
        left, right = [[_action_of(mats, vec, slot0, field).columns()
                        for vec in slots.f_vectors]
                       for mats in (coefficients.left, coefficients.right)]

    dims = [slots.dim(n) for n in range(n_max + 1)]
    check_chain_dims(dims, "chain")
    return ChainComplexWindow(A, n_max, variant, coefficients, normalized,
                              slots, dims, (left, right, variant == "b"))


def _boundary_matrix(slots, left, right, last_face, dims, field, n,
                     chain=None):
    """The degree-n boundary, written as rows.  Each word's interior faces
    are computed once per block; the columns are then visited with slot-0
    values outside and words inside, which is increasing column order, so
    every row holds its entries in increasing column order.  Given chain, a
    sparse degree-n chain, it returns b(chain) instead, added up from
    _boundary_terms."""
    if chain is not None:
        return combination(_boundary_terms(slots, left, right, last_face,
                                           field, n, chain), field)
    f_of, imul = slots.interior, slots.imul
    rank, start = slots.ranks(n - 1), slots.starts(n - 1)
    own = slots.starts(n)
    rows = [{} for _ in range(dims[n - 1])]
    for values, words in slots.blocks(n):
        faces = []
        for j, u in enumerate(words):
            # interior faces: adjacent factors multiply, slot 0 rides along
            inner = {}
            for i in range(1, n):
                for k, c in imul[u[i - 1]][u[i]].items():
                    add_term(inner, rank[u[:i - 1] + (k,) + u[i + 1:]],
                             field.neg(c) if i % 2 else c, field)
            faces.append((j, inner, right[f_of[u[0]]], rank[u[1:]],
                          left[f_of[u[-1]]], rank[u[:-1]]))
        # the slot-0 values of the words' block
        for s in values:
            for j, inner, first, tail, last, head in faces:
                col = own[s] + j
                base = start[s]
                for r, c in inner.items():
                    rows[base + r][col] = c
                # face 0: multiply the first interior factor into slot 0
                for i, c in first[s].items():
                    add_term(rows[start[i] + tail], col, c, field)
                # last face: wrap the final factor around to act on slot 0
                if last_face:
                    for i, c in last[s].items():
                        add_term(rows[start[i] + head], col,
                                 field.neg(c) if n % 2 else c, field)
    return SparseMatrix(dims[n - 1], dims[n], field, rows=rows)


def _boundary_terms(slots, left, right, last_face, field, n, chain):
    """The terms (row, w, c) of b(chain), w a chain coefficient and c an
    entry of its column: the chain's columns are grouped by interior word,
    and each word's faces are computed once, as _boundary_matrix's."""
    f_of, imul = slots.interior, slots.imul
    rank, start = slots.ranks(n - 1), slots.starts(n - 1)
    own, blocks = slots.starts(n), slots.blocks(n)
    picked = defaultdict(list)
    for col, w in chain.items():
        s = bisect_right(own, col) - 1
        picked[slots.group[s], col - own[s]].append((s, w))
    for (g, j), weights in picked.items():
        u = blocks[g][1][j]
        inner = [(rank[u[:i - 1] + (k,) + u[i + 1:]],
                  field.neg(c) if i % 2 else c)
                 for i in range(1, n) for k, c in imul[u[i - 1]][u[i]].items()]
        first, tail = right[f_of[u[0]]], rank[u[1:]]
        last, head = left[f_of[u[-1]]], rank[u[:-1]]
        for s, w in weights:
            for r, c in inner:
                yield start[s] + r, w, c
            for i, c in first[s].items():
                yield start[i] + tail, w, c
            if last_face:
                w = field.neg(w) if n % 2 else w
                for i, c in last[s].items():
                    yield start[i] + head, w, c


# ---------------------------------------------------------------------------
# homology reports


@dataclass
class DegreeHomology:
    degree: int
    dim: int
    representatives: list
    homology: Homology


@dataclass
class HomologyReport:
    algebra: FDAlgebra
    n_max: int
    normalized: bool
    dims: list
    degrees: list
    window: ChainComplexWindow
    h_unitality: str = "not-applicable"


def _degree_homologies(maps, dims, field, n_max: int) -> list:
    """Homology in degrees 0..n_max of a complex whose differential out of
    degree n is maps[n] (maps[0] unused)."""
    # every boundary is read before any elimination: building a window's
    # boundaries between the eliminations made hh(QS3, 4) about 2% slower
    maps = maps[:n_max + 2]
    return [homology(maps[n] if n >= 1 else None, maps[n + 1],
                     space_dim=dims[n], field=field)
            for n in range(n_max + 1)]


def _homology_report(A: FDAlgebra, window, maps, n_max: int) -> HomologyReport:
    """Per-degree homology of a window whose differentials are maps."""
    homologies = _degree_homologies(maps, window.dims, window.field, n_max)
    degrees = [DegreeHomology(degree=n, dim=H.dim,
                              representatives=H.representatives, homology=H)
               for n, H in enumerate(homologies)]
    return HomologyReport(algebra=A, n_max=n_max,
                          normalized=window.normalized,
                          dims=[d.dim for d in degrees], degrees=degrees,
                          window=window)


def h_unitality_report(A: FDAlgebra, n_max: int) -> str:
    """Acyclicity of the b' complex up to the cutoff, as a tri-state string.

    Unital algebras are contractible by the homotopy, so the check only
    carries information without a unit.
    """
    check_int(n_max, "a degree bound", 0)
    if A.is_unital:
        return "not-applicable"
    window = bar_complex(A, n_max + 1, variant="b_prime")
    homologies = _degree_homologies(window.boundaries, window.dims,
                                    window.field, n_max)
    for n in range(1, n_max + 1):
        if homologies[n].dim != 0:
            return "fails at degree %d" % n
    return "acyclic-up-to-cutoff"


def hh(A: FDAlgebra, n_max: int,
       normalized: bool | None = None) -> HomologyReport:
    """Hochschild homology HH_0 .. HH_n_max with cycle representatives.

    Each representative is a cycle of report.window supported off the
    pivot coordinates of a reduced basis of the boundaries (see
    linalg.Homology).  That basis comes from one elimination of the
    boundary matrices, so the representatives are deterministic but not
    canonical: another elimination may give another basis of the same
    homology.  The dims do not depend on it.

    normalized defaults to the cheap path for unital algebras.  That path
    cuts A by the orthogonal idempotents of structure.split_idempotents,
    which refine the blocks and need not be central (the split of the unit
    along the center and then the basis of A, each piece a polynomial in
    one element), and works on the complex relative to them, with the
    homology of the full complex (Loday, Cyclic Homology, ch. 1, homology
    relative to a separable subalgebra).  report.window is that walk
    window: its degree-n chains are the closed walks
    e_(i_0) A e_(i_1) (x) .. (x) e_(i_n) A e_(i_0) with no e_i in an
    interior slot, so M_3(Q) with its diagonal idempotents has 3 * 2^n of
    them, against 9 * 8^n on the ordinary normalized complex.  Every other
    route keeps one idempotent: bar_complex called directly, the slot
    basis of cyclic's Connes complex, induced maps, Morita maps, the
    unnormalized and the coefficient complexes.  Nonunital algebras always
    use the unnormalized complex, which is exactly the textbook boundary
    and never touches a unit; for them the report carries the empirical
    H-unitality tri-state.
    """
    check_int(n_max, "a degree bound", 0)
    if normalized is None:
        normalized = A.is_unital
    if normalized and not A.is_unital:
        raise NonUnital("normalized homology needs a unital algebra")
    blocks = split_idempotents(A) if normalized else None
    report = _hh(A, n_max, normalized, blocks)
    if not A.is_unital:
        report.h_unitality = h_unitality_report(A, n_max)
    return report


def _hh(A: FDAlgebra, n_max: int, normalized: bool,
        blocks=None) -> HomologyReport:
    """HH_0 .. HH_n_max on one bar window, relative to the unit alone
    unless blocks are given."""
    window = bar_complex(A, n_max + 1, variant="b", normalized=normalized,
                         blocks=blocks)
    return _homology_report(A, window, window.boundaries, n_max)


def hh_with_coefficients(A: FDAlgebra, M: Bimodule, n_max: int,
                         normalized: bool | None = None) -> HomologyReport:
    """Homology of the bar complex with coefficients in a bimodule."""
    check_int(n_max, "a degree bound", 0)
    M.validate()
    if normalized is None:
        normalized = A.is_unital
    window = bar_complex(A, n_max + 1, variant="b", coefficients=M,
                         normalized=normalized)
    return _homology_report(A, window, window.boundaries, n_max)


def hh0_traces(A: FDAlgebra):
    """Basis of trace functionals: tau with tau(ab) = tau(ba).

    Returns (dimension, basis) where each basis element is a sparse
    functional on the algebra's coordinates.
    """
    rows = A.commutators()
    mat = SparseMatrix(len(rows), A.dim, A.field, rows=rows)
    basis = mat.kernel_basis()
    return len(basis), basis


# ---------------------------------------------------------------------------
# chain maps and induced maps


def _tensor_chain_matrix(src: ChainComplexWindow, tgt: ChainComplexWindow,
                         n: int, slot0, interior, chain: dict | None = None):
    """The chain map that puts an N x N matrix over tgt in place of each
    tensor factor of src and takes the generalized trace (Loday, Cyclic
    Homology, 1.2), in window coordinates.

    slot0[s] and interior[c] are N x N matrices of sparse vectors over
    tgt's slot-0 values and interior codes.  The chain (s, c_1, .., c_n)
    goes to the sum, over the closed index paths p_0 -> p_1 -> .. -> p_n
    -> p_0, of slot0[s][p_0][p_1] (x) interior[c_1][p_1][p_2] (x) .. (x)
    interior[c_n][p_n][p_0]; N = 1 is the tensor power slot0 (x)
    interior^(x n).  Image chains must be closed walks of tgt: one-state
    targets take any matrices, windows relative to several idempotents
    only those that keep every Peirce piece (a central element's action).
    Each word's interior image is computed once per block, and the matrix
    is written as rows like _boundary_matrix's, each in increasing column
    order.  Given chain, a sparse chain of src, it returns the chain's
    image instead, mapping only the chain's coordinates.
    """
    field = tgt.field
    rank, start = tgt.slots.ranks(n), tgt.slots.starts(n)
    own = src.slots.starts(n)
    sizes = range(len(slot0[0]))

    def close(col, matrix, image):
        # slot 0 closes each path, from its end p back to its start q
        for q, p, r, c in image:
            for i, a in matrix[p][q].items():
                add_term(col, start[i] + r, field.mul(a, c), field)

    out, rows = {}, [{} for _ in range(tgt.dims[n])] if chain is None else []
    for values, words in src.slots.blocks(n):
        images = {}
        for j, u in enumerate(words):
            if chain is not None and \
                    not any(own[s] + j in chain for s in values):
                continue
            # paths[q, p, w]: the coefficient of the target word w in the
            # interior image of u along the index paths from q to p
            paths = {(q, q, ()): field.one for q in sizes}
            for code in u:
                new = {}
                for (q, p, w), c in paths.items():
                    for r, entry in enumerate(interior[code][p]):
                        for k, a in entry.items():
                            add_term(new, (q, r, w + (k,)), field.mul(c, a),
                                     field)
                paths = new
            images[j] = [(q, p, rank[w], c) for (q, p, w), c in paths.items()]
        if chain is None:
            # slot-0 values outside, words inside: increasing column order,
            # so every row gets its entries in that order
            for s in values:
                for j, image in images.items():
                    col = {}
                    close(col, slot0[s], image)
                    for i, c in col.items():
                        rows[i][own[s] + j] = c
            continue
        for j, image in images.items():
            for s in values:
                weight = chain.get(own[s] + j)
                if weight is not None:
                    close(out, [[{i: field.mul(weight, a)
                                  for i, a in entry.items()}
                                 for entry in row] for row in slot0[s]],
                          image)
    if chain is not None:
        return out
    return SparseMatrix(tgt.dims[n], src.dims[n], field, rows=rows)


def _phi_slot_maps(phi: AlgebraMap, src: ChainComplexWindow,
                   tgt: ChainComplexWindow):
    """Slot-0 and interior images of phi in the two windows' slot bases as
    1 x 1 matrices; the interior ones keep interior codes only."""
    slot0 = tgt.slots.rebase(phi.matrix, src.slots)
    code = tgt.slots.code
    interior = [[[{code[k]: c for k, c in slot0[a].items() if k in code}]]
                for a in src.slots.interior]
    return [[[col]] for col in slot0], interior


@dataclass
class InducedMap:
    """A chain map between two reports' windows, degree by degree, and the
    maps it induces between their homologies."""

    source: HomologyReport
    target: HomologyReport
    chain_maps: list
    homology_maps: list


def _induced(source, target, chain_maps: list) -> InducedMap:
    """The maps on homology of per-degree chain maps from the window of the
    report source to that of target."""
    return InducedMap(source, target, chain_maps, [
        induced_map(f, s.homology, t.homology)
        for f, s, t in zip(chain_maps, source.degrees, target.degrees)])


def induced_map_hh(phi: AlgebraMap, n_max: int,
                   normalized: bool | None = None) -> InducedMap:
    """Per-degree homology matrices of the map phi tensored with itself.

    phi must be flagged multiplicative; the flag is verified.  The
    normalized route needs phi to be unital as well, otherwise the
    degenerate subspaces would not be preserved.
    """
    check_int(n_max, "a degree bound", 0)
    if not phi.multiplicative:
        raise NotMultiplicative("induced maps need a multiplicative map")
    phi.validate()
    if normalized is None:
        normalized = (phi.unital and phi.source.is_unital
                      and phi.target.is_unital)
    if normalized and not phi.unital:
        raise NotMultiplicative(
            "normalized induced maps need a unital map")
    # one-block windows: phi need not carry blocks into blocks
    src = _hh(phi.source, n_max, normalized)
    tgt = _hh(phi.target, n_max, normalized)
    slot0, interior = _phi_slot_maps(phi, src.window, tgt.window)
    return _induced(src, tgt, [
        _tensor_chain_matrix(src.window, tgt.window, n, slot0, interior)
        for n in range(n_max + 1)])


# ---------------------------------------------------------------------------
# Morita maps


@dataclass
class MoritaData:
    size: int
    base_report: HomologyReport
    matrix_report: HomologyReport
    iota_chain: list
    tr_chain: list
    iota_hh: list
    tr_hh: list


def tr_star_and_iota(A: FDAlgebra, N: int, n_max: int) -> MoritaData:
    """The trace chain map out of M_N(A) and the diagonal inclusion into it.

    Tr sends (m_0 (x) a_0) (x) ... (x) (m_q (x) a_q) to the scalar
    Tr(m_0 m_1 ... m_q) times a_0 (x) ... (x) a_q; iota sends a to the
    diagonal matrix with a in every slot.  Their composite is N times the
    identity, already at the level of chains.  Both are built by the one
    chain-map builder, _tensor_chain_matrix: Tr puts each matrix unit
    E_pq (x) a_j in place of itself, as an N x N matrix over A, and iota
    puts the 1 x 1 matrix of the diagonal element in place of a_i.
    """
    check_int(n_max, "a degree bound", 0)
    if not A.is_unital:
        raise NonUnital("Morita maps need a unital base algebra")
    M = matrix_algebra(A, N)
    base = hh(A, n_max, normalized=False)
    big = hh(M, n_max, normalized=False)
    one, d = A.field.one, A.dim
    diagonal = [[[{(p * N + p) * d + i: one for p in range(N)}]]
                for i in range(d)]
    units = [_unflatten(A, {j: one}, N) for j in range(M.dim)]
    iota = _induced(base, big, [
        _tensor_chain_matrix(base.window, big.window, n, diagonal, diagonal)
        for n in range(n_max + 1)])
    tr = _induced(big, base, [
        _tensor_chain_matrix(big.window, base.window, n, units, units)
        for n in range(n_max + 1)])
    return MoritaData(size=N, base_report=base, matrix_report=big,
                      iota_chain=iota.chain_maps, tr_chain=tr.chain_maps,
                      iota_hh=iota.homology_maps, tr_hh=tr.homology_maps)


# ---------------------------------------------------------------------------
# the center action on chains


def center_action(window: ChainComplexWindow, z: dict, n: int) -> SparseMatrix:
    """Matrix of z (x) id .. acting on degree n through slot 0.

    For central z this commutes with the boundary at chain level.  A
    window relative to several idempotents takes central z only: another
    element would move slot 0 out of its Peirce piece and break the walk.
    """
    if window.module is not None:
        raise ValidationError("center action is for the coefficient-free complex")
    _require_degree(window, n)
    slots = window.slots
    A = window.algebra
    z = _normalize_vec(z, A)
    if len(slots.units) > 1 and \
            not A.left_mult_matrix(z).equals(A.right_mult_matrix(z)):
        raise ValidationError(
            "a window relative to idempotents carries only central elements")
    slot0 = slots.rebase(A.left_mult_matrix(z), slots)
    ident = [[[{c: window.field.one}]] for c in range(slots.interior_radix)]
    return _tensor_chain_matrix(window, window, n,
                                [[[col]] for col in slot0], ident)
