"""Bar complexes and Hochschild homology.

Chain spaces are windows of tensor powers with sparse boundary matrices.
The normalized complex (interior slots taken modulo the unit) is the
default route for unital algebras; the unnormalized complex is the
reference implementation and the only route without a unit.  Which of the
two a window is, and how a chain index splits into slot 0 and an interior
word, gets decided in one place, its slot basis (_SlotData): every
boundary, operator and chain map reads that basis as tables.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product

from .config import default_budget
from .errors import (
    NonUnital,
    NotMultiplicative,
    SizeOverflow,
    ValidationError,
)
from .linalg import (
    Homology,
    SparseMatrix,
    add_term,
    homology,
    induced_map,
)
from .algebra import AlgebraMap, Bimodule, FDAlgebra, _action_of, \
    _unflatten, matrix_algebra
from .scalars import lift_raw


class _SlotData:
    """The slot basis of one window: the one place normalization is decided.

    Slot 0 runs over a basis f_0 .. f_(d-1) of the algebra: f_vectors holds
    it in the algebra's basis, e_to_f turns algebra coordinates into
    f-coordinates, mulf multiplies in it and unit is the unit in it.
    Interior slots run over the f-indices in interior; code k stands for
    f_(interior[k]) and code maps an f-index to its code.  imul[s][t] is
    the product of the codes s and t with its part outside the interior
    dropped.

    Unnormalized windows keep the algebra's basis and let every index into
    every slot.  Normalized windows rebase so that f_0 is the unit and the
    other f_j are basis vectors, and keep f_0 out of the interior: a tensor
    with the unit in an interior slot is degenerate, zero in the quotient.
    """

    def __init__(self, A: FDAlgebra, normalized: bool):
        field = A.field
        d = A.dim
        if normalized:
            # f_j (j >= 1) are the basis vectors other than a pivot of the
            # unit, in order; the pivot vector is solved from the unit
            pivot = min(A.unit)
            others = [j for j in range(d) if j != pivot]
            order = {j: k for k, j in enumerate(others, 1)}
            inv = field.inv(A.unit[pivot])
            e_pivot = {0: inv}
            for i, c in A.unit.items():
                if i != pivot:
                    e_pivot[order[i]] = field.neg(field.mul(c, inv))
            self.f_vectors = [dict(A.unit)] + [{j: field.one} for j in others]
            self.e_to_f = SparseMatrix.from_columns(
                [e_pivot if j == pivot else {order[j]: field.one}
                 for j in range(d)], d, field)
            self.mulf = [[self.e_to_f.mat_vec(A.multiply(x, y))
                          for y in self.f_vectors] for x in self.f_vectors]
            self.unit = {0: field.one}
            self.interior = list(range(1, d))
        else:
            self.f_vectors = [{j: field.one} for j in range(d)]
            self.e_to_f = SparseMatrix.identity(d, field)
            self.mulf = A.mul
            self.unit = A.unit
            self.interior = list(range(d))
        self.code = {f: k for k, f in enumerate(self.interior)}
        self.interior_radix = len(self.interior)
        self.imul = [[{self.code[k]: c for k, c in self.mulf[a][b].items()
                       if k in self.code}
                      for b in self.interior] for a in self.interior]
        self._ranks = {}

    def words(self, n: int):
        """The chain layout: a degree-n chain is a slot-0 index s and an
        interior word u, the tuple of interior codes c_1 .. c_n; words(n)
        yields the words in rank order, ranks(n) maps each word to its
        rank, and the chain has index s * interior_radix**n + rank(u)."""
        return product(range(self.interior_radix), repeat=n)

    def ranks(self, n: int) -> dict:
        if n not in self._ranks:
            self._ranks[n] = {u: j for j, u in enumerate(self.words(n))}
        return self._ranks[n]

    def rebase(self, matrix: SparseMatrix, source: "_SlotData") -> SparseMatrix:
        """A linear map from source's algebra into this one, in the f-bases."""
        f_mat = SparseMatrix.from_columns(source.f_vectors, matrix.ncols,
                                          matrix.field)
        return self.e_to_f.matmul(matrix).matmul(f_mat)


class ChainComplexWindow:
    """Degrees 0..n_max of a bar-type complex with explicit boundaries.

    boundaries[n] maps degree n to degree n-1; degree-n coordinates follow
    the chain layout of the window's slot basis (_SlotData).
    """

    def __init__(self, algebra, n_max, variant, module, normalized, slots,
                 dims, boundaries):
        self.algebra = algebra
        self.n_max = n_max
        self.variant = variant
        self.module = module
        self.normalized = normalized
        self.slots = slots
        self.dims = dims
        self.boundaries = boundaries
        self.field = algebra.field

    def tuple_of(self, n: int, index: int) -> tuple:
        if not (0 <= n <= self.n_max and 0 <= index < self.dims[n]):
            raise ValidationError(
                "index %d is outside the degree-%d chain space" % (index, n))
        radix = self.slots.interior_radix
        parts = []
        for _ in range(n):
            index, code = divmod(index, radix)
            parts.append(code)
        parts.append(index)
        return tuple(reversed(parts))

    def index_of(self, n: int, tup) -> int:
        if len(tup) != n + 1:
            raise ValidationError("tensor has wrong length for this degree")
        if not 0 <= tup[0] < self.dims[0]:
            raise ValidationError("slot-0 index %d is out of range" % tup[0])
        radix = self.slots.interior_radix
        index = tup[0]
        for code in tup[1:]:
            if not 0 <= code < radix:
                raise ValidationError("interior code %d is out of range" % code)
            index = index * radix + code
        return index

    def check_differential(self) -> None:
        for n in range(2, self.n_max + 1):
            prod = self.boundaries[n - 1].matmul(self.boundaries[n])
            if not prod.is_zero_matrix():
                raise ValidationError(
                    "boundary squared is nonzero at degree %d" % n)


def bar_complex(A: FDAlgebra, n_max: int, variant: str = "b",
                coefficients: Bimodule | None = None,
                normalized: bool = False, budget=None) -> ChainComplexWindow:
    """Build degrees 0..n_max of the bar-type complex.

    variant "b" is the Hochschild boundary with the wrap-around face,
    "b_prime" omits it.  With coefficients the first face acts through
    the bimodule's right action and the last through its left action.
    """
    budget = budget or default_budget()
    if variant not in ("b", "b_prime"):
        raise ValidationError("variant must be b or b_prime")
    if n_max < 0:
        raise ValidationError("n_max must be at least 0")
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
    field = A.field
    slots = _SlotData(A, normalized)
    radix = slots.interior_radix

    # slot 0 acted on by f_a: left[a][i] = f_a . x_i, right[a][i] = x_i . f_a
    if coefficients is None:
        slot0 = A.dim
        left = slots.mulf
        right = [list(col) for col in zip(*slots.mulf)]
    else:
        slot0 = coefficients.dim
        left, right = [[_action_of(mats, vec, slot0, field).columns()
                        for vec in slots.f_vectors]
                       for mats in (coefficients.left, coefficients.right)]

    dims = []
    for n in range(n_max + 1):
        size = slot0 * (radix ** n)
        if size > budget.max_chain_dim:
            raise SizeOverflow(
                "degree-%d chain space needs %d coordinates, budget is %d"
                % (n, size, budget.max_chain_dim))
        dims.append(size)

    boundaries = [None]
    for n in range(1, n_max + 1):
        boundaries.append(_boundary_matrix(
            slots, left, right, variant == "b", n, slot0, dims[n - 1],
            field))
    return ChainComplexWindow(A, n_max, variant, coefficients, normalized,
                              slots, dims, boundaries)


def _boundary_matrix(slots, left, right, last_face, n, slot0, dim_tgt,
                     field):
    f_of, imul = slots.interior, slots.imul
    rank = slots.ranks(n - 1)
    step = slots.interior_radix ** (n - 1)
    words = list(slots.words(n))
    cols = [None] * (slot0 * len(words))
    for j, u in enumerate(words):
        # interior faces: adjacent factors multiply, slot 0 rides along
        inner = {}
        for i in range(1, n):
            for k, c in imul[u[i - 1]][u[i]].items():
                add_term(inner, rank[u[:i - 1] + (k,) + u[i + 1:]],
                         field.neg(c) if i % 2 else c, field)
        first, tail = right[f_of[u[0]]], rank[u[1:]]
        last, head = left[f_of[u[-1]]], rank[u[:-1]]
        for s in range(slot0):
            out = {s * step + r: c for r, c in inner.items()}
            # face 0: multiply the first interior factor into slot 0
            for i, c in first[s].items():
                add_term(out, i * step + tail, c, field)
            # last face: wrap the final factor around to act on slot 0
            if last_face:
                for i, c in last[s].items():
                    add_term(out, i * step + head,
                             field.neg(c) if n % 2 else c, field)
            cols[s * len(words) + j] = out
    return SparseMatrix.from_columns(cols, dim_tgt, field)


def homotopy_s(window: ChainComplexWindow, n: int, chain: dict) -> dict:
    """The contracting homotopy s(w) = 1 (x) w, landing in degree n+1.

    Needs the unnormalized complex of a unital algebra; on the b' complex
    it satisfies b's + sb' = identity.
    """
    A = window.algebra
    if not A.is_unital:
        raise NonUnital("the homotopy needs a unit")
    if window.normalized:
        raise ValidationError("the homotopy lives on the unnormalized complex")
    if window.module is not None:
        raise ValidationError("the homotopy is for the coefficient-free complex")
    if n + 1 > window.n_max:
        raise ValidationError("window too short for the homotopy target degree")
    field = window.field
    out = {}
    for index, c in chain.items():
        tup = window.tuple_of(n, index)
        for j, u in A.unit.items():
            add_term(out, window.index_of(n + 1, (j,) + tup),
                     field.mul(u, c), field)
    return out


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

    def degree(self, n: int) -> DegreeHomology:
        return self.degrees[n]


def _degree_homologies(maps, dims, field, n_max: int) -> list:
    """Homology in degrees 0..n_max of a complex whose differential out of
    degree n is maps[n] (maps[0] unused)."""
    return [homology(maps[n] if n >= 1 else None, maps[n + 1],
                     space_dim=dims[n], field=field)
            for n in range(n_max + 1)]


def _homology_report(A: FDAlgebra, window, maps, n_max: int) -> HomologyReport:
    """Per-degree homology of a window whose differentials are maps."""
    if n_max < 0:
        raise ValidationError("n_max must be at least 0")
    homologies = _degree_homologies(maps, window.dims, window.field, n_max)
    degrees = [DegreeHomology(degree=n, dim=H.dim,
                              representatives=H.representatives, homology=H)
               for n, H in enumerate(homologies)]
    return HomologyReport(algebra=A, n_max=n_max,
                          normalized=window.normalized,
                          dims=[d.dim for d in degrees], degrees=degrees,
                          window=window)


def h_unitality_report(A: FDAlgebra, n_max: int, budget=None) -> str:
    """Acyclicity of the b' complex up to the cutoff, as a tri-state string.

    Unital algebras are contractible by the homotopy, so the check only
    carries information without a unit.
    """
    if A.is_unital:
        return "not-applicable"
    window = bar_complex(A, n_max + 1, variant="b_prime", budget=budget)
    for n in range(1, n_max + 1):
        H = homology(window.boundaries[n], window.boundaries[n + 1],
                     space_dim=window.dims[n], field=window.field)
        if H.dim != 0:
            return "fails at degree %d" % n
    return "acyclic-up-to-cutoff"


def hh(A: FDAlgebra, n_max: int, normalized: bool | None = None,
       budget=None, check_h_unitality: bool = True) -> HomologyReport:
    """Hochschild homology HH_0 .. HH_n_max with canonical representatives.

    normalized defaults to the cheap path for unital algebras; nonunital
    algebras always use the unnormalized complex, which is exactly the
    textbook boundary and never touches a unit.  For nonunital input the
    report carries the empirical H-unitality tri-state.
    """
    if normalized is None:
        normalized = A.is_unital
    if normalized and not A.is_unital:
        raise NonUnital("normalized homology needs a unital algebra")
    window = bar_complex(A, n_max + 1, variant="b", normalized=normalized,
                         budget=budget)
    report = _homology_report(A, window, window.boundaries, n_max)
    if not A.is_unital and check_h_unitality:
        report.h_unitality = h_unitality_report(A, n_max, budget=budget)
    return report


def hh_with_coefficients(A: FDAlgebra, M: Bimodule, n_max: int,
                         normalized: bool | None = None,
                         budget=None) -> HomologyReport:
    """Homology of the bar complex with coefficients in a bimodule."""
    M.validate()
    if normalized is None:
        normalized = A.is_unital
    window = bar_complex(A, n_max + 1, variant="b", coefficients=M,
                         normalized=normalized, budget=budget)
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
                         n: int, slot0_map: SparseMatrix,
                         interior_map: SparseMatrix) -> SparseMatrix:
    """The map slot0_map (x) interior_map^(x n) in window coordinates."""
    field = tgt.field
    rank = tgt.slots.ranks(n)
    step = tgt.slots.interior_radix ** n
    interior_cols = interior_map.columns()
    # the interior image of each source word, as (target rank, coefficient)
    images = []
    for u in src.slots.words(n):
        image = {(): field.one}
        for code in u:
            image = {w + (k,): field.mul(c, ck) for w, c in image.items()
                     for k, ck in interior_cols[code].items()}
        images.append([(rank[w], c) for w, c in image.items()])
    cols = [{i * step + r: field.mul(a, c) for i, a in col.items()
             for r, c in image}
            for col in slot0_map.columns() for image in images]
    return SparseMatrix.from_columns(cols, tgt.dims[n], field)


def _phi_slot_maps(phi: AlgebraMap, src: ChainComplexWindow,
                   tgt: ChainComplexWindow):
    """Slot-0 and interior matrices of a multiplicative map in the two
    windows' slot bases; the interior one keeps interior codes only."""
    slot0 = tgt.slots.rebase(phi.matrix, src.slots)
    cols = slot0.columns()
    code = tgt.slots.code
    interior = SparseMatrix.from_columns(
        [{code[k]: c for k, c in cols[a].items() if k in code}
         for a in src.slots.interior], tgt.slots.interior_radix, tgt.field)
    return slot0, interior


@dataclass
class InducedHH:
    source: HomologyReport
    target: HomologyReport
    chain_maps: list
    homology_maps: list


def induced_map_hh(phi: AlgebraMap, n_max: int,
                   normalized: bool | None = None,
                   budget=None) -> InducedHH:
    """Per-degree homology matrices of the map phi tensored with itself.

    phi must be flagged multiplicative; the flag is verified.  The
    normalized route needs phi to be unital as well, otherwise the
    degenerate subspaces would not be preserved.
    """
    if not phi.multiplicative:
        raise NotMultiplicative("induced maps need a multiplicative map")
    phi.validate()
    if normalized is None:
        normalized = (phi.unital and phi.source.is_unital
                      and phi.target.is_unital)
    if normalized and not phi.unital:
        raise NotMultiplicative(
            "normalized induced maps need a unital map")
    src_report = hh(phi.source, n_max, normalized=normalized, budget=budget,
                    check_h_unitality=False)
    tgt_report = hh(phi.target, n_max, normalized=normalized, budget=budget,
                    check_h_unitality=False)
    slot0, interior = _phi_slot_maps(phi, src_report.window,
                                     tgt_report.window)
    chain_maps, hom_maps = [], []
    for n in range(n_max + 1):
        f_n = _tensor_chain_matrix(src_report.window, tgt_report.window, n,
                                   slot0, interior)
        chain_maps.append(f_n)
        hom_maps.append(induced_map(f_n, src_report.degrees[n].homology,
                                    tgt_report.degrees[n].homology))
    return InducedHH(source=src_report, target=tgt_report,
                     chain_maps=chain_maps, homology_maps=hom_maps)


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


def tr_star_and_iota(A: FDAlgebra, N: int, n_max: int,
                     budget=None) -> MoritaData:
    """The trace chain map out of M_N(A) and the diagonal inclusion into it.

    Tr sends (m_0 (x) a_0) (x) ... (x) (m_q (x) a_q) to the scalar
    Tr(m_0 m_1 ... m_q) times a_0 (x) ... (x) a_q; iota sends a to the
    diagonal matrix with a in every slot.  Their composite is N times the
    identity, already at the level of chains.
    """
    if not A.is_unital:
        raise NonUnital("Morita maps need a unital base algebra")
    M = matrix_algebra(A, N, budget=budget)
    base = hh(A, n_max, normalized=False, budget=budget)
    big = hh(M, n_max, normalized=False, budget=budget)
    field = A.field
    d = A.dim

    iota_cols = []
    for i in range(d):
        col = {}
        for p in range(N):
            col[(p * N + p) * d + i] = field.one
        iota_cols.append(col)
    iota_mat = SparseMatrix.from_columns(iota_cols, M.dim, field)

    # E_pq (x) a_i as a matrix over A, substituted for itself by the trace
    units = [_unflatten(A, {j: field.one}, N) for j in range(M.dim)]

    iota_chain, tr_chain, iota_hh, tr_hh = [], [], [], []
    for n in range(n_max + 1):
        f_n = _tensor_chain_matrix(base.window, big.window, n,
                                   iota_mat, iota_mat)
        iota_chain.append(f_n)
        iota_hh.append(induced_map(f_n, base.degrees[n].homology,
                                   big.degrees[n].homology))
        t_n = SparseMatrix.from_columns(
            [_trace_chain(big.window, n, {j: field.one}, units, base.window)
             for j in range(big.window.dims[n])], base.window.dims[n], field)
        tr_chain.append(t_n)
        tr_hh.append(induced_map(t_n, big.degrees[n].homology,
                                 base.degrees[n].homology))
    return MoritaData(size=N, base_report=base, matrix_report=big,
                      iota_chain=iota_chain, tr_chain=tr_chain,
                      iota_hh=iota_hh, tr_hh=tr_hh)


def _trace_chain(src: ChainComplexWindow, n: int, chain: dict, mats,
                tgt: ChainComplexWindow) -> dict:
    """The generalized trace of a degree-n chain after a substitution.

    mats[k] is an N x N matrix (entries sparse vectors over tgt's algebra)
    put in place of basis element k of src's algebra in every slot; Tr then
    multiplies the entries along each closed index path p_0 -> p_1 -> ...
    -> p_n -> p_0 into one tensor of tgt.  Both windows are unnormalized.
    Chain coefficients are lifted into tgt's field: the carriers of Chern
    characters are over Q while the target may be over Q(zeta_m).
    """
    field = tgt.field
    out = {}
    for index, c in chain.items():
        tup = src.tuple_of(n, index)
        c = lift_raw(c, src.field, field)
        for start in range(len(mats[tup[0]])):
            paths = [(start, (), c)]
            for k in tup:
                paths = [(q, word + (i,), field.mul(v, a))
                         for p, word, v in paths
                         for q, entry in enumerate(mats[k][p])
                         for i, a in entry.items()]
            for p, word, v in paths:
                if p == start:
                    add_term(out, tgt.index_of(n, word), v, field)
    return out


# ---------------------------------------------------------------------------
# the center action on chains


def center_action(window: ChainComplexWindow, z: dict, n: int) -> SparseMatrix:
    """Matrix of z (x) id .. acting on degree n through slot 0.

    For central z this commutes with the boundary at chain level.
    """
    if window.module is not None:
        raise ValidationError("center action is for the coefficient-free complex")
    slots = window.slots
    slot0 = slots.rebase(window.algebra.left_mult_matrix(z), slots)
    ident = SparseMatrix.identity(slots.interior_radix, window.field)
    return _tensor_chain_matrix(window, window, n, slot0, ident)
