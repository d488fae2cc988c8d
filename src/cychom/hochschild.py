"""Bar complexes and Hochschild homology.

Chain spaces are windows of tensor powers with sparse boundary matrices.
The normalized complex (interior slots taken modulo the unit) is the
default route for unital algebras; the unnormalized complex is the
reference implementation and the only route without a unit.
"""

from __future__ import annotations

from dataclasses import dataclass

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
from .algebra import AlgebraMap, Bimodule, FDAlgebra, matrix_algebra


class _SlotData:
    """Basis bookkeeping for one window.

    Normalized windows rebase the algebra so that f_0 is the unit and the
    remaining f_j are original basis vectors; interior tensor slots then
    run over f_1 .. f_(d-1) and products drop their f_0 component.
    Unnormalized windows keep the raw basis everywhere.
    """

    def __init__(self, A: FDAlgebra, normalized: bool):
        self.algebra = A
        self.normalized = normalized
        field = A.field
        d = A.dim
        if not normalized:
            self.f_vectors = [A.basis_vector(i) for i in range(d)]
            self.mulf = A.mul
            self.e_to_f = SparseMatrix.identity(d, field)
            self.interior_radix = d
            return
        pivot = min(A.unit)
        order = [None] * d
        vectors = [dict(A.unit)]
        for j in range(d):
            if j != pivot:
                order[j] = len(vectors)
                vectors.append({j: field.one})
        self.pivot = pivot
        self.f_vectors = vectors
        # e_j = f_(order j) for j != pivot; solve the pivot column from the unit
        cols = []
        inv_pivot = field.inv(A.unit[pivot])
        for j in range(d):
            if j != pivot:
                cols.append({order[j]: field.one})
            else:
                col = {0: inv_pivot}
                for i, c in A.unit.items():
                    if i != pivot:
                        col[order[i]] = field.neg(field.mul(c, inv_pivot))
                cols.append(col)
        self.e_to_f = SparseMatrix.from_columns(cols, d, field)
        self.mulf = []
        for a in range(d):
            row = []
            for b in range(d):
                prod = A.multiply(vectors[a], vectors[b])
                row.append(self.e_to_f.mat_vec(prod))
            self.mulf.append(row)
        self.interior_radix = d - 1

    def interior_product(self, s: int, t: int) -> dict:
        """Product of two interior codes, as {code: coeff}.

        Normalized windows drop the f0 (unit) part, which is degenerate;
        unnormalized codes are plain basis indices.
        """
        if not self.normalized:
            return self.mulf[s][t]
        prod = self.mulf[s + 1][t + 1]
        return {k - 1: c for k, c in prod.items() if k != 0}


class ChainComplexWindow:
    """Degrees 0..n_max of a bar-type complex with explicit boundaries.

    boundary(n) maps degree n to degree n-1; degree-n coordinates encode
    tensors through a mixed-radix codec (slot 0 first, big-endian).
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

    def boundary(self, n: int):
        return self.boundaries[n]

    def tuple_of(self, n: int, index: int) -> tuple:
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
        radix = self.slots.interior_radix
        index = tup[0]
        for code in tup[1:]:
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
    slot0 = coefficients.dim if coefficients is not None else A.dim

    dims = []
    for n in range(n_max + 1):
        size = slot0 * (radix ** n)
        if size > budget.max_chain_dim:
            raise SizeOverflow(
                "degree-%d chain space needs %d coordinates, budget is %d"
                % (n, size, budget.max_chain_dim))
        dims.append(size)

    # module actions by rebased basis vectors, when coefficients are given
    left_f = right_f = None
    if coefficients is not None:
        left_f, right_f = [], []
        for vec in slots.f_vectors:
            left = SparseMatrix.zero(slot0, slot0, field)
            right = SparseMatrix.zero(slot0, slot0, field)
            for i, c in vec.items():
                left = left.add(coefficients.left[i].scaled(c))
                right = right.add(coefficients.right[i].scaled(c))
            left_f.append(left)
            right_f.append(right)

    boundaries = [None]
    for n in range(1, n_max + 1):
        boundaries.append(_boundary_matrix(
            A, slots, coefficients, left_f, right_f, variant, n,
            dims[n], dims[n - 1], radix, slot0))
    return ChainComplexWindow(A, n_max, variant, coefficients, normalized,
                              slots, dims, boundaries)


def _boundary_matrix(A, slots, module, left_f, right_f, variant, n,
                     dim_src, dim_tgt, radix, slot0):
    field = A.field
    normalized = slots.normalized
    last_face = variant == "b"
    # a degree-m index is slot0 * radix**m plus the interior codes read as
    # a base-radix number (the body), first code most significant
    pw = [radix ** k for k in range(n + 1)]
    top = pw[n - 1]
    cols = []
    for index in range(dim_src):
        rest = index
        interior = []
        for _ in range(n):
            rest, code = divmod(rest, radix)
            interior.append(code)
        interior.reverse()
        s0 = rest
        body = index - s0 * pw[n]
        out = {}

        # face 0: multiply the first interior factor into slot 0
        a1 = interior[0] + 1 if normalized else interior[0]
        if module is not None:
            first = right_f[a1].columns()[s0]
        else:
            first = slots.mulf[s0][a1]
        tail = body % top
        for code, c in first.items():
            add_term(out, code * top + tail, c, field)

        # interior faces: slot 0 rides along, adjacent factors multiply;
        # codes i-1 and i merge into one code of weight pw[n - i - 1]
        sign = 1
        for i in range(1, n):
            sign = -sign
            prod = slots.interior_product(interior[i - 1], interior[i])
            low = pw[n - i - 1]
            base = s0 * top + body // pw[n - i + 1] * pw[n - i] + body % low
            for k, c in prod.items():
                add_term(out, base + k * low,
                         c if sign > 0 else field.neg(c), field)

        # last face: wrap the final factor around to act on slot 0
        if last_face:
            sign = 1 if n % 2 == 0 else -1
            an = interior[-1] + 1 if normalized else interior[-1]
            if module is not None:
                first = left_f[an].columns()[s0]
            else:
                first = slots.mulf[an][s0]
            tail = body // radix
            for code, c in first.items():
                add_term(out, code * top + tail,
                         c if sign > 0 else field.neg(c), field)
        cols.append(out)
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
    radix = window.slots.interior_radix
    out = {}
    for index, c in chain.items():
        tup = window.tuple_of(n, index)
        for j, u in A.unit.items():
            idx = j
            for code in tup:
                idx = idx * radix + code
            add_term(out, idx, field.mul(u, c), field)
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
    radix = tgt.slots.interior_radix
    slot0_cols = slot0_map.columns()
    interior_cols = interior_map.columns()
    cols = []
    for index in range(src.dims[n]):
        tup = src.tuple_of(n, index)
        acc = dict(slot0_cols[tup[0]])
        for code in tup[1:]:
            col = interior_cols[code]
            new = {}
            for idx, c in acc.items():
                for k, ck in col.items():
                    add_term(new, idx * radix + k, field.mul(c, ck), field)
            acc = new
        cols.append(acc)
    return SparseMatrix.from_columns(cols, tgt.dims[n], field)


def _phi_slot_maps(phi: AlgebraMap, src: ChainComplexWindow,
                   tgt: ChainComplexWindow):
    """Slot matrices of a multiplicative map in the two windows' bases."""
    field = tgt.field
    if not src.normalized:
        return phi.matrix, phi.matrix
    # f-basis on both sides: convert, then cut the unit row and column
    cols = []
    for vec in src.slots.f_vectors:
        cols.append(tgt.slots.e_to_f.mat_vec(phi.apply(vec)))
    slot0 = SparseMatrix.from_columns(cols, tgt.algebra.dim, field)
    interior_cols = []
    for j in range(1, src.algebra.dim):
        col = {k - 1: c for k, c in cols[j].items() if k != 0}
        interior_cols.append(col)
    interior = SparseMatrix.from_columns(interior_cols,
                                         tgt.algebra.dim - 1, field)
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

    iota_chain, tr_chain, iota_hh, tr_hh = [], [], [], []
    for n in range(n_max + 1):
        f_n = _tensor_chain_matrix(base.window, big.window, n,
                                   iota_mat, iota_mat)
        iota_chain.append(f_n)
        iota_hh.append(induced_map(f_n, base.degrees[n].homology,
                                   big.degrees[n].homology))
        t_n = _trace_chain_matrix(big.window, base.window, n, N, d)
        tr_chain.append(t_n)
        tr_hh.append(induced_map(t_n, big.degrees[n].homology,
                                 base.degrees[n].homology))
    return MoritaData(size=N, base_report=base, matrix_report=big,
                      iota_chain=iota_chain, tr_chain=tr_chain,
                      iota_hh=iota_hh, tr_hh=tr_hh)


def _trace_chain_matrix(src: ChainComplexWindow, tgt: ChainComplexWindow,
                        n: int, N: int, d: int) -> SparseMatrix:
    """Trace map on unnormalized windows of M_N(A) and A."""
    field = tgt.field
    cols = []
    for index in range(src.dims[n]):
        tup = src.tuple_of(n, index)
        ps, qs, bases = [], [], []
        for code in tup:
            pq, i = divmod(code, d)
            p, q = divmod(pq, N)
            ps.append(p)
            qs.append(q)
            bases.append(i)
        ok = all(qs[k] == ps[k + 1] for k in range(n)) and qs[n] == ps[0]
        if not ok:
            cols.append({})
            continue
        idx = bases[0]
        for i in bases[1:]:
            idx = idx * d + i
        cols.append({idx: field.one})
    return SparseMatrix.from_columns(cols, tgt.dims[n], field)


# ---------------------------------------------------------------------------
# the center action on chains


def center_action(window: ChainComplexWindow, z: dict, n: int) -> SparseMatrix:
    """Matrix of z (x) id .. acting on degree n through slot 0.

    For central z this commutes with the boundary at chain level.
    """
    A = window.algebra
    if window.module is not None:
        raise ValidationError("center action is for the coefficient-free complex")
    field = window.field
    L = A.left_mult_matrix(z)
    if window.normalized:
        f_mat = SparseMatrix.from_columns(
            [dict(v) for v in window.slots.f_vectors], A.dim, field)
        slot0 = window.slots.e_to_f.matmul(L).matmul(f_mat)
    else:
        slot0 = L
    ident = SparseMatrix.identity(window.slots.interior_radix, field)
    return _tensor_chain_matrix(window, window, n, slot0, ident)
