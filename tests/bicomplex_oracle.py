"""The stacked (b, B) total complex, kept as the oracle of cyclic's routes
on Connes' complex.

cychom computes cyclic homology on Connes' complex and keeps only the
layout of the total complex (cyclic.CyclicComplexWindow), which the Chern
characters use.  This module builds the rest on that layout: the B blocks
and the total differentials, S and I as matrices, HC on the total complex,
blockwise chain maps, and sbi_check, induced_map_hc and excision_check as
they ran on it.  It shares with the Connes routes only the Hochschild
windows, _B_terms (operator_B's columns) and the bookkeeping of the reports,
so the tests compare every answer of those routes with it, and
tools/window_digest.py hashes its matrices.  It also keeps the cyclic
rotation t and the contracting homotopy s on bar windows, with which the
tests check B = (1 - t) s N.
"""

from collections import defaultdict
from functools import partial

from cychom.algebra import AlgebraMap, ideal_as_algebra, quotient_algebra, \
    unitalization
from cychom.config import DEFAULT_HP_CUTOFF
from cychom.cyclic import CyclicComplexWindow, ExcisionReport, SBIReport, \
    _B_terms, _node, _require_s_degree, _s_on_homology, _s_tower, \
    cyclic_complex, hp, operator_S
from cychom.errors import NonUnital, NotMultiplicative, ValidationError, \
    check_int
from cychom.hochschild import _degree_homologies, _homology_report, \
    _induced, _phi_slot_maps, _require_degree, _tensor_chain_matrix
from cychom.linalg import SparseMatrix, Subspace, add_term, induced_map, \
    operator_matrix


# ---------------------------------------------------------------------------
# t and s on bar-window chains


def cyclic_t(window, n: int, chain: dict) -> dict:
    """The signed cyclic rotation on a degree-n chain.

    Only defined on the unnormalized window: rotation moves interior
    entries into slot 0, which the reduced coordinates cannot express.
    """
    if window.normalized:
        raise ValidationError(
            "cyclic rotation does not act on the reduced window")
    if window.module is not None:
        raise ValidationError("cyclic rotation needs coefficients in A")
    field = window.field
    out = {}
    for index, c in chain.items():
        tup = window.tuple_of(n, index)
        rotated = (tup[-1],) + tup[:-1]
        value = field.neg(c) if n % 2 else c
        add_term(out, window.index_of(n, rotated), value, field)
    return out


def homotopy_s(window, n: int, chain: dict) -> dict:
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
# the window and its matrices


def _B_matrix(window, n: int) -> SparseMatrix:
    """B out of degree n, on every chain in index order."""
    chains = [(s, u) for values, words in window.slots.blocks(n)
              for s in values for u in words]
    rows = [{} for _ in range(window.dims[n + 1])]
    for target, col, c in _B_terms(window, n, [
            (s, u, col) for col, (s, u) in enumerate(chains)]):
        add_term(rows[target], col, c, window.field)
    return SparseMatrix(len(rows), len(chains), window.field, rows=rows)


class TotalComplexWindow(CyclicComplexWindow):
    """CyclicComplexWindow's layout with its matrices.

    b_up[m] is B out of Hochschild degree m.  totals[n] is b + B into
    degree n-1: b keeps summand k, B moves summand k+1 to summand k.
    """

    def __init__(self, algebra, n_max, normalized, hochschild_window):
        # the layout refuses an over-budget total space before any B
        super().__init__(algebra, n_max, normalized, hochschild_window)
        hoch = hochschild_window
        self.b_up = [_B_matrix(hoch, m) for m in range(n_max)]
        self.totals = [None]
        for n in range(1, n_max + 1):
            b = [(k, k, hoch.boundaries[m])
                 for k, m in enumerate(range(n, 0, -2))]
            B = [(k, k + 1, self.b_up[m])
                 for k, m in enumerate(range(n - 2, -1, -2))]
            self.totals.append(_stacked(self, n - 1, self, n, b + B))

    def check_differential(self) -> None:
        for n in range(2, self.n_max + 1):
            if not self.totals[n - 1].matmul(self.totals[n]).is_zero_matrix():
                raise ValidationError(
                    "total differential squared is nonzero at degree %d" % n)


def _stacked(tgt, m: int, src, n: int, blocks) -> SparseMatrix:
    """The matrix from total degree n of src to total degree m of tgt whose
    block (l, k, M) puts M from summand k into summand l; every summand of
    tgt gets at least one block.

    A row is made by its first block and extended by the others, in
    increasing k, so it holds its entries in increasing column order when
    the blocks' rows do.
    """
    parts = defaultdict(list)
    for l, k, M in sorted(blocks, key=lambda block: block[1]):
        parts[l].append((src.offsets[n][k], M.rows))
    rows = []
    for l in range(len(tgt.offsets[m])):
        (off, first), *rest = parts[l]
        made = [{off + j: c for j, c in row.items()} if off else dict(row)
                for row in first]
        for off, block in rest:
            for row, extra in zip(made, block):
                for j, c in extra.items():
                    row[off + j] = c
        rows += made
    return SparseMatrix(tgt.dims[m], src.dims[n], tgt.field, rows=rows)


def total_complex(A, n_max: int, normalized=None) -> TotalComplexWindow:
    """The (b, B) total complex on cyclic_complex's layout."""
    layout = cyclic_complex(A, n_max, normalized=normalized)
    return TotalComplexWindow(A, n_max, layout.normalized,
                              layout.hochschild_window)


def extend_cycle(window: TotalComplexWindow, n: int, chain: dict) -> dict:
    """The Chern characters' raise of a degree-n total cycle to degree
    n + 2: the new top solves b(top) = -B(previous top), B read off b_up,
    with the solver's echelon preimage, and chain sits below it."""
    hoch, field = window.hochschild_window, window.field
    rhs = window.b_up[n].mat_vec(window.component(n, chain, 0))
    top = hoch.boundaries[n + 2].solve({i: field.neg(c)
                                        for i, c in rhs.items()})
    out = window.include_component(n + 2, top, 0)
    out.update({i + hoch.dims[n + 2]: c for i, c in chain.items()})
    return out


# ---------------------------------------------------------------------------
# S, I and HC


def s_matrix(window, n: int) -> SparseMatrix:
    """The periodicity projection: drop the top Hochschild component, a
    shift (see CyclicComplexWindow)."""
    _require_s_degree(window, n)
    one = window.field.one
    cut = window.hochschild_window.dims[n]
    return SparseMatrix(window.dims[n - 2], window.dims[n], window.field,
                        rows=[{cut + j: one}
                              for j in range(window.dims[n - 2])])


def i_matrix(window, n: int) -> SparseMatrix:
    """Inclusion of the Hochschild complex as the first column."""
    _require_degree(window, n)
    one = window.field.one
    width = window.hochschild_window.dims[n]
    return SparseMatrix(window.dims[n], width, window.field,
                        rows=[{j: one} for j in range(width)]
                        + [{} for _ in range(window.dims[n] - width)])


def _bicomplex_hc(A, n_max: int, normalized=None):
    """HC_0 .. HC_n_max on the (b, B) total complex, whose window carries
    S, B and the chain maps."""
    check_int(n_max, "a degree bound", 0)
    window = total_complex(A, n_max + 1, normalized=normalized)
    return _homology_report(A, window, window.totals, n_max)


def _hc_chain_maps(phi: AlgebraMap, src_w, tgt_w, n_max: int) -> list:
    """Blockwise chain matrices of a unital map on two total windows."""
    src, tgt = src_w.hochschild_window, tgt_w.hochschild_window
    slot0, interior = _phi_slot_maps(phi, src, tgt)
    hoch_maps = [_tensor_chain_matrix(src, tgt, m, slot0, interior)
                 for m in range(n_max + 1)]
    return [_stacked(tgt_w, n, src_w, n,
                     [(k, k, hoch_maps[m])
                      for k, m in enumerate(range(n, -1, -2))])
            for n in range(n_max + 1)]


# ---------------------------------------------------------------------------
# the callers as they ran on the total complex


def sbi_check(A, n_max: int, normalized=None) -> SBIReport:
    """Exactness of ... -> HH_n -> HC_n -> HC_{n-2} -> HH_{n-1} -> ...,
    with I the first column, S the shift and the connecting map B on the
    top Hochschild component."""
    hc_report = _bicomplex_hc(A, n_max, normalized=normalized)
    window = hc_report.window
    hoch = window.hochschild_window
    hh_report = _homology_report(A, hoch, hoch.boundaries, n_max)
    hh_degrees, hc_degrees = hh_report.degrees, hc_report.degrees
    i_maps = {n: induced_map(i_matrix(window, n), hh_degrees[n].homology,
                             hc_degrees[n].homology)
              for n in range(n_max + 1)}
    s_maps = _s_on_homology(partial(operator_S, window),
                            [d.homology for d in hc_degrees], n_max)
    del_maps = {}
    for n in range(0, n_max):
        # on cycles the lower components contribute nothing
        chain = SparseMatrix(hoch.dims[n + 1], window.dims[n], window.field,
                             rows=window.b_up[n].rows)
        del_maps[n] = induced_map(chain, hc_degrees[n].homology,
                                  hh_degrees[n + 1].homology)
    nodes = []
    for n in range(n_max + 1):
        nodes.append(_node("HH_%d" % n, hh_degrees[n].dim,
                           del_maps.get(n - 1), i_maps[n]))
        nodes.append(_node("HC_%d" % n, hc_degrees[n].dim, i_maps[n],
                           s_maps.get(n)))
        if n <= n_max - 2:
            nodes.append(_node("HC_%d_tail" % n, hc_degrees[n].dim,
                               s_maps[n + 2], del_maps[n]))
    return SBIReport(algebra=A, n_max=n_max, hochschild=hh_report,
                     cyclic=hc_report, nodes=nodes)


def induced_map_hc(phi: AlgebraMap, n_max: int, normalized=None):
    """Per-degree cyclic homology matrices of a unital multiplicative map,
    acting blockwise on the stacked Hochschild components."""
    check_int(n_max, "a degree bound", 0)
    if not phi.multiplicative:
        raise NotMultiplicative("induced maps need a multiplicative map")
    if not phi.unital:
        raise NotMultiplicative("cyclic induced maps need a unital map")
    phi.validate()
    src = _bicomplex_hc(phi.source, n_max, normalized=normalized)
    tgt = _bicomplex_hc(phi.target, n_max, normalized=normalized)
    return _induced(src, tgt, _hc_chain_maps(phi, src.window, tgt.window,
                                             n_max))


class _SubComplex:
    """A kernel subcomplex of a total window, with its own homology and S."""

    def __init__(self, window, chain_maps: list, cutoff: int):
        self.window = window
        self.spaces = [chain_maps[n].kernel_space()
                       for n in range(cutoff + 2)]
        self.diffs = [None] + [self._restrict(window.totals[n], n, n - 1)
                               for n in range(1, cutoff + 2)]
        self.homologies = _degree_homologies(
            self.diffs, [space.dim for space in self.spaces], window.field,
            cutoff)
        self.s_hom = {}
        for n in range(2, cutoff + 1):
            self.s_hom[n] = induced_map(
                self._restrict(s_matrix(window, n), n, n - 2),
                self.homologies[n], self.homologies[n - 2])

    def _restrict(self, op: SparseMatrix, n: int, m: int) -> SparseMatrix:
        """An ambient operator from degree n to m, in the subspace bases."""
        return operator_matrix(op.mat_vec, self.spaces[n].basis,
                               self.spaces[m],
                               "operator does not preserve the subcomplex")

    def embed(self, n: int) -> SparseMatrix:
        """Coordinates of the degree-n subspace inside the window."""
        return SparseMatrix.from_columns(
            [dict(v) for v in self.spaces[n].basis],
            self.window.dims[n], self.window.field)


def excision_check(A, J, cutoff: int = DEFAULT_HP_CUTOFF) -> ExcisionReport:
    """Six-term periodic exactness for an ideal, on the total complexes of
    the unitalizations."""
    if not A.is_unital:
        raise NonUnital("excision check starts from a unital algebra")
    check_int(cutoff, "a degree bound", 0)
    if cutoff % 2 or cutoff < 4:
        raise ValidationError("cutoff must be even and at least 4")
    J.validate()
    Jalg, _ = ideal_as_algebra(J)
    Qd = quotient_algebra(A, J)

    ideal_hp = hp(Jalg)
    algebra_hp = hp(A)
    quotient_hp = hp(Qd.algebra)

    Ap = unitalization(A)
    Qp = unitalization(Qd.algebra)
    field = A.field
    images = [Qd.projection.apply({i: field.one}) for i in range(A.dim)]
    images.append({Qd.algebra.dim: field.one})
    pi_plus = AlgebraMap.from_images(Ap.algebra, Qp.algebra, images,
                                     multiplicative=True, unital=True)
    pi_plus.validate()

    hc_A = _bicomplex_hc(Ap.algebra, cutoff)
    hc_Q = _bicomplex_hc(Qp.algebra, cutoff)
    WA, WQ = hc_A.window, hc_Q.window
    pi_chain = _hc_chain_maps(pi_plus, WA, WQ, cutoff + 1)
    rel = _SubComplex(WA, pi_chain, cutoff)
    for n in range(cutoff + 2):
        if WA.dims[n] - rel.spaces[n].dim != WQ.dims[n]:
            raise ValidationError(
                "chain-level projection fails to be onto at degree %d" % n)

    HA = [d.homology for d in hc_A.degrees]
    HQ = [d.homology for d in hc_Q.degrees]

    incl_hom, pi_hom, del_hom = {}, {}, {}
    for n in range(cutoff + 1):
        incl_hom[n] = induced_map(rel.embed(n), rel.homologies[n], HA[n])
        pi_hom[n] = induced_map(pi_chain[n], HA[n], HQ[n])
    sA_hom = _s_on_homology(partial(operator_S, WA), HA, cutoff)
    sQ_hom = _s_on_homology(partial(operator_S, WQ), HQ, cutoff)
    for n in range(1, cutoff + 1):
        cols = []
        for rep in HQ[n].representatives:
            lift = pi_chain[n].solve(rep)
            if lift is None:
                raise ValidationError("cycle in the quotient has no lift")
            image = WA.totals[n].mat_vec(lift)
            in_rel = rel.spaces[n - 1].coords(image)
            if in_rel is None:
                raise ValidationError(
                    "boundary of a lifted cycle misses the relative complex")
            coords = rel.homologies[n - 1].coords(in_rel)
            if coords is None:
                raise ValidationError(
                    "connecting image is not a relative cycle")
            cols.append(coords)
        del_hom[n] = SparseMatrix.from_columns(cols, rel.homologies[n - 1].dim,
                                               field)

    hc_nodes = []
    for n in range(cutoff):
        hc_nodes.append(_node("HC_%d(algebra)" % n, HA[n].dim, incl_hom[n],
                              pi_hom[n]))
        hc_nodes.append(_node("HC_%d(quotient)" % n, HQ[n].dim, pi_hom[n],
                              del_hom.get(n)))
        hc_nodes.append(_node("HC_%d(relative)" % n, rel.homologies[n].dim,
                              del_hom[n + 1], incl_hom[n]))

    stable = {}
    for name, smaps in (("relative", rel.s_hom), ("algebra", sA_hom),
                        ("quotient", sQ_hom)):
        for parity in (0, 1):
            top, ranks, composite = _s_tower(smaps, parity, cutoff)
            if len(set(ranks)) != 1:
                raise ValidationError(
                    "S-images of the %s leg did not stabilize" % name)
            space = Subspace.from_vectors(
                composite.nrows, field,
                [c for c in composite.columns() if c])
            preimages = [composite.solve(dict(vec)) for vec in space.basis]
            if None in preimages:
                raise ValidationError("stable vector has no S-preimage")
            stable[(name, parity)] = (space, preimages, top)
    plus_dims = {name: (stable[(name, 0)][0].dim, stable[(name, 1)][0].dim)
                 for name in ("relative", "algebra", "quotient")}

    def stable_map(src_key, tgt_key, level_maps):
        return operator_matrix(level_maps[src_key[1]].mat_vec,
                               stable[src_key][0].basis,
                               stable[tgt_key][0],
                               "stable part is not preserved by an induced map")

    def stable_connecting(parity):
        _, preimages, top = stable[("quotient", parity)]
        op = del_hom[top]
        level = top - 1
        while level > 1 - parity:
            op = rel.s_hom[level].matmul(op)
            level -= 2
        return operator_matrix(op.mat_vec, preimages,
                               stable[("relative", 1 - parity)][0],
                               "connecting image leaves the stable part")

    incl_stable = {p: stable_map(("relative", p), ("algebra", p), incl_hom)
                   for p in (0, 1)}
    pi_stable = {p: stable_map(("algebra", p), ("quotient", p), pi_hom)
                 for p in (0, 1)}
    del_stable = {p: stable_connecting(p) for p in (0, 1)}

    hp_nodes = []
    for p in (0, 1):
        hp_nodes.append(_node("HP_%d(relative)" % p,
                              stable[("relative", p)][0].dim,
                              del_stable[1 - p], incl_stable[p]))
        hp_nodes.append(_node("HP_%d(algebra)" % p,
                              stable[("algebra", p)][0].dim,
                              incl_stable[p], pi_stable[p]))
        hp_nodes.append(_node("HP_%d(quotient)" % p,
                              stable[("quotient", p)][0].dim,
                              pi_stable[p], del_stable[p]))
    return ExcisionReport(
        ideal_hp=ideal_hp, algebra_hp=algebra_hp, quotient_hp=quotient_hp,
        relative_dims=plus_dims["relative"], plus_dims=plus_dims,
        hc_nodes=hc_nodes, hp_nodes=hp_nodes)
