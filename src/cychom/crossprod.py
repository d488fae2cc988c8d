"""Crossed products by finite group actions and their homology decomposition.

The product algebra lives on pairs a(x)g with (a(x)g)(b(x)h) = a g(b) (x) gh.
Its Hochschild homology decomposes along conjugacy classes: the class of
gamma contributes the centralizer invariants of the homology of the base
with coefficients twisted by gamma.  For a finite group permuting a finite
point set, explicit comparison maps identify the degree-zero pieces with
invariant functions on fixed-point sets: a multiplicative map psi into
matrix algebras over the fixed sets, one block per class and character of
the cyclic subgroup, and a character-weighted trace phi that is bijective
class by class.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from fractions import Fraction
from math import lcm

from .algebra import AlgebraMap, FDAlgebra, twisted_bimodule
from .config import default_budget
from .errors import SizeOverflow, ValidationError, check_int
from .groups import (FiniteGroup, FiniteVarietyAction, GroupAction,
                     group_metadata)
from .hochschild import _phi_slot_maps, _tensor_chain_matrix, hh, \
    hh_with_coefficients
from .linalg import (SparseMatrix, Subspace, add_term, induced_map,
                     intersect_subspaces, vec_axpy, vec_equal, vec_is_zero)
from .scalars import field_of_order, lift_raw


# ---------------------------------------------------------------------------
# the product algebra


@dataclass
class CrossedProduct:
    """A finite group acting on an algebra, together with the product.

    Basis layout is group-major: the pair (i, g) sits at flat coordinate
    g * base.dim + i, so the copy of the base over the identity occupies
    an initial contiguous block.  ``variety`` is the point permutation the
    action was built from, set only by variety_crossed_product; the
    comparison maps require it.
    """

    base: FDAlgebra
    group: FiniteGroup
    action: GroupAction
    product: FDAlgebra
    variety: FiniteVarietyAction | None = dataclasses.field(default=None,
                                                            init=False)

    def pair_index(self, i: int, g: int) -> int:
        return g * self.base.dim + i

    def split_index(self, k: int):
        """Inverse of pair_index, as (g, i)."""
        return divmod(k, self.base.dim)

    def base_inclusion(self) -> AlgebraMap:
        """The unital embedding a -> a (x) e."""
        e = self.group.identity
        images = [{self.pair_index(i, e): self.base.field.one}
                  for i in range(self.base.dim)]
        return AlgebraMap.from_images(self.base, self.product, images,
                                      multiplicative=True,
                                      unital=self.base.is_unital)


def crossed_product(A: FDAlgebra, action: GroupAction) -> CrossedProduct:
    """Build A x| Gamma from a validated action of Gamma on A, with no
    point permutation (see variety_crossed_product)."""
    cap = default_budget().dim_cap
    if action.algebra is not A:
        raise ValidationError("action must act on the given algebra")
    G = action.group
    dim = G.order * A.dim
    if dim > cap:
        raise SizeOverflow(
            "crossed product dimension %d exceeds cap %d" % (dim, cap))
    field = A.field
    moved = [[action.apply(g, {j: field.one}) for j in range(A.dim)]
             for g in range(G.order)]
    mul = {}
    for g in range(G.order):
        for h in range(G.order):
            gh = G.table[g][h]
            for i in range(A.dim):
                for j in range(A.dim):
                    prod = A.multiply({i: field.one}, moved[g][j])
                    if prod:
                        mul[(g * A.dim + i, h * A.dim + j)] = {
                            gh * A.dim + k: c for k, c in prod.items()}
    labels = []
    for g in range(G.order):
        for i in range(A.dim):
            labels.append("%s*%s" % (A.labels[i], G.names[g]))
    unit = None
    if A.is_unital:
        unit = {G.identity * A.dim + i: c for i, c in A.unit.items()}
    product = FDAlgebra(dim, A.field_order, mul, labels=labels, unit=unit,
                        name="%s@%s" % (A.name or "A", G.name or "G"))
    product.require_valid()
    cp = CrossedProduct(base=A, group=G, action=action, product=product)
    cp.base_inclusion().validate()
    return cp


def trivial_action(group: FiniteGroup, algebra: FDAlgebra) -> GroupAction:
    ident = AlgebraMap.identity(algebra)
    return GroupAction(group, algebra, [ident] * group.order,
                       name="trivial")


def variety_crossed_product(action: FiniteVarietyAction,
                            field_order: int = 1) -> CrossedProduct:
    """Crossed product of the functions on the points by the permutations,
    which it keeps as its variety: the action is built from them here."""
    ga = action.algebra_action(field_order)
    cp = crossed_product(ga.algebra, ga)
    cp.variety = action
    return cp


# ---------------------------------------------------------------------------
# conjugacy-class decomposition of Hochschild homology


@dataclass
class ClassContribution:
    rep: int
    rep_name: str
    size: int
    twisted_dims: list
    dims: list


@dataclass
class DecompositionReport:
    """Both sides of the class decomposition, for audit.

    ``contributions`` carries, per conjugacy class, the homology of the
    base with coefficients twisted by the representative (twisted_dims)
    and its centralizer invariants (dims); ``direct_dims`` is the homology
    of the product computed on its own.
    """

    crossed: CrossedProduct
    n_max: int
    contributions: list
    direct_dims: list

    @property
    def class_totals(self) -> list:
        return [sum(c.dims[q] for c in self.contributions)
                for q in range(self.n_max + 1)]

    @property
    def agrees(self) -> bool:
        return self.class_totals == self.direct_dims


def invariants(space: Subspace, operators) -> Subspace:
    """Image of the averaging projector of a family of operators.

    The family must be a full group of matrices on the ambient space
    (closed under composition, identity included) and must map the given
    subspace into itself; the latter is checked.
    """
    ops = list(operators)
    if not ops:
        raise ValidationError("need at least one operator to average")
    field = space.field
    weight = Fraction(1, len(ops))
    images = []
    for b in space.basis:
        total = {}
        for m in ops:
            img = m.mat_vec(b)
            if not space.contains(img):
                raise ValidationError("operators must preserve the subspace")
            vec_axpy(total, field.one, img, field)
        images.append({k: field.scale(v, weight) for k, v in total.items()})
    return Subspace.from_vectors(space.ambient_dim, field, images)


def _whole_space(dim: int, field) -> Subspace:
    return Subspace.from_vectors(dim, field,
                                 [{k: field.one} for k in range(dim)])


def hh_decomposition(cp: CrossedProduct, n_max: int) -> DecompositionReport:
    """Class-by-class homology of the product against the direct computation.

    Per class representative gamma the base homology is taken with
    coefficients in the bimodule twisted by gamma, which is unital as
    gamma(1) = 1, on the normalized window of a unital base.  The
    centralizer acts by tensor substitution in its slot basis: on the
    bimodule's basis in slot 0 and on A/k in the interior, where h(1) = 1
    makes it well defined.  The centralizer-invariant dimensions are what
    the class contributes.
    """
    check_int(n_max, "a degree bound", 0)
    A = cp.base
    G = cp.group
    field = A.field
    meta = group_metadata(G)
    contributions = []
    for data in meta.classes:
        rep = hh_with_coefficients(A, twisted_bimodule(A, cp.action.automorphism(data.rep)),
                                   n_max)
        # each centralizer element's slot-0 and interior images
        slot_maps = [([[[col]] for col in g.matrix.columns()],
                      _phi_slot_maps(g, rep.window, rep.window)[1])
                     for g in map(cp.action.automorphism, data.centralizer)]
        inv_dims = []
        for q in range(n_max + 1):
            H = rep.degrees[q].homology
            if H.dim == 0:
                inv_dims.append(0)
                continue
            ops = [induced_map(_tensor_chain_matrix(rep.window, rep.window,
                                                    q, *maps), H, H)
                   for maps in slot_maps]
            inv_dims.append(invariants(_whole_space(H.dim, field), ops).dim)
        contributions.append(ClassContribution(
            rep=data.rep, rep_name=G.names[data.rep], size=data.size,
            twisted_dims=list(rep.dims), dims=inv_dims))
    direct = hh(cp.product, n_max)
    return DecompositionReport(crossed=cp, n_max=n_max,
                               contributions=contributions,
                               direct_dims=list(direct.dims))


# ---------------------------------------------------------------------------
# the comparison maps for point-set actions


class _ClassGeometry:
    """Per-class data for the comparison maps.

    Matrix size is the index of the cyclic subgroup of the representative;
    rows and columns are indexed by its cosets, lowest representative
    first.  Character values are lifted into the working field.
    """

    def __init__(self, G: FiniteGroup, data, action: FiniteVarietyAction,
                 field):
        self.rep = data.rep
        self.members = set(data.members)
        self.cyclic = data.cyclic
        self.pos = {g: k for k, g in enumerate(data.cyclic)}
        self.centralizer = data.centralizer
        self.fixed = action.fixed_points(data.rep)
        self.fixed_pos = {x: t for t, x in enumerate(self.fixed)}
        self.cosets = G.coset_representatives(data.cyclic)
        self.m = len(self.cosets)
        self.characters = []
        for row in data.characters:
            lifted = []
            for val in row:
                lifted.append(lift_raw(val.raw, field_of_order(val.order),
                                       field))
            self.characters.append(lifted)


def _psi_block_value(G, action, geom, chars_row, x, g):
    """The block of psi at the basis element delta_x (x) g.

    Entry (r, c) is pi(g_r^-1 g g_c) times the translate of delta_x by
    g_r^-1, restricted to the fixed set; returned as {(r, c, t): value}.
    """
    out = {}
    for r, gi in enumerate(geom.cosets):
        gi_inv = G.inverse(gi)
        t = geom.fixed_pos.get(action.perms[gi_inv][x])
        if t is None:
            continue
        left = G.table[gi_inv][g]
        for c, gj in enumerate(geom.cosets):
            k = geom.pos.get(G.table[left][gj])
            if k is not None:
                out[(r, c, t)] = chars_row[k]
    return out


def _block_mul(u, v, m, field):
    """Product in the matrix algebra over the fixed set, pointwise in t."""
    out = {}
    for (r, s, t), a in u.items():
        for c in range(m):
            b = v.get((s, c, t))
            if b is not None:
                add_term(out, (r, c, t), field.mul(a, b), field)
    return out


@dataclass
class PsiBlock:
    class_index: int
    rep: int
    rep_name: str
    char_index: int
    m: int
    fixed: list
    offset: int

    @property
    def dim(self) -> int:
        return self.m * self.m * len(self.fixed)

    def flat(self, r: int, c: int, t: int) -> int:
        return self.offset + (r * self.m + c) * len(self.fixed) + t


class _ComparisonMap:
    """Shared by the comparison maps: a matrix over Q(zeta_field_order)."""

    def apply(self, vec: dict, source_order: int = 1) -> dict:
        """The image of a vector whose entries have the given order."""
        field = field_of_order(self.field_order)
        src = field_of_order(source_order)
        lifted = {k: lift_raw(v, src, field) for k, v in vec.items()}
        return self.matrix.mat_vec(lifted)


@dataclass
class PsiMap(_ComparisonMap):
    """The block-diagonal comparison map out of a point-set crossed product.

    ``matrix`` stacks every block: the coordinate of entry (r, c) at the
    t-th fixed point of block b is b.flat(r, c, t).  Classes whose fixed
    set is empty contribute zero-dimensional blocks and are listed in
    ``empty_classes``.
    """

    action: FiniteVarietyAction
    crossed: CrossedProduct
    field_order: int
    blocks: list
    empty_classes: list
    matrix: SparseMatrix
    target_dim: int

    def component(self, image: dict, block: PsiBlock) -> dict:
        """Slice one block out of a target vector, keyed (r, c, t)."""
        nfix = len(block.fixed)
        out = {}
        for (r, c) in [(r, c) for r in range(block.m) for c in range(block.m)]:
            for t in range(nfix):
                v = image.get(block.flat(r, c, t))
                if v is not None:
                    out[(r, c, t)] = v
        return out


def psi_map(action: FiniteVarietyAction) -> PsiMap:
    """The multiplicative comparison map, one block per class and character.

    Built over the cyclotomic field of the group exponent.  Every block is
    verified multiplicative and unital on the full basis before the map is
    returned.
    """
    G = action.group
    order = G.exponent()
    field = field_of_order(order)
    cp = variety_crossed_product(action, field_order=order)
    meta = group_metadata(G)
    geoms = [_ClassGeometry(G, data, action, field) for data in meta.classes]

    blocks, empty = [], []
    offset = 0
    for ci, geom in enumerate(geoms):
        if not geom.fixed:
            empty.append(geom.rep)
        for j in range(len(geom.cyclic)):
            b = PsiBlock(class_index=ci, rep=geom.rep,
                         rep_name=G.names[geom.rep], char_index=j,
                         m=geom.m, fixed=list(geom.fixed), offset=offset)
            blocks.append(b)
            offset += b.dim
    target_dim = offset

    # block values per source basis element, then flattened columns
    values = []
    for flat in range(cp.product.dim):
        g, x = cp.split_index(flat)
        per_block = []
        for b in blocks:
            geom = geoms[b.class_index]
            per_block.append(_psi_block_value(G, action, geom,
                                              geom.characters[b.char_index],
                                              x, g))
        values.append(per_block)

    cols = []
    for flat in range(cp.product.dim):
        col = {}
        for b, val in zip(blocks, values[flat]):
            for (r, c, t), v in val.items():
                col[b.flat(r, c, t)] = v
        cols.append(col)
    matrix = SparseMatrix.from_columns(cols, target_dim, field)

    _verify_psi(cp, blocks, values, field)
    return PsiMap(action=action, crossed=cp, field_order=order,
                  blocks=blocks, empty_classes=empty, matrix=matrix,
                  target_dim=target_dim)


def _verify_psi(cp, blocks, values, field):
    """Each block must be a unital algebra map onto its matrix algebra."""
    P = cp.product

    def block_value(vec, bi):
        # the block-bi value of psi at a vector of the product
        out = {}
        for flat, coeff in vec.items():
            for key, v in values[flat][bi].items():
                add_term(out, key, field.mul(coeff, v), field)
        return out

    for bi, b in enumerate(blocks):
        expected_unit = {(r, r, t): field.one
                         for r in range(b.m) for t in range(len(b.fixed))}
        if not vec_equal(block_value(P.unit, bi), expected_unit, field):
            raise ValidationError("component is not unital on block %d" % bi)
    for ku in range(P.dim):
        for kv in range(P.dim):
            prod = P.mul[ku][kv]
            for bi, b in enumerate(blocks):
                got = _block_mul(values[ku][bi], values[kv][bi], b.m, field)
                if not vec_equal(got, block_value(prod, bi), field):
                    raise ValidationError(
                        "component %d is not multiplicative at pair (%d, %d)"
                        % (bi, ku, kv))


@dataclass
class PhiGamma(_ComparisonMap):
    """The degree-zero comparison map for one conjugacy class.

    Rows are the fixed points of the representative; columns are the
    product coordinates.  The matrix is the character-weighted sum of the
    block traces of psi for this class.
    """

    gamma: int
    gamma_name: str
    crossed: CrossedProduct
    field_order: int
    fixed: list
    matrix: SparseMatrix


def phi_gamma(cp: CrossedProduct, gamma: int) -> PhiGamma:
    """Character-weighted trace map onto functions on the fixed set.

    The block traces of psi for gamma's class are weighted by
    (1/d) sum_pi conj(pi(gamma)) pi(gamma^k), d the order of gamma.  By
    the orthogonality of the characters of <gamma> that weight is 1 at
    k = 1 mod d and 0 elsewhere, so phi_gamma(delta_x (x) g) is the sum,
    over coset representatives h of <gamma> with h^-1 g h = gamma, of
    h^-1 . delta_x restricted to the fixed set.

    This is the map in degree zero, the only degree with content: on a
    finite point set every higher form space is zero.  cp must come from
    variety_crossed_product.
    """
    if cp.variety is None:
        raise ValidationError(
            "needs a crossed product built from a point permutation")
    action = cp.variety
    G = cp.group
    meta = group_metadata(G)
    data = None
    for entry in meta.classes:
        if entry.rep == gamma:
            data = entry
            break
    if data is None:
        raise ValidationError(
            "gamma must be the lowest-index representative of its class")
    order = lcm(G.exponent(), cp.product.field_order)
    field = field_of_order(order)
    geom = _ClassGeometry(G, data, action, field)
    cols = []
    for flat in range(cp.product.dim):
        g, x = cp.split_index(flat)
        col = {}
        for gi in geom.cosets:
            gi_inv = G.inverse(gi)
            if G.table[G.table[gi_inv][g]][gi] != gamma:
                continue
            t = geom.fixed_pos.get(action.perms[gi_inv][x])
            if t is not None:
                add_term(col, t, field.one, field)
        cols.append(col)
    matrix = SparseMatrix.from_columns(cols, len(geom.fixed), field)
    return PhiGamma(gamma=gamma, gamma_name=G.names[gamma], crossed=cp,
                    field_order=order, fixed=list(geom.fixed), matrix=matrix)


@dataclass
class PhiClassVerdict:
    rep: int
    rep_name: str
    summand_dim: int
    target_dim: int
    vanishes_off_class: bool
    image_is_invariants: bool
    kernel_is_commutator_part: bool

    @property
    def bijective(self) -> bool:
        return (self.image_is_invariants and self.kernel_is_commutator_part
                and self.summand_dim == self.target_dim)


@dataclass
class PhiReport:
    crossed: CrossedProduct
    verdicts: list

    @property
    def ok(self) -> bool:
        return all(v.bijective and v.vanishes_off_class
                   for v in self.verdicts)


def phi_isomorphism_report(cp: CrossedProduct) -> PhiReport:
    """Check phi class by class against the degree-zero homology summands.

    The commutator span of the product decomposes along conjugacy classes,
    so the class summand of the degree-zero homology is the span of the
    class coordinates modulo its commutator part.  phi for the class must
    kill every other class, kill exactly the commutator part, and land
    onto the centralizer-invariant functions on the fixed set.
    """
    if cp.variety is None:
        raise ValidationError(
            "needs a crossed product built from a point permutation")
    action = cp.variety
    G = cp.group
    P = cp.product
    meta = group_metadata(G)
    order = lcm(G.exponent(), P.field_order)
    field = field_of_order(order)

    comm_space = Subspace.from_vectors(P.dim, P.field, P.commutators())

    verdicts = []
    for data in meta.classes:
        phi = phi_gamma(cp, data.rep)
        members = set(data.members)
        span_vecs = []
        for g in sorted(members):
            for i in range(cp.base.dim):
                span_vecs.append({cp.pair_index(i, g): P.field.one})
        class_span = Subspace.from_vectors(P.dim, P.field, span_vecs)
        comm_part = intersect_subspaces(comm_space, class_span)

        vanishes = True
        for g in range(G.order):
            if g in members:
                continue
            for i in range(cp.base.dim):
                col = phi.matrix.mat_vec({cp.pair_index(i, g): field.one})
                if not vec_is_zero(col):
                    vanishes = False

        image_vecs = [phi.matrix.mat_vec({k: field.one})
                      for vec in span_vecs for k in vec]
        image = Subspace.from_vectors(len(phi.fixed), field, image_vecs)

        fixed_pos = {x: t for t, x in enumerate(phi.fixed)}
        ops = []
        for h in data.centralizer:
            cols = [{fixed_pos[action.perms[h][x]]: field.one}
                    for x in phi.fixed]
            ops.append(SparseMatrix.from_columns(cols, len(phi.fixed), field))
        target = invariants(_whole_space(len(phi.fixed), field), ops) \
            if phi.fixed else Subspace.from_vectors(0, field, [])

        kills_commutators = all(
            vec_is_zero(phi.apply(b, source_order=P.field_order))
            for b in comm_part.basis)
        kernel_dim = len(span_vecs) - image.dim
        kernel_ok = kills_commutators and kernel_dim == comm_part.dim

        verdicts.append(PhiClassVerdict(
            rep=data.rep, rep_name=G.names[data.rep],
            summand_dim=len(span_vecs) - comm_part.dim,
            target_dim=target.dim,
            vanishes_off_class=vanishes,
            image_is_invariants=image.equals(target),
            kernel_is_commutator_part=kernel_ok))
    return PhiReport(crossed=cp, verdicts=verdicts)
