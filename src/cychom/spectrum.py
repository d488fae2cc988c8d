"""Primitive-ideal spectra of finite-dimensional algebras.

The working objects are the block decomposition of the semisimple part,
the finite set of primitive ideals it produces, the central character
attached to each point, and the filtration of the algebra by kernels of
small irreducible representations.  On top of those sit the page-one
table of the filtration spectral sequence and the two spectrum-preserving
morphism checks.

Coefficients stay exact throughout.  The radical, the semisimple quotient
and its center are computed once, over the algebra's own field.  When that
center refuses to split there, only the quotient is retried over
cyclotomic extensions of increasing order until a configured bound, and
the algebra is extended once, to the order that splits, so a caller
always gets either a fully split decomposition or an explicit refusal.
This loses nothing: in characteristic 0 the radical and the center of
A (x) K are those of A read over K, and a reduced echelon basis with
entries in the smaller field keeps its pivots over K.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .algebra import (
    AlgebraMap,
    FDAlgebra,
    QuotientData,
    TwoSidedIdeal,
    ideal_as_algebra,
    quotient_algebra,
    two_sided_ideal,
)
from .config import default_budget
from .cyclic import HPReport, hp
from .errors import (
    FiltrationNotRespected,
    NonUnital,
    SplittingFieldTooLarge,
    ValidationError,
    check_int,
)
from .linalg import (
    SparseMatrix,
    Subspace,
    cleared,
    intersect_subspaces,
    preimage_subspace,
    vec_axpy,
)
from .scalars import field_of_order, lift_raw
from .structure import (
    _span_identity,
    _split_unit,
    center,
    is_nilpotent_subspace,
    jacobson_radical,
    semisimple_quotient,
)

__all__ = [
    "extend_scalars",
    "intersect_subspaces",
    "BlockData",
    "SpectrumReport",
    "IdealFiltration",
    "AbelianLayerCheck",
    "AbelianReport",
    "E1Entry",
    "E1Report",
    "SpectrumVerdict",
    "LayerVerdict",
    "WeaklyReport",
    "jacobson_radical",
    "wedderburn_blocks",
    "central_character",
    "standard_filtration",
    "abelian_filtration_report",
    "spectral_e1",
    "spectrum_preserving_check",
    "weakly_spectrum_preserving_check",
]


# -- coefficient extension --------------------------------------------------------

def extend_scalars(A: FDAlgebra, order: int) -> FDAlgebra:
    """The same structure constants read over a larger cyclotomic field.

    The basis and labels are unchanged, so subspaces of the original
    algebra make sense coordinatewise in the extension.
    """
    check_int(order, "field order", 1)
    if order == A.field_order:
        return A
    if order % A.field_order != 0:
        raise ValidationError(
            "cannot extend coefficients of order %d to order %d"
            % (A.field_order, order))
    src = A.field
    dst = field_of_order(order)
    mul = {}
    for i in range(A.dim):
        for j in range(A.dim):
            entry = A.mul[i][j]
            if entry:
                mul[(i, j)] = {k: lift_raw(c, src, dst)
                               for k, c in entry.items()}
    unit = None
    if A.unit is not None:
        unit = {k: lift_raw(c, src, dst) for k, c in A.unit.items()}
    return FDAlgebra(A.dim, order, mul, labels=list(A.labels), unit=unit,
                     name=A.name).require_valid()


def _lift_vec(vec: dict, src, dst) -> dict:
    return {j: lift_raw(c, src, dst) for j, c in vec.items()}


def _lift_matrix(mat: SparseMatrix, dst) -> SparseMatrix:
    rows = [_lift_vec(row, mat.field, dst) for row in mat.rows]
    return SparseMatrix(mat.nrows, mat.ncols, dst, rows=rows)


def _lift_subspace(space: Subspace, dst) -> Subspace:
    """The same reduced basis read over dst; its pivots stay pivots."""
    return Subspace(space.ambient_dim, dst,
                    [_lift_vec(v, space.field, dst) for v in space.basis],
                    list(space.pivot_cols))


# -- the block decomposition ------------------------------------------------------

@dataclass
class BlockData:
    """One simple block of the semisimple part.

    idempotent  central idempotent cutting the block, in A/rad coordinates
    dimension   linear dimension of the block
    size        matrix size, the square root of the dimension
    """

    idempotent: dict
    dimension: int
    size: int


@dataclass
class SpectrumReport:
    """Block decomposition with its primitive ideals and central characters.

    All subspaces live over ``algebra``, which is the input extended to
    the coefficient field that splits its center; ``field_order`` names
    that field.  ``central_characters[j]`` is the maximal ideal of the
    center cut out by ``prim_points[j]``, in the coordinates of the
    center's own basis.  ``semisimple`` is the quotient by the radical.
    """

    algebra: FDAlgebra
    field_order: int
    radical: Subspace
    blocks: list
    prim_points: list
    central_characters: list
    center: Subspace
    semisimple: object

    @property
    def n_points(self) -> int:
        return len(self.blocks)

    @property
    def sizes(self) -> tuple:
        return tuple(b.size for b in self.blocks)


def _sort_key(vec: dict, field):
    return sorted((k, tuple(field.to_coeffs(c))) for k, c in vec.items())


def _canonical_kernel(mat: SparseMatrix) -> Subspace:
    """The kernel of mat on its canonical basis, with leftmost pivots.

    Those pivots are the columns that an elimination from the right leaves
    free, so the kernel of mat with its columns reversed, read back, is
    already that basis."""
    n = mat.ncols
    flipped = SparseMatrix(mat.nrows, n, mat.field, rows=[
        {n - 1 - j: c for j, c in row.items()} for row in mat.rows])
    kernel = flipped.kernel_space()
    return Subspace(n, mat.field, [
        {n - 1 - j: c for j, c in v.items()} for v in reversed(kernel.basis)],
        [n - 1 - p for p in reversed(kernel.pivot_cols)])


def _block_report(A: FDAlgebra, data, radical, ss: FDAlgebra,
                  idems: list) -> SpectrumReport:
    """The report over the field of ss, the quotient A/rad extended to an
    order whose center split into idems."""
    field = ss.field
    ext = extend_scalars(A, ss.field_order)
    projection = _lift_matrix(data.projection.matrix, field)
    central_full = _lift_subspace(center(A), field)
    traces = ss.trace_vector()
    idems.sort(key=lambda v: _sort_key(v, field))
    blocks, prim_points, characters = [], [], []
    for e in idems:
        # left multiplication by e is a projection onto its block, so in
        # characteristic 0 its trace is the block's dimension
        trace = field.zero
        for k, c in e.items():
            trace = field.add(trace, field.mul(c, traces[k]))
        value, *rest = field.to_coeffs(trace)
        size = math.isqrt(max(int(value), 0))
        dimension = size * size
        if any(rest) or dimension != value:
            raise ValidationError(
                "block dimension %s is not a perfect square" % (trace,))
        blocks.append(BlockData(idempotent=e, dimension=dimension, size=size))
        # the primitive ideal is the kernel of x -> w pi(x), pi the
        # quotient map onto ss and w = D e with integer entries
        _, w = cleared(e, field)
        image = SparseMatrix.from_columns(
            [ss.multiply(w, col) for col in projection.columns()],
            ss.dim, field)
        point = image.kernel_space()
        if ext.dim - point.dim != dimension:
            raise ValidationError(
                "primitive ideal has the wrong codimension")
        prim_points.append(point)
        # and the central character the kernel of z -> w pi(z) on the
        # center's basis
        on_center = SparseMatrix.from_columns(
            [image.mat_vec(z) for z in central_full.basis], ss.dim, field)
        inner = _canonical_kernel(on_center)
        if central_full.dim - inner.dim != 1:
            raise ValidationError(
                "central character is not a maximal ideal of the center")
        characters.append(inner)
    if sum(b.dimension for b in blocks) != ss.dim:
        raise ValidationError("block dimensions do not fill the quotient")
    semisimple = QuotientData(ss, AlgebraMap(
        ext, ss, projection, multiplicative=True, unital=True))
    return SpectrumReport(
        algebra=ext, field_order=ext.field_order,
        radical=_lift_subspace(radical.space, field), blocks=blocks,
        prim_points=prim_points, central_characters=characters,
        center=central_full, semisimple=semisimple)


def wedderburn_blocks(A: FDAlgebra) -> SpectrumReport:
    """Split A modulo its radical into simple blocks.

    The radical J, the quotient A/J and the center of A/J are computed
    once, over A's own field.  The center is then factored into primitive
    idempotents; when that needs a larger cyclotomic field, only A/J moves
    there, trying orders in increasing multiples of the base order up to
    config.DEFAULT_MAX_FIELD_ORDER.  An order m = 2k with k odd and a
    multiple of the base order is skipped: Q(zeta_m) = Q(zeta_k), which
    was already tried.  A is extended once, to the order that splits.

    This is exact: over a field K of characteristic 0, J(A (x) K) =
    J (x) K and Z(A (x) K) = Z(A) (x) K, and the reduced echelon basis of
    a subspace spanned by vectors over the smaller field keeps its pivots
    over K, so the radical, the center and the projection read over K
    are those computed there from scratch.
    """
    max_order = default_budget().max_field_order
    if not A.is_unital:
        raise NonUnital("block decomposition needs a unital algebra")
    data, radical = semisimple_quotient(A)
    quotient = data.algebra
    central = center(quotient).basis
    step = A.field_order
    for order in range(step, max_order + 1, step):
        if order % 4 == 2 and (order // 2) % step == 0:
            continue
        ss = extend_scalars(quotient, order)
        idems = _split_unit(
            ss, [_lift_vec(z, quotient.field, ss.field) for z in central],
            complete=True)
        if idems is not None:
            return _block_report(A, data, radical, ss, idems)
    raise SplittingFieldTooLarge(
        "center did not split over cyclotomic orders up to %d" % max_order)


def central_character(A: FDAlgebra) -> list:
    """Maximal ideal of the center attached to each primitive ideal.

    Entry j is the intersection of prim point j with the center, in the
    coordinates of the center's canonical basis.
    """
    return wedderburn_blocks(A).central_characters


# -- ideal filtrations ------------------------------------------------------------

@dataclass
class IdealFiltration:
    """A decreasing chain of two-sided ideals starting at the whole algebra."""

    algebra: FDAlgebra
    chain: list

    def validate(self) -> None:
        if not self.chain:
            raise ValidationError("filtration chain is empty")
        if self.chain[0].dim != self.algebra.dim:
            raise ValidationError("filtration must start at the whole algebra")
        for k, ideal in enumerate(self.chain):
            if ideal.parent is not self.algebra:
                raise ValidationError(
                    "filtration term %d belongs to a different algebra" % k)
            if k and not self.chain[k - 1].space.contains_subspace(ideal.space):
                raise ValidationError(
                    "filtration term %d is not contained in term %d"
                    % (k, k - 1))

    @property
    def dims(self) -> list:
        return [ideal.dim for ideal in self.chain]


def standard_filtration(A: FDAlgebra) -> IdealFiltration:
    """Kernels of the representations of size at most k, for k = 0, 1, ...

    Term k is the intersection of the primitive ideals whose block size
    is at most k; term 0 is the whole algebra and the last term is the
    radical.  The chain lives over the splitting extension.
    """
    report = wedderburn_blocks(A)
    ext = report.algebra
    whole = two_sided_ideal(
        ext, [ext.basis_vector(i) for i in range(ext.dim)], name="J0")
    chain = [whole]
    top = max(b.size for b in report.blocks)
    for k in range(1, top + 1):
        meet = None
        for blk, point in zip(report.blocks, report.prim_points):
            if blk.size <= k:
                meet = point if meet is None else intersect_subspaces(meet, point)
        space = meet if meet is not None else whole.space
        chain.append(TwoSidedIdeal(ext, space, name="J%d" % k))
        chain[-1].validate()
    last = chain[-1].space
    if not (last.dim == report.radical.dim
            and report.radical.contains_subspace(last)):
        raise ValidationError("standard filtration does not end at the radical")
    return IdealFiltration(ext, chain)


# -- the layered-filtration conditions --------------------------------------------

@dataclass
class AbelianLayerCheck:
    k: int
    semiprimitive_ok: bool
    layer_nilpotent_ok: bool
    note: str = ""

    @property
    def ok(self) -> bool:
        return self.semiprimitive_ok and self.layer_nilpotent_ok


@dataclass
class AbelianReport:
    """Layer-by-layer verification of the filtration conditions.

    Two conditions are checked directly: each quotient by a filtration
    term has zero radical, and each consecutive layer becomes nilpotent
    after dividing by the product of its central part with the quotient
    algebra.  The localization condition on the non-vanishing locus holds
    automatically for split matrix blocks and is not rechecked.  The
    division in the layer condition is read as the quotient by the
    product ideal.
    """

    layers: list
    ends_at_radical: bool

    @property
    def ok(self) -> bool:
        return self.ends_at_radical and all(layer.ok for layer in self.layers)


def _central_image(A: FDAlgebra, upper, lower):
    """The quotient B = A / lower, the image of upper in it, and the part of
    that image in the center of B."""
    data = quotient_algebra(A, lower)
    B = data.algebra
    image = Subspace.from_vectors(
        B.dim, B.field, [data.projection.apply(v) for v in upper.space.basis])
    return B, image, intersect_subspaces(image, center(B))


def _layer_quotients(filt: IdealFiltration) -> list:
    """_central_image of each layer (term k - 1 over term k, k >= 1) of a
    validated filtration, or None where term k is the whole algebra."""
    filt.validate()
    A = filt.algebra
    return [None if lower.dim == A.dim else _central_image(A, upper, lower)
            for upper, lower in zip(filt.chain, filt.chain[1:])]


def abelian_filtration_report(filt: IdealFiltration) -> AbelianReport:
    return _abelian_report(filt, _layer_quotients(filt))


def _abelian_report(filt: IdealFiltration, quotients: list) -> AbelianReport:
    A = filt.algebra
    layers = []
    for k, quotient in enumerate(quotients, 1):
        upper, lower = filt.chain[k - 1], filt.chain[k]
        if quotient is None:
            layers.append(AbelianLayerCheck(k, True, True, "zero quotient"))
            continue
        B, image, central_part = quotient
        semiprim = jacobson_radical(B).dim == 0
        if upper.dim == lower.dim:
            layers.append(AbelianLayerCheck(k, semiprim, True, "zero layer"))
            continue
        products = []
        for w in central_part.basis:
            for i in range(B.dim):
                prod = B.multiply(w, B.basis_vector(i))
                if prod:
                    products.append(prod)
        prod_space = Subspace.from_vectors(B.dim, B.field, products)
        if prod_space.dim == B.dim:
            layers.append(AbelianLayerCheck(k, semiprim, True,
                                            "product ideal is everything"))
            continue
        prod_ideal = two_sided_ideal(B, list(prod_space.basis))
        inner = quotient_algebra(B, prod_ideal)
        residue = Subspace.from_vectors(
            inner.algebra.dim, B.field,
            [inner.projection.apply(v) for v in image.basis])
        nil = is_nilpotent_subspace(inner.algebra, residue)
        layers.append(AbelianLayerCheck(k, semiprim, nil))
    rad = jacobson_radical(A)
    last = filt.chain[-1].space
    ends = (last.dim == rad.dim and rad.space.contains_subspace(last))
    return AbelianReport(layers=layers, ends_at_radical=ends)


# -- page one of the filtration spectral sequence ---------------------------------

@dataclass
class E1Entry:
    """Contribution of filtration level p: points of the level-p stratum.

    The level-p quotient has x_points points, and the previous level's
    central part vanishes on y_points of them.  The other count points
    form the stratum, and each contributes one even periodic class.
    """

    p: int
    x_points: int
    y_points: int
    count: int


@dataclass
class E1Report:
    entries: list
    even_total: int
    hp: HPReport
    abelian: AbelianReport

    @property
    def agrees(self) -> bool:
        return self.even_total == self.hp.even_dim and self.hp.odd_dim == 0


def spectral_e1(A: FDAlgebra) -> E1Report:
    """Point counts of the strata of A's standard filtration against the
    periodic dimensions.

    The filtration lives over the field that splits A; each level
    contributes the points of its quotient's spectrum that are new at
    that level, and the even total is compared with the periodic theory
    of the algebra over that field, whose odd part it expects to vanish.
    """
    filtration = standard_filtration(A)
    ext = filtration.algebra
    quotients = _layer_quotients(filtration)
    abelian = _abelian_report(filtration, quotients)
    if not abelian.ok:
        raise ValidationError("standard filtration failed the layer checks")
    entries = []
    for p, quotient in enumerate(quotients, 1):
        if quotient is None:
            entries.append(E1Entry(p=p, x_points=0, y_points=0, count=0))
            continue
        Bp, _, central_part = quotient
        sub = wedderburn_blocks(Bp)
        if sub.algebra.field_order != ext.field_order:
            raise ValidationError(
                "quotient of a split algebra needed a further extension")
        vanishing = 0
        for blk in sub.blocks:
            hit = any(Bp.multiply(blk.idempotent, w)
                      for w in central_part.basis)
            if not hit:
                vanishing += 1
        x_points = sub.n_points
        entries.append(E1Entry(p=p, x_points=x_points, y_points=vanishing,
                               count=x_points - vanishing))
    return E1Report(entries=entries, even_total=sum(e.count for e in entries),
                    hp=hp(ext), abelian=abelian)


# -- spectrum-preserving morphisms ------------------------------------------------

class _ComparesHP:
    """hp_agrees for a report that holds hp_source and hp_target."""

    @property
    def hp_agrees(self) -> bool:
        return (self.hp_source.even_dim == self.hp_target.even_dim
                and self.hp_source.odd_dim == self.hp_target.odd_dim)


@dataclass
class SpectrumVerdict(_ComparesHP):
    """Outcome of the point-correspondence test for one linear map.

    pairs lists the relation as (target point index, source point index);
    the verdict holds exactly when the relation is the graph of a
    bijection from the target's points to the source's.
    """

    pairs: list
    n_source_points: int
    n_target_points: int
    is_function: bool
    bijection: dict | None
    preserving: bool
    hp_source: HPReport
    hp_target: HPReport
    field_order: int


def spectrum_preserving_check(phi: AlgebraMap) -> SpectrumVerdict:
    """Test whether a linear map matches the two spectra point by point.

    For each primitive ideal of the target, its preimage subspace under
    the map is computed exactly; the relation holds against a source
    point when the preimage is contained in it.  Multiplicativity of the
    map is not required.
    """
    L, J = phi.source, phi.target
    if not (L.is_unital and J.is_unital):
        raise NonUnital("spectrum comparison needs unital algebras")
    rL = wedderburn_blocks(L)
    rJ = wedderburn_blocks(J)
    order = math.lcm(rL.field_order, rJ.field_order)
    if rL.field_order != order:
        rL = wedderburn_blocks(extend_scalars(L, order))
    if rJ.field_order != order:
        rJ = wedderburn_blocks(extend_scalars(J, order))
    field = field_of_order(order)
    matrix = phi.matrix if phi.matrix.field.order == order \
        else _lift_matrix(phi.matrix, field)
    pairs = []
    partners = []
    for j, point in enumerate(rJ.prim_points):
        preimage = preimage_subspace(matrix, point)
        mine = [i for i, src in enumerate(rL.prim_points)
                if src.contains_subspace(preimage)]
        partners.append(mine)
        pairs.extend((j, i) for i in mine)
    is_function = all(len(m) == 1 for m in partners)
    bijection = None
    preserving = False
    if is_function:
        bijection = {j: m[0] for j, m in enumerate(partners)}
        preserving = (len(set(bijection.values())) == len(bijection)
                      and len(bijection) == len(rL.prim_points))
    return SpectrumVerdict(
        pairs=pairs, n_source_points=len(rL.prim_points),
        n_target_points=len(rJ.prim_points), is_function=is_function,
        bijection=bijection, preserving=preserving,
        hp_source=hp(rL.algebra),
        hp_target=hp(rJ.algebra),
        field_order=order)


# -- layerwise comparison along filtrations ---------------------------------------

@dataclass
class LayerVerdict:
    k: int
    kind: str
    passed: bool
    verdict: SpectrumVerdict | None = None


@dataclass
class WeaklyReport(_ComparesHP):
    layers: list
    preserving: bool
    hp_source: HPReport
    hp_target: HPReport

    @property
    def ok(self) -> bool:
        return self.preserving and self.hp_agrees


def _zero_ideal(A: FDAlgebra) -> TwoSidedIdeal:
    return TwoSidedIdeal(A, Subspace.from_vectors(A.dim, A.field, []))


def _normalized_chain(filt: IdealFiltration) -> list:
    chain = list(filt.chain)
    if chain[-1].dim != 0:
        chain.append(_zero_ideal(filt.algebra))
    return chain


def _padded(chain: list, algebra: FDAlgebra, length: int) -> list:
    return chain + [_zero_ideal(algebra)] * (length - len(chain))


def _detect_unit(A: FDAlgebra) -> FDAlgebra:
    """Rebuild A, a layer and so without a unit, with its two-sided
    identity element when one exists."""
    unit = _span_identity(A, [A.basis_vector(i) for i in range(A.dim)])
    if unit is None:
        return A
    return FDAlgebra(A.dim, A.field_order, A.mul, labels=list(A.labels),
                     unit=unit, name=A.name).require_valid()


class _Layer:
    """One consecutive quotient of a filtration, with coordinate helpers."""

    def __init__(self, upper: TwoSidedIdeal, lower: TwoSidedIdeal):
        self.dim = upper.dim - lower.dim
        if self.dim == 0:
            self.algebra = None
            return
        sub, _ = ideal_as_algebra(upper)
        if lower.dim == 0:
            self.algebra = _detect_unit(sub)
            self._project = None
        else:
            # the filtration is nested, so each vector has coordinates
            inner_vecs = [upper.space.coords(v) for v in lower.space.basis]
            data = quotient_algebra(sub, two_sided_ideal(sub, inner_vecs))
            self.algebra = _detect_unit(data.algebra)
            self._project = data.projection
        self._upper = upper

    def to_layer(self, ambient_vec: dict) -> dict:
        vec = self._upper.space.coords(ambient_vec)
        return self._project.apply(vec) if self._project else vec

    def representative(self, index: int) -> dict:
        if self._project is None:
            return dict(self._upper.space.basis[index])
        # the projection is onto, so every coordinate lifts
        lift = self._project.matrix.solve({index: self.algebra.field.one})
        out = {}
        for i, c in lift.items():
            vec_axpy(out, c, self._upper.space.basis[i],
                     self._upper.parent.field)
        return out

    def is_nilpotent(self) -> bool:
        """Whether the layer has an empty spectrum; refuses unclear cases."""
        if self.algebra is None:
            return True
        full = Subspace.from_vectors(
            self.algebra.dim, self.algebra.field,
            [self.algebra.basis_vector(i) for i in range(self.algebra.dim)])
        if is_nilpotent_subspace(self.algebra, full):
            return True
        raise ValidationError(
            "layer algebra is neither nilpotent nor unital")


def weakly_spectrum_preserving_check(
        phi: AlgebraMap, source_filtration: IdealFiltration,
        target_filtration: IdealFiltration) -> WeaklyReport:
    """Compare two filtered algebras layer by layer along a linear map.

    The map must carry each source term into the matching target term.
    Both chains are extended to end at zero and padded to a common
    length; every pair of consecutive quotients is then compared, with
    nilpotent layers passing through the empty spectrum and unital layers
    going through the full point-correspondence test.
    """
    source_filtration.validate()
    target_filtration.validate()
    L, J = phi.source, phi.target
    if source_filtration.algebra is not L or target_filtration.algebra is not J:
        raise ValidationError("filtrations do not match the map's algebras")
    chain_L = _normalized_chain(source_filtration)
    chain_J = _normalized_chain(target_filtration)
    length = max(len(chain_L), len(chain_J))
    chain_L = _padded(chain_L, L, length)
    chain_J = _padded(chain_J, J, length)
    for k, (term_L, term_J) in enumerate(zip(chain_L, chain_J)):
        for v in term_L.space.basis:
            if not term_J.space.contains(phi.apply(v)):
                raise FiltrationNotRespected(
                    "the map sends filtration term %d outside its target" % k)
    layers = []
    for k in range(1, length):
        side_L = _Layer(chain_L[k - 1], chain_L[k])
        side_J = _Layer(chain_J[k - 1], chain_J[k])
        unital_L = side_L.algebra is not None and side_L.algebra.is_unital
        unital_J = side_J.algebra is not None and side_J.algebra.is_unital
        if unital_L and unital_J:
            images = [side_J.to_layer(phi.apply(side_L.representative(t)))
                      for t in range(side_L.algebra.dim)]
            layer_map = AlgebraMap.from_images(
                side_L.algebra, side_J.algebra, images)
            verdict = spectrum_preserving_check(layer_map)
            layers.append(LayerVerdict(k, "spectral", verdict.preserving,
                                       verdict))
            continue
        nil_L = side_L.is_nilpotent() if not unital_L else False
        nil_J = side_J.is_nilpotent() if not unital_J else False
        if unital_L or unital_J:
            # one side has points, the other has none: no bijection
            layers.append(LayerVerdict(k, "mismatched", False))
            continue
        kind = "zero" if (side_L.algebra is None and side_J.algebra is None) \
            else "nilpotent"
        layers.append(LayerVerdict(k, kind, nil_L and nil_J))
    return WeaklyReport(
        layers=layers, preserving=all(layer.passed for layer in layers),
        hp_source=hp(L), hp_target=hp(J))
