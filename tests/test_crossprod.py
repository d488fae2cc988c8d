"""Crossed products: the product algebra, class decomposition, psi and phi."""

from fractions import Fraction
from math import lcm

import pytest

from cychom import crossprod
from cychom.algebra import (
    AlgebraMap,
    FDAlgebra,
    ground_field,
    functions_on_points,
    truncated_polynomial,
    twisted_bimodule,
)
from cychom.crossprod import (
    CrossedProduct,
    crossed_product,
    hh_decomposition,
    invariants,
    phi_gamma,
    phi_isomorphism_report,
    psi_map,
    trivial_action,
    variety_crossed_product,
)
from cychom.errors import SizeOverflow, ValidationError
from cychom.groups import (
    FiniteVarietyAction,
    GroupAction,
    cyclic_group,
    dihedral_group_4,
    group_algebra,
    group_metadata,
    quaternion_group,
    symmetric_group_3,
    trivial_group,
)
from cychom.hochschild import _tensor_chain_matrix, hh, hh_with_coefficients
from cychom.linalg import SparseMatrix, Subspace, induced_map, vec_axpy
from cychom.scalars import Cyclotomic, field_of_order, lift_raw
from cychom.spectrum import wedderburn_blocks


# ---------------------------------------------------------------------------
# independent oracles


def commutator_quotient_dim(A):
    """dim A / [A, A] straight from the structure constants."""
    field = A.field
    rows = []
    for i in range(A.dim):
        for j in range(A.dim):
            v = dict(A.mul[i][j])
            vec_axpy(v, field.neg(field.one), A.mul[j][i], field)
            if v:
                rows.append(v)
    return A.dim - Subspace.from_vectors(A.dim, field, rows).dim


def twisted_class_dim_oracle(A, action, gamma):
    """Degree-zero class contribution by brute force.

    Quotient of the module by the span of a*m - m*gamma(a), then the rank
    of the centralizer-averaging operator on the residues.  No chain
    complex involved.
    """
    field = A.field
    rel = []
    for i in range(A.dim):
        for j in range(A.dim):
            v = dict(A.mul[i][j])
            right = A.multiply({j: field.one},
                               action.apply(gamma, {i: field.one}))
            vec_axpy(v, field.neg(field.one), right, field)
            if v:
                rel.append(v)
    R = Subspace.from_vectors(A.dim, field, rel)
    free = [k for k in range(A.dim) if k not in set(R.pivot_cols)]
    pos = {k: t for t, k in enumerate(free)}
    G = action.group
    cen = [h for h in range(G.order)
           if G.table[h][gamma] == G.table[gamma][h]]
    cols = []
    for k in free:
        total = {}
        for h in cen:
            img = R.reduce(action.apply(h, {k: field.one}))
            vec_axpy(total, field.one, img, field)
        cols.append({pos[c]: field.scale(v, Fraction(1, len(cen)))
                     for c, v in total.items()})
    return Subspace.from_vectors(len(free), field, cols).dim


def phi_oracle_matrix(cp, data):
    """phi for one class as the character-weighted sum of psi's block traces.

    The entry at delta_x (x) h and a fixed point y sums, over the coset
    reps r of the cyclic subgroup <gamma> with r^-1 h r = gamma^k and
    r^-1 x = y, the weight (1/d) sum_pi conj(pi(gamma)) pi(gamma^k), d the
    order of gamma.  phi_gamma uses that the weight is 1 at k = 1 mod d and
    0 elsewhere; this oracle sums the characters instead.
    """
    G = cp.group
    act = cp.variety
    field = field_of_order(lcm(G.exponent(), cp.product.field_order))
    d = len(data.cyclic)
    pos = {g: k for k, g in enumerate(data.cyclic)}
    chars = [[lift_raw(v.raw, field_of_order(v.order), field) for v in row]
             for row in data.characters]
    weights = []
    for k in range(d):
        total = field.zero
        for row in chars:
            # the conjugate of a root of unity is its inverse
            total = field.add(total, field.mul(field.inv(row[1 % d]),
                                               row[k]))
        weights.append(field.scale(total, Fraction(1, d)))
    fixed = act.fixed_points(data.rep)
    fpos = {x: t for t, x in enumerate(fixed)}
    cols = []
    for flat in range(cp.product.dim):
        g, x = cp.split_index(flat)
        col = {}
        for gi in G.coset_representatives(data.cyclic):
            inv = G.inverse(gi)
            k = pos.get(G.table[G.table[inv][g]][gi])
            t = fpos.get(act.perms[inv][x])
            if k is not None and t is not None:
                col[t] = field.add(col.get(t, field.zero), weights[k])
        cols.append({t: v for t, v in col.items() if not field.is_zero(v)})
    return SparseMatrix.from_columns(cols, len(fixed), field)


def raw_is(field, value, rational) -> bool:
    return field.is_zero(field.sub(value,
                                   field.from_rational(Fraction(rational))))


# ---------------------------------------------------------------------------
# corpus of point actions


def point_actions():
    Z2 = cyclic_group(2)
    Z3 = cyclic_group(3)
    S3 = symmetric_group_3()
    return [
        FiniteVarietyAction(Z2, 1, [(0,), (0,)], name="pt_triv"),
        FiniteVarietyAction(Z2, 2, [(0, 1), (1, 0)], name="swap2"),
        FiniteVarietyAction(Z2, 3, [(0, 1, 2), (1, 0, 2)], name="swapfix"),
        FiniteVarietyAction(Z3, 3, [(0, 1, 2), (1, 2, 0), (2, 0, 1)],
                            name="rot3"),
        FiniteVarietyAction(S3, 3,
                            [(0, 1, 2), (1, 0, 2), (2, 1, 0), (0, 2, 1),
                             (1, 2, 0), (2, 0, 1)], name="s3nat"),
    ]


# ---------------------------------------------------------------------------
# the product algebra


def test_trivial_z2_product_is_the_group_algebra():
    Q = ground_field()
    Z2 = cyclic_group(2)
    cp = crossed_product(Q, trivial_action(Z2, Q))
    B = group_algebra(Z2)
    assert cp.product.dim == 2
    assert cp.product.mul == B.mul
    assert cp.product.unit == B.unit


def test_swap_product_is_one_two_by_two_block():
    cp = variety_crossed_product(point_actions()[1])
    assert cp.product.dim == 4
    assert wedderburn_blocks(cp.product).sizes == (2,)


def test_swap_plus_fixed_product_blocks():
    cp = variety_crossed_product(point_actions()[2])
    assert cp.product.dim == 6
    assert wedderburn_blocks(cp.product).sizes == (2, 1, 1)


def test_product_layout_unit_and_inclusion():
    act = point_actions()[2]
    cp = variety_crossed_product(act)
    A = cp.base
    e = cp.group.identity
    assert cp.product.unit == {cp.pair_index(i, e): c
                               for i, c in A.unit.items()}
    inc = cp.base_inclusion()
    inc.validate()
    # the copy over the identity multiplies exactly like the base
    for i in range(A.dim):
        for j in range(A.dim):
            u = {cp.pair_index(i, e): A.field.one}
            v = {cp.pair_index(j, e): A.field.one}
            prod = cp.product.multiply(u, v)
            assert prod == {cp.pair_index(k, e): c
                            for k, c in A.mul[i][j].items()}
    assert cp.split_index(cp.pair_index(2, 1)) == (1, 2)


def test_product_multiplication_twists_the_right_factor():
    act = point_actions()[1]
    cp = variety_crossed_product(act)
    field = cp.base.field
    # (d0 (x) s)(d0 (x) s) = d0 * s(d0) (x) e = 0, while
    # (d0 (x) s)(d1 (x) s) = d0 * d0 (x) e = d0 (x) e
    u = {cp.pair_index(0, 1): field.one}
    assert cp.product.multiply(u, u) == {}
    v = {cp.pair_index(1, 1): field.one}
    assert cp.product.multiply(u, v) == {cp.pair_index(0, 0): field.one}


def test_oversized_product_is_rejected():
    Q8 = quaternion_group()
    A = functions_on_points(9)
    with pytest.raises(SizeOverflow):
        crossed_product(A, trivial_action(Q8, A))


def test_action_must_match_the_algebra():
    Z2 = cyclic_group(2)
    A = functions_on_points(2)
    B = functions_on_points(2)
    with pytest.raises(ValidationError):
        crossed_product(A, trivial_action(Z2, B))


def test_decomposition_rejects_negative_degrees():
    cp = variety_crossed_product(point_actions()[1])
    with pytest.raises(ValidationError):
        hh_decomposition(cp, -1)


def test_trivial_group_product_collapses_to_the_base():
    A = truncated_polynomial(2)
    cp = crossed_product(A, trivial_action(trivial_group(), A))
    assert cp.product.dim == A.dim
    assert cp.product.mul == A.mul
    rep = hh_decomposition(cp, 2)
    base = hh(A, 2)
    assert len(rep.contributions) == 1
    assert rep.contributions[0].dims == list(base.dims)
    assert rep.direct_dims == list(base.dims)
    assert rep.agrees


# ---------------------------------------------------------------------------
# class decomposition


def test_degree_zero_decomposition_examples():
    expected = {
        "pt_triv": ([1, 1], 2),
        "swap2": ([1, 0], 1),
        "swapfix": ([2, 1], 3),
    }
    by_name = {a.name: a for a in point_actions()}
    for name, (per_class, direct) in expected.items():
        cp = variety_crossed_product(by_name[name])
        rep = hh_decomposition(cp, 0)
        assert [c.dims[0] for c in rep.contributions] == per_class
        assert rep.direct_dims[0] == direct
        assert rep.agrees


def test_decomposition_matches_direct_and_oracles():
    for act in point_actions():
        cp = variety_crossed_product(act)
        # the largest product stays at degree <= 2 to keep chains desk-size
        n_max = 2 if cp.product.dim > 9 else 3
        rep = hh_decomposition(cp, n_max)
        assert rep.agrees, act.name
        assert rep.direct_dims[0] == commutator_quotient_dim(cp.product)
        for contrib in rep.contributions:
            oracle = twisted_class_dim_oracle(cp.base, cp.action, contrib.rep)
            assert contrib.dims[0] == oracle, (act.name, contrib.rep_name)


def test_decomposition_for_an_algebra_action():
    # Z/2 inverting a cyclic group of order 4; the product is the dihedral
    # group algebra, so the degree-zero total is its class count
    Z4 = cyclic_group(4)
    Z2 = cyclic_group(2)
    A = group_algebra(Z4)
    images = [{(4 - k) % 4: A.field.one} for k in range(4)]
    sigma = AlgebraMap.from_images(A, A, images, multiplicative=True,
                                   unital=True)
    sigma.validate()
    action = GroupAction(Z2, A, [AlgebraMap.identity(A), sigma])
    cp = crossed_product(A, action)
    rep = hh_decomposition(cp, 1)
    assert rep.direct_dims[0] == 5
    assert rep.agrees
    for contrib in rep.contributions:
        assert contrib.dims[0] == twisted_class_dim_oracle(A, action,
                                                           contrib.rep)


def parent_class_route(cp, n_max):
    """(twisted_dims, dims) per class, as hh_decomposition gave them on
    unnormalized twisted windows, each centralizer element's matrix put in
    place of every tensor factor as it is."""
    A, field = cp.base, cp.base.field
    out = []
    for data in group_metadata(cp.group).classes:
        twisted = twisted_bimodule(A, cp.action.automorphism(data.rep))
        rep = hh_with_coefficients(A, twisted, n_max, normalized=False)
        dims = []
        for q, degree in enumerate(rep.degrees):
            H = degree.homology
            ops = []
            for h in data.centralizer:
                M = [[[col]] for col in
                     cp.action.automorphism(h).matrix.columns()]
                ops.append(induced_map(_tensor_chain_matrix(
                    rep.window, rep.window, q, M, M), H, H))
            whole = Subspace.from_vectors(
                H.dim, field, [{k: field.one} for k in range(H.dim)])
            dims.append(invariants(whole, ops).dim if H.dim else 0)
        out.append((list(rep.dims), dims))
    return out


def _dihedral_product():
    # Z/2 inverting a cyclic group of order 4
    Z4, Z2 = cyclic_group(4), cyclic_group(2)
    A = group_algebra(Z4)
    sigma = AlgebraMap.from_images(
        A, A, [{(4 - k) % 4: A.field.one} for k in range(4)],
        multiplicative=True, unital=True)
    return crossed_product(A, GroupAction(Z2, A, [AlgebraMap.identity(A),
                                                  sigma]))


def _zeta3_rotation_product():
    # Z/3 acting on Q(zeta3)[x]/x^3 by x -> zeta3 x, whose classes have
    # homology in every degree; on the basis x, 1, x^2 the normalized slot
    # basis is not the algebra's, so the interior maps must be rebased
    A = FDAlgebra(3, 3, {(0, 0): {2: 1}, (0, 1): {0: 1}, (1, 0): {0: 1},
                         (1, 1): {1: 1}, (1, 2): {2: 1}, (2, 1): {2: 1}},
                  unit={1: 1}).require_valid()
    maps = [AlgebraMap.from_images(
        A, A, [{0: Cyclotomic.zeta(3, k)}, {1: 1},
               {2: Cyclotomic.zeta(3, 2 * k)}],
        multiplicative=True, unital=True) for k in range(3)]
    return crossed_product(A, GroupAction(cyclic_group(3), A, maps))


@pytest.mark.parametrize("build, n_max", [
    *[(lambda act=act: variety_crossed_product(act), 3)
      for act in point_actions()],
    (_dihedral_product, 2),
    (_zeta3_rotation_product, 3),
], ids=[act.name for act in point_actions()] + ["dihedral", "zeta3 rotation"])
def test_normalized_class_route_matches_the_parent_route(build, n_max):
    cp = build()
    report = hh_decomposition(cp, n_max)
    assert report.agrees
    assert [(c.twisted_dims, c.dims) for c in report.contributions] == \
        parent_class_route(cp, n_max)


def test_free_actions_count_orbits():
    for act in (point_actions()[1], point_actions()[3]):
        free = all(not act.fixed_points(g)
                   for g in range(1, act.group.order))
        assert free
        cp = variety_crossed_product(act)
        rep = hh_decomposition(cp, 0)
        assert rep.direct_dims[0] == len(act.orbits())


# ---------------------------------------------------------------------------
# averaging projector


def test_invariants_of_the_swap():
    field = field_of_order(1)
    swap = SparseMatrix.from_columns([{1: field.one}, {0: field.one}],
                                     2, field)
    whole = Subspace.from_vectors(2, field, [{0: field.one}, {1: field.one}])
    inv = invariants(whole, [SparseMatrix.identity(2, field), swap])
    assert inv.dim == 1
    assert inv.contains({0: field.one, 1: field.one})


def test_invariants_of_the_trivial_action_is_everything():
    field = field_of_order(1)
    whole = Subspace.from_vectors(3, field,
                                  [{k: field.one} for k in range(3)])
    inv = invariants(whole, [SparseMatrix.identity(3, field)])
    assert inv.dim == 3


def test_invariants_of_full_permutations_are_constants():
    S3 = symmetric_group_3()
    act = point_actions()[4]
    field = field_of_order(1)
    ops = []
    for g in range(S3.order):
        cols = [{act.perms[g][x]: field.one} for x in range(3)]
        ops.append(SparseMatrix.from_columns(cols, 3, field))
    whole = Subspace.from_vectors(3, field, [{k: field.one} for k in range(3)])
    inv = invariants(whole, ops)
    assert inv.dim == 1
    assert inv.contains({0: field.one, 1: field.one, 2: field.one})


def test_invariants_needs_a_stable_subspace():
    field = field_of_order(1)
    swap = SparseMatrix.from_columns([{1: field.one}, {0: field.one}],
                                     2, field)
    line = Subspace.from_vectors(2, field, [{0: field.one}])
    with pytest.raises(ValidationError):
        invariants(line, [SparseMatrix.identity(2, field), swap])


def test_invariants_needs_an_operator():
    field = field_of_order(1)
    whole = Subspace.from_vectors(2, field, [{0: field.one}, {1: field.one}])
    with pytest.raises(ValidationError, match="at least one operator"):
        invariants(whole, [])
    with pytest.raises(ValidationError, match="at least one operator"):
        invariants(whole, iter([]))


# ---------------------------------------------------------------------------
# psi


def test_psi_refuses_an_action_on_no_points():
    act = FiniteVarietyAction(cyclic_group(2), 0, [(), ()])
    with pytest.raises(ValidationError, match="number of points"):
        psi_map(act)


def test_psi_for_the_trivial_group_is_the_identity():
    act = FiniteVarietyAction(trivial_group(), 3, [(0, 1, 2)], name="triv3")
    psi = psi_map(act)
    assert psi.target_dim == 3
    assert len(psi.blocks) == 1 and psi.blocks[0].m == 1
    assert psi.empty_classes == []
    for k in range(3):
        assert psi.apply({k: 1}) == {k: psi.matrix.field.one}


def test_psi_swap_reports_the_empty_class():
    psi = psi_map(point_actions()[1])
    assert psi.empty_classes == [1]
    shapes = [(b.rep_name, b.char_index, b.m, len(b.fixed))
              for b in psi.blocks]
    assert shapes == [("e", 0, 2, 2), ("g", 0, 1, 0), ("g", 1, 1, 0)]
    # on the base copy the identity-class block is diagonal, carrying the
    # function in the first slot and its swap in the second
    cp = psi.crossed
    field = psi.matrix.field
    for x in range(2):
        img = psi.apply({cp.pair_index(x, 0): 1})
        block = psi.component(img, psi.blocks[0])
        assert set(block) == {(0, 0, x), (1, 1, 1 - x)}
        assert all(raw_is(field, v, 1) for v in block.values())


def test_psi_point_with_trivial_involution():
    psi = psi_map(point_actions()[0])
    field = psi.matrix.field
    assert [(b.rep_name, b.char_index, b.m) for b in psi.blocks] == [
        ("e", 0, 2), ("g", 0, 1), ("g", 1, 1)]
    img = psi.apply({psi.crossed.pair_index(0, 1): 1})
    regular = psi.component(img, psi.blocks[0])
    assert set(regular) == {(0, 1, 0), (1, 0, 0)}
    assert all(raw_is(field, v, 1) for v in regular.values())
    plus = psi.component(img, psi.blocks[1])
    minus = psi.component(img, psi.blocks[2])
    assert list(plus.values()) and raw_is(field, plus[(0, 0, 0)], 1)
    assert list(minus.values()) and raw_is(field, minus[(0, 0, 0)], -1)


def test_psi_sends_the_unit_to_every_block_identity():
    for act in point_actions():
        psi = psi_map(act)
        field = psi.matrix.field
        image = psi.apply(psi.crossed.product.unit,
                          source_order=psi.field_order)
        for b in psi.blocks:
            block = psi.component(image, b)
            expected = {(r, r, t) for r in range(b.m)
                        for t in range(len(b.fixed))}
            assert set(block) == expected
            assert all(raw_is(field, v, 1) for v in block.values())


def test_psi_refuses_a_component_that_is_not_unital(monkeypatch):
    # every block value doubled: the unit goes to twice each identity
    act = point_actions()[2]
    field = field_of_order(act.group.exponent())
    block_value = crossprod._psi_block_value
    monkeypatch.setattr(
        crossprod, "_psi_block_value",
        lambda *args: {k: field.add(v, v)
                       for k, v in block_value(*args).items()})
    with pytest.raises(ValidationError, match="not unital on block 0"):
        psi_map(act)


def test_psi_refuses_a_component_that_is_not_multiplicative(monkeypatch):
    # the values are right, and so the unit check passes; a block product
    # that comes out zero disagrees with the first product of the table
    monkeypatch.setattr(crossprod, "_block_mul", lambda u, v, m, field: {})
    with pytest.raises(ValidationError,
                       match=r"component 0 is not multiplicative at pair \(0, 0\)"):
        psi_map(point_actions()[2])


def test_psi_components_respect_products():
    # blockwise matrix product over the fixed set, recomputed from scratch
    psi = psi_map(point_actions()[2])
    cp = psi.crossed
    field = psi.matrix.field
    values = [psi.apply({k: 1}) for k in range(cp.product.dim)]
    for ku in range(cp.product.dim):
        for kv in range(cp.product.dim):
            image = psi.apply(cp.product.mul[ku][kv],
                              source_order=psi.field_order)
            for b in psi.blocks:
                u = psi.component(values[ku], b)
                v = psi.component(values[kv], b)
                got = {}
                for (r, s, t), a in u.items():
                    for c in range(b.m):
                        w = v.get((s, c, t))
                        if w is None:
                            continue
                        key = (r, c, t)
                        term = field.mul(a, w)
                        got[key] = field.add(got.get(key, field.zero), term)
                expected = psi.component(image, b)
                keys = set(got) | set(expected)
                for key in keys:
                    diff = field.sub(got.get(key, field.zero),
                                     expected.get(key, field.zero))
                    assert field.is_zero(diff)


# ---------------------------------------------------------------------------
# phi


def test_phi_point_involution_coefficient():
    cp = variety_crossed_product(point_actions()[0])
    phi = phi_gamma(cp, 1)
    # (1*1 + (-1)*(-1)) / 2 = 1 on the involution summand, 0 on the rest
    field = field_of_order(phi.field_order)
    assert phi.apply({cp.pair_index(0, 0): 1}) == {}
    image = phi.apply({cp.pair_index(0, 1): 1})
    assert set(image) == {0} and raw_is(field, image[0], 1)


def test_phi_swap_plus_fixed_hits_the_fixed_point():
    cp = variety_crossed_product(point_actions()[2])
    phi = phi_gamma(cp, 1)
    assert phi.fixed == [2]
    report = phi_isomorphism_report(cp)
    verdict = report.verdicts[1]
    assert verdict.rep == 1
    assert verdict.summand_dim == 1 and verdict.target_dim == 1
    assert verdict.bijective


def test_phi_for_the_trivial_group_is_the_identity():
    act = FiniteVarietyAction(trivial_group(), 2, [(0, 1)], name="triv2")
    cp = variety_crossed_product(act)
    phi = phi_gamma(cp, 0)
    field = field_of_order(phi.field_order)
    for x in range(2):
        image = phi.apply({cp.pair_index(x, 0): 1})
        assert set(image) == {x} and raw_is(field, image[x], 1)


def test_phi_matches_the_character_weighted_oracle():
    for act in point_actions():
        for order in (1, act.group.exponent()):
            cp = variety_crossed_product(act, field_order=order)
            for data in group_metadata(cp.group).classes:
                phi = phi_gamma(cp, data.rep)
                oracle = phi_oracle_matrix(cp, data)
                assert phi.matrix.equals(oracle), (act.name, order, data.rep)


def test_phi_is_bijective_class_by_class():
    for act in point_actions():
        report = phi_isomorphism_report(variety_crossed_product(act))
        assert report.ok, act.name
        for v in report.verdicts:
            assert v.vanishes_off_class
            assert v.summand_dim == v.target_dim


def test_phi_needs_a_point_action():
    Q = ground_field()
    cp = crossed_product(Q, trivial_action(cyclic_group(2), Q))
    assert cp.variety is None
    with pytest.raises(ValidationError):
        phi_gamma(cp, 1)
    with pytest.raises(ValidationError, match="built from a point permutation"):
        phi_isomorphism_report(cp)


def test_phi_report_sees_a_map_that_leaks_off_its_class(monkeypatch):
    # phi of the identity class given one nonzero entry at the column of
    # delta_0 (x) g: the report must say that it does not vanish off the class
    cp = variety_crossed_product(point_actions()[2])
    assert phi_isomorphism_report(cp).ok
    build = crossprod.phi_gamma

    def leaky(cp, rep):
        phi = build(cp, rep)
        if rep == 0:
            phi.matrix.set(0, cp.pair_index(0, 1), 1)
        return phi

    monkeypatch.setattr(crossprod, "phi_gamma", leaky)
    report = phi_isomorphism_report(cp)
    assert not report.ok
    assert [v.vanishes_off_class for v in report.verdicts] == [False, True]
    assert all(v.bijective for v in report.verdicts)


def test_only_the_point_permutation_sets_the_variety():
    # the variety is the permutation the action was built from; no call
    # takes one beside an action, so the two cannot disagree
    swap = point_actions()[1]
    cp = variety_crossed_product(swap)
    assert cp.variety is swap
    still = FiniteVarietyAction(cyclic_group(2), 2, [(0, 1), (0, 1)])
    with pytest.raises(TypeError):
        crossed_product(cp.base, cp.action, variety=still)
    with pytest.raises(TypeError):
        CrossedProduct(cp.base, cp.group, cp.action, cp.product,
                       variety=still)


def test_phi_wants_class_representatives():
    # in S3 the transposition class has representative index 1
    cp = variety_crossed_product(point_actions()[4])
    with pytest.raises(ValidationError):
        phi_gamma(cp, 2)


# ---------------------------------------------------------------------------
# group exponent


def test_exponent_from_the_table():
    for G, expected in ((cyclic_group(3), 3), (symmetric_group_3(), 6),
                        (dihedral_group_4(), 4), (quaternion_group(), 4)):
        brute = 1
        for g in range(G.order):
            brute = lcm(brute, G.element_order(g))
        assert G.exponent() == expected == brute
