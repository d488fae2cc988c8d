"""Group tables, conjugacy metadata, group algebras, and actions."""

import pytest

from cychom.algebra import AlgebraMap, truncated_polynomial
from cychom.errors import NotAutomorphism, ValidationError
from cychom.groups import (
    FiniteGroup,
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
from cychom.scalars import Cyclotomic


def test_cyclic_four_basics():
    G = cyclic_group(4)
    assert G.order == 4
    assert G.identity == 0
    assert G.inverse(1) == 3
    assert G.element_order(1) == 4
    assert G.element_order(2) == 2
    assert G.conjugacy_classes() == [[0], [1], [2], [3]]


def test_s3_classes_and_centralizer():
    G = symmetric_group_3()
    classes = G.conjugacy_classes()
    assert [len(c) for c in classes] == [1, 3, 2]
    assert classes == [[0], [1, 2, 3], [4, 5]]
    # centralizer of a transposition has order 2
    assert G.centralizer(1) == [0, 1]
    # orbit-stabilizer: class size times centralizer order is the group order
    for c in classes:
        assert len(c) * len(G.centralizer(c[0])) == G.order


def test_d4_classes():
    G = dihedral_group_4()
    classes = G.conjugacy_classes()
    assert classes == [[0], [1, 3], [2], [4, 6], [5, 7]]


def test_q8_classes_and_orders():
    G = quaternion_group()
    assert G.conjugacy_classes() == [[0], [1], [2, 3], [4, 5], [6, 7]]
    assert G.element_order(1) == 2
    assert all(G.element_order(g) == 4 for g in range(2, 8))
    # i * j = k and j * i = -k
    assert G.names[G.mult(2, 4)] == "k"
    assert G.names[G.mult(4, 2)] == "-k"


def test_cyclic_subgroup_of_i_in_q8():
    G = quaternion_group()
    assert G.cyclic_subgroup(2) == [0, 2, 1, 3]


def test_coset_representatives():
    G = symmetric_group_3()
    rot = G.cyclic_subgroup(4)
    reps = G.coset_representatives(rot)
    assert reps == [0, 1]
    covered = sorted(G.mult(r, h) for r in reps for h in rot)
    assert covered == list(range(6))


def test_table_without_identity_rejected():
    with pytest.raises(ValidationError):
        FiniteGroup([[0, 0], [0, 0]])


def test_table_without_inverse_rejected():
    with pytest.raises(ValidationError):
        FiniteGroup([[0, 1], [1, 1]])


def test_nonassociative_loop_rejected():
    # smallest nonassociative loop: order 5, identity and inverses exist
    table = [
        [0, 1, 2, 3, 4],
        [1, 0, 3, 4, 2],
        [2, 4, 0, 1, 3],
        [3, 2, 4, 0, 1],
        [4, 3, 1, 2, 0],
    ]
    with pytest.raises(ValidationError):
        FiniteGroup(table)


def test_group_metadata_s3():
    meta = group_metadata(symmetric_group_3())
    assert [c.size for c in meta.classes] == [1, 3, 2]
    assert [c.rep for c in meta.classes] == [0, 1, 4]
    rot = meta.classes[2]
    assert rot.cyclic == [0, 4, 5]
    assert len(rot.characters) == 3
    assert rot.characters[1][1] == Cyclotomic.zeta(3)
    # characters are orthogonal on the cyclic subgroup
    # (the conjugate of a root of unity is its inverse)
    d = len(rot.cyclic)
    K = rot.characters[0][0].field
    for j in range(d):
        for l in range(d):
            total = K.zero
            for k in range(d):
                total = K.add(total, K.mul(rot.characters[j][k].raw,
                                           K.inv(rot.characters[l][k].raw)))
            assert Cyclotomic.from_raw(total, K.order) == (d if j == l else 0)


def test_group_metadata_centralizers():
    meta = group_metadata(dihedral_group_4())
    by_rep = {c.rep: c for c in meta.classes}
    assert len(by_rep[0].centralizer) == 8
    assert len(by_rep[1].centralizer) == 4
    assert len(by_rep[4].centralizer) == 4


def test_group_algebra_z2():
    A = group_algebra(cyclic_group(2))
    g = A.basis_vector(1)
    assert A.multiply(g, g) == A.unit
    assert A.validate().unital


def test_group_algebra_s3():
    A = group_algebra(symmetric_group_3())
    assert A.dim == 6
    assert A.validate().ok
    assert A.labels[1] == "(12)"
    assert not A.is_commutative()


def test_group_algebra_of_trivial_group_is_the_field():
    A = group_algebra(trivial_group())
    assert A.dim == 1
    assert A.multiply(A.unit, A.unit) == A.unit


def test_variety_action_swap():
    G = cyclic_group(2)
    act = FiniteVarietyAction(G, 2, [(0, 1), (1, 0)])
    assert act.fixed_points(1) == []
    assert act.fixed_points(0) == [0, 1]
    assert act.orbits() == [[0, 1]]
    alg = act.algebra_action()
    assert alg.apply(1, {0: 1}) == {1: 1}


def test_variety_action_rotation_orbits():
    G = cyclic_group(3)
    act = FiniteVarietyAction(G, 3, [(0, 1, 2), (1, 2, 0), (2, 0, 1)])
    assert act.orbits() == [[0, 1, 2]]
    assert act.fixed_points(1) == []
    act.algebra_action()


def test_variety_action_rejects_non_permutation():
    G = cyclic_group(2)
    with pytest.raises(ValidationError):
        FiniteVarietyAction(G, 2, [(0, 1), (0, 0)])


def test_variety_action_rejects_group_law_violation():
    G = cyclic_group(2)
    with pytest.raises(ValidationError):
        FiniteVarietyAction(G, 3, [(0, 1, 2), (1, 2, 0)])


def test_group_action_sign_on_dual_numbers():
    G = cyclic_group(2)
    A = truncated_polynomial(2)
    sign = AlgebraMap.from_images(A, A, [{0: 1}, {1: -1}])
    action = GroupAction(G, A, [AlgebraMap.identity(A), sign])
    assert action.apply(1, {1: 3}) == {1: -3}


def test_group_action_rejects_wrong_order_automorphism():
    # x -> 2x is an automorphism, but its square is not the identity
    G = cyclic_group(2)
    A = truncated_polynomial(2)
    double = AlgebraMap.from_images(A, A, [{0: 1}, {1: 2}])
    with pytest.raises(NotAutomorphism):
        GroupAction(G, A, [AlgebraMap.identity(A), double])


def _action_on_dual_numbers(*maps):
    # Z/2 on A = Q[x]/x^2, each element's map built from A
    A = truncated_polynomial(2)
    return GroupAction(cyclic_group(2), A, [m(A) for m in maps])


def _sign(A):
    return AlgebraMap.from_images(A, A, [{0: 1}, {1: -1}])


def _on_a_copy(A):
    return AlgebraMap.identity(truncated_polynomial(2))


@pytest.mark.parametrize("error, message, build", [
    (ValidationError, "multiplication table must be square",
     lambda: FiniteGroup([[0, 1], [1]])),
    (ValidationError, "table entry out of range",
     lambda: FiniteGroup([[0, 2], [1, 0]])),
    (ValidationError, "expected 2 element names",
     lambda: FiniteGroup([[0, 1], [1, 0]], names=["e"])),
    (ValidationError, "need one automorphism per group element",
     lambda: _action_on_dual_numbers(AlgebraMap.identity)),
    (NotAutomorphism, "action maps must live on the algebra",
     lambda: _action_on_dual_numbers(AlgebraMap.identity, _on_a_copy)),
    (NotAutomorphism, "identity element must act as identity",
     lambda: _action_on_dual_numbers(_sign, AlgebraMap.identity)),
    (ValidationError, "need one permutation per group element",
     lambda: FiniteVarietyAction(cyclic_group(2), 2, [(0, 1)])),
    (ValidationError, "identity element must fix every point",
     lambda: FiniteVarietyAction(cyclic_group(2), 2, [(1, 0), (0, 1)])),
], ids=["non-square table", "entry out of range", "names", "automorphisms",
        "map on another algebra", "identity acts", "permutations",
        "identity moves a point"])
def test_group_refusals_are_typed(error, message, build):
    with pytest.raises(error) as info:
        build()
    assert info.type is error and str(info.value) == message
