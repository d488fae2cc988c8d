"""Finite groups by multiplication table, group algebras, and actions.

Conjugacy data is computed by brute force over the table.  That is the
point: these values anchor the homological computations downstream, so
they must come from first principles rather than from any clever theory.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import lcm

from .algebra import AlgebraMap, FDAlgebra, functions_on_points
from .errors import NotAutomorphism, ValidationError, check_int
from .linalg import SparseMatrix
from .scalars import Cyclotomic


class FiniteGroup:
    """A finite group as an explicit multiplication table.

    table[g][h] is the index of g*h.  Construction checks the group
    axioms outright, so a FiniteGroup in hand is always a group.
    """

    def __init__(self, table, names=None, name=""):
        n = len(table)
        if any(len(row) != n for row in table):
            raise ValidationError("multiplication table must be square")
        for row in table:
            for v in row:
                if not 0 <= v < n:
                    raise ValidationError("table entry out of range")
        self.order = n
        self.table = [list(row) for row in table]
        self.name = name
        self.names = list(names) if names else ["g%d" % i for i in range(n)]
        if len(self.names) != n:
            raise ValidationError("expected %d element names" % n)
        self.identity = self._find_identity()
        self._inverse = self._find_inverses()
        self._check_associativity()
        self._classes = None

    def _find_identity(self) -> int:
        for e in range(self.order):
            if all(self.table[e][g] == g and self.table[g][e] == g
                   for g in range(self.order)):
                return e
        raise ValidationError("table has no identity element")

    def _find_inverses(self):
        inv = [None] * self.order
        e = self.identity
        for g in range(self.order):
            for h in range(self.order):
                if self.table[g][h] == e and self.table[h][g] == e:
                    inv[g] = h
                    break
            if inv[g] is None:
                raise ValidationError("element %d has no inverse" % g)
        return inv

    def _check_associativity(self) -> None:
        t = self.table
        for a in range(self.order):
            for b in range(self.order):
                ab = t[a][b]
                for c in range(self.order):
                    if t[ab][c] != t[a][t[b][c]]:
                        raise ValidationError(
                            "table is not associative at (%d, %d, %d)"
                            % (a, b, c))

    def mult(self, g: int, h: int) -> int:
        return self.table[g][h]

    def inverse(self, g: int) -> int:
        return self._inverse[g]

    def conjugate(self, g: int, x: int) -> int:
        """g x g^-1."""
        return self.table[self.table[g][x]][self._inverse[g]]

    def exponent(self) -> int:
        """Least common multiple of the element orders."""
        out = 1
        for g in range(self.order):
            out = lcm(out, self.element_order(g))
        return out

    def element_order(self, g: int) -> int:
        k, acc = 1, g
        while acc != self.identity:
            acc = self.table[acc][g]
            k += 1
        return k

    def conjugacy_classes(self):
        """Classes as sorted index lists, ordered by smallest member."""
        if self._classes is None:
            seen = set()
            classes = []
            for x in range(self.order):
                if x in seen:
                    continue
                orbit = sorted({self.conjugate(g, x)
                                for g in range(self.order)})
                seen.update(orbit)
                classes.append(orbit)
            self._classes = classes
        return self._classes

    def centralizer(self, g: int):
        return [h for h in range(self.order)
                if self.table[h][g] == self.table[g][h]]

    def cyclic_subgroup(self, g: int):
        """Powers of g starting from the identity."""
        out = [self.identity]
        acc = g
        while acc != self.identity:
            out.append(acc)
            acc = self.table[acc][g]
        return out

    def coset_representatives(self, subgroup):
        """Left coset reps of the given subgroup, lowest index first."""
        sub = list(subgroup)
        reps, seen = [], set()
        for g in range(self.order):
            if g in seen:
                continue
            reps.append(g)
            seen.update(self.table[g][h] for h in sub)
        return reps


def cyclic_group(n: int) -> FiniteGroup:
    check_int(n, "group order", 1)
    table = [[(i + j) % n for j in range(n)] for i in range(n)]
    names = ["e"] + ["g" if k == 1 else "g%d" % k for k in range(1, n)]
    return FiniteGroup(table, names=names, name="Z%d" % n)


def trivial_group() -> FiniteGroup:
    return FiniteGroup([[0]], names=["e"], name="Z1")


def _perm_group(perms, names, name):
    index = {p: i for i, p in enumerate(perms)}
    table = [[index[tuple(p[q[t]] for t in range(len(p)))] for q in perms]
             for p in perms]
    return FiniteGroup(table, names=names, name=name)


def symmetric_group_3() -> FiniteGroup:
    perms = [(0, 1, 2), (1, 0, 2), (2, 1, 0), (0, 2, 1), (1, 2, 0), (2, 0, 1)]
    names = ["e", "(12)", "(13)", "(23)", "(123)", "(132)"]
    return _perm_group(perms, names, "S3")


def dihedral_group_4() -> FiniteGroup:
    """Symmetries of the square: r^4 = s^2 = e, s r s = r^3."""
    rot = (1, 2, 3, 0)
    flip = (1, 0, 3, 2)
    ident = (0, 1, 2, 3)

    def compose(p, q):
        return tuple(p[q[t]] for t in range(4))

    perms, acc = [], ident
    for _ in range(4):
        perms.append(acc)
        acc = compose(rot, acc)
    perms += [compose(p, flip) for p in perms]
    names = ["e", "r", "r2", "r3", "s", "rs", "r2s", "r3s"]
    return _perm_group(perms, names, "D4")


def quaternion_group() -> FiniteGroup:
    """The eight quaternion units as signed pairs (sign, axis)."""
    names = ["1", "-1", "i", "-i", "j", "-j", "k", "-k"]
    # multiplication of units: axis table with signs, 0 = scalar axis
    axis_mul = {
        (0, 0): (1, 0), (0, 1): (1, 1), (0, 2): (1, 2), (0, 3): (1, 3),
        (1, 0): (1, 1), (1, 1): (-1, 0), (1, 2): (1, 3), (1, 3): (-1, 2),
        (2, 0): (1, 2), (2, 1): (-1, 3), (2, 2): (-1, 0), (2, 3): (1, 1),
        (3, 0): (1, 3), (3, 1): (1, 2), (3, 2): (-1, 1), (3, 3): (-1, 0),
    }

    def decode(t):
        return (1 if t % 2 == 0 else -1), t // 2

    def encode(sign, axis):
        return axis * 2 + (0 if sign == 1 else 1)

    table = []
    for a in range(8):
        row = []
        for b in range(8):
            sa, xa = decode(a)
            sb, xb = decode(b)
            sc, xc = axis_mul[(xa, xb)]
            row.append(encode(sa * sb * sc, xc))
        table.append(row)
    return FiniteGroup(table, names=names, name="Q8")


# ---------------------------------------------------------------------------
# group algebras and conjugacy metadata


def group_algebra(G: FiniteGroup, field_order=1) -> FDAlgebra:
    mul = {}
    for i in range(G.order):
        for j in range(G.order):
            mul[(i, j)] = {G.table[i][j]: 1}
    A = FDAlgebra(G.order, field_order, mul, labels=list(G.names),
                  unit={G.identity: 1},
                  name="group_algebra(%s)" % (G.name or "G"))
    A.group = G
    return A.require_valid()


@dataclass
class ClassData:
    rep: int
    members: list
    size: int
    centralizer: list
    cyclic: list
    characters: list


@dataclass
class GroupMetadata:
    group: FiniteGroup
    classes: list


def group_metadata(G: FiniteGroup) -> GroupMetadata:
    """Conjugacy classes with their centralizers and cyclic character data.

    Representatives are the lowest element index in each class.  For a
    representative g of order d, the characters of the cyclic subgroup it
    generates send g^k to zeta_d^(j*k) for j = 0 .. d-1; values are listed
    in the power order e, g, g^2, ...
    """
    out = []
    for members in G.conjugacy_classes():
        rep = members[0]
        cyclic = G.cyclic_subgroup(rep)
        d = len(cyclic)
        characters = []
        for j in range(d):
            characters.append([Cyclotomic.zeta(d, (j * k) % d)
                               for k in range(d)])
        out.append(ClassData(rep=rep, members=list(members),
                             size=len(members),
                             centralizer=G.centralizer(rep),
                             cyclic=cyclic, characters=characters))
    return GroupMetadata(group=G, classes=out)


# ---------------------------------------------------------------------------
# actions


class GroupAction:
    """An action of a finite group on an algebra by unital automorphisms.

    Construction is strict: every matrix must be a verified automorphism
    and the assignment must respect the multiplication table.
    """

    def __init__(self, group: FiniteGroup, algebra: FDAlgebra, maps, name=""):
        if len(maps) != group.order:
            raise ValidationError("need one automorphism per group element")
        self.group = group
        self.algebra = algebra
        self.maps = list(maps)
        self.name = name
        for m in self.maps:
            if m.source is not algebra or m.target is not algebra:
                raise NotAutomorphism("action maps must live on the algebra")
            m.require_automorphism()
        ident = SparseMatrix.identity(algebra.dim, algebra.field)
        if not self.maps[group.identity].matrix.equals(ident):
            raise NotAutomorphism("identity element must act as identity")
        for g in range(group.order):
            for h in range(group.order):
                gh = group.table[g][h]
                comp = self.maps[g].matrix.matmul(self.maps[h].matrix)
                if not comp.equals(self.maps[gh].matrix):
                    raise NotAutomorphism(
                        "action fails the group law at pair (%d, %d)" % (g, h))

    def apply(self, g: int, vec: dict) -> dict:
        return self.maps[g].apply(vec)

    def automorphism(self, g: int) -> AlgebraMap:
        return self.maps[g]


class FiniteVarietyAction:
    """A finite group permuting a finite set of points.

    perms[g] is the tuple sending a point x to perms[g][x]; the induced
    algebra action on functions permutes the delta-function basis the
    same way.
    """

    def __init__(self, group: FiniteGroup, n_points: int, perms, name=""):
        if len(perms) != group.order:
            raise ValidationError("need one permutation per group element")
        self.group = group
        self.n_points = n_points
        self.perms = [tuple(p) for p in perms]
        self.name = name
        for p in self.perms:
            if sorted(p) != list(range(n_points)):
                raise ValidationError("entries must be permutations of the points")
        if self.perms[group.identity] != tuple(range(n_points)):
            raise ValidationError("identity element must fix every point")
        for g in range(group.order):
            for h in range(group.order):
                gh = group.table[g][h]
                composed = tuple(self.perms[g][self.perms[h][x]]
                                 for x in range(n_points))
                if composed != self.perms[gh]:
                    raise ValidationError(
                        "permutations fail the group law at pair (%d, %d)"
                        % (g, h))

    def fixed_points(self, g: int):
        return [x for x in range(self.n_points) if self.perms[g][x] == x]

    def orbits(self):
        seen, out = set(), []
        for x in range(self.n_points):
            if x in seen:
                continue
            orbit = sorted({p[x] for p in self.perms})
            seen.update(orbit)
            out.append(orbit)
        return out

    def algebra_action(self, field_order=1) -> GroupAction:
        """The induced action on functions, sending delta_x to delta_(g.x)."""
        A = functions_on_points(self.n_points, field_order)
        maps = []
        for g in range(self.group.order):
            images = [{self.perms[g][x]: A.field.one}
                      for x in range(self.n_points)]
            maps.append(AlgebraMap.from_images(A, A, images,
                                               multiplicative=True,
                                               unital=True))
        return GroupAction(self.group, A, maps, name=self.name)
