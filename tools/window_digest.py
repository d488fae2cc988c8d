"""Print digests of the matrices of the one-block, central-block and walk
windows and of the wedderburn_blocks reports.

Run from the repository root:

    python3 tools/window_digest.py

It prints seven lines, each with a number of entries and a sha256.  The
first covers a fixed corpus of windows (normalized and unnormalized bar
complexes, the B blocks and total differentials of the (b, B) complex that
tests/bicomplex_oracle.py builds as the oracle of the routes on Connes'
complex, induced maps, Morita maps, coefficient windows, and bar windows
relative to the central idempotents of structure.block_idempotents),
hashed over the repr of their rows, so it also sees the order of the
entries in each row.  The maps on homology (induced
maps, Morita iota and Tr) are hashed in a basis the script derives from the
complex alone (the rref of the boundary space and the canonical kernel of
the outgoing differential on its free coordinates), not in the basis of the
library's representatives, which depends on how the boundary basis was
eliminated; every chain-level entry is hashed as it is.  The second covers
the walk windows of hh (slot basis, its inverse, its product table mulf and
the boundaries) and the wedderburn_blocks reports of a few group algebras
and upper_triangular(3) (idempotents, primitive points and central
characters), hashed over sorted dict items, so only values count.  The third covers
structure.block_idempotents and structure.split_idempotents, each list in
its order, on fifteen algebras: QS3 over Q and Q(zeta3), QD4, QZ4, QZ5,
Q[x]/x^3 + M_2(Q), M_2(Q[x]/x^2), Q[t]/t^2(t - 1), upper_triangular(3) on
its own basis and on one whose first element is not semisimple, and the
five point-action crossed products of perfbench/cases.py; it is hashed like
the second.  The fourth covers Chern character chains (degree and chain in
the total complex), each raised over its carrier, the subalgebra of the
matrices that the unit and the class's tensor factors generate, and pushed
into the total complex of the algebra: chern_idempotent of the
trivial-character idempotent of QZ5 and of its 2 x 2 block sum with the
complement for q <= 2, chern_invertible of the generator of QZ3 for
q <= 1, and over Q(zeta3) the character idempotent of Z/3 for q <= 2 and
chern_invertible of zeta3 at q = 1; it is hashed like the second.  The fifth covers chain maps that put
matrices bigger than 1 x 1 in place of tensor factors or run over Q(zeta3):
the Morita iota and Tr chains and their canonical homology maps of the
ground field with N = 3 to degree 2, Q[x]/x^2 with N = 3 to degree 1 and
Q(zeta3)[x]/x^2 with N = 2 to degree 2, the action of each basis vector of
the center of QS3 on its hh walk window in degrees 0-2, and the chain maps
of induced_map_hc of the swap of two points to degree 3, word by word
between the normalized Connes windows of hc; it is hashed like the
first.  The sixth covers the windows of Connes' complex behind hc (dims
and boundaries) of Q[x]/x^4 and Q[x]/x^5 to degree 6 and of Q(zeta3)[x]/x^3
on the basis 1, zeta3 x, x^2 to degree 4, normalized and not; it is hashed
like the first.  The seventh covers Connes' S, the chain-level periodicity
map behind hp's stabilization: its image of every homology representative
of hc's window in degrees 2 and up, for Q[x]/x^4 and QZ3 to degree 6 and
upper_triangular(3) to degree 4, normalized and not; it is hashed like the
second.  Every line hashes an integral Fraction as the equal int (a
rational scalar may be stored either way), and the first, fifth and sixth
still keep every row's entry order.  Two checkouts that compute the same
windows, maps, reports and idempotents print the same lines.  The script re-runs itself
with PYTHONHASHSEED=0, so set iteration order cannot change the hash
between runs.
"""

import hashlib
import os
import sys
from fractions import Fraction

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _algebras():
    from cychom.algebra import direct_sum, functions_on_points, ground_field, \
        matrix_algebra, truncated_polynomial, upper_triangular
    from cychom.crossprod import variety_crossed_product
    from cychom.groups import FiniteVarietyAction, cyclic_group, \
        group_algebra, symmetric_group_3
    from cychom.spectrum import extend_scalars

    QS3 = group_algebra(symmetric_group_3())
    Z3 = cyclic_group(3)
    rot3 = FiniteVarietyAction(Z3, 3, [(0, 1, 2), (1, 2, 0), (2, 0, 1)],
                               name="rot3")
    return [
        ("T3", truncated_polynomial(3), 4),
        ("T4", truncated_polynomial(4), 4),
        ("F3", functions_on_points(3), 3),
        ("M2", matrix_algebra(ground_field(), 2), 3),
        ("U2", upper_triangular(2), 3),
        ("QS3", QS3, 3),
        ("QS3z3", extend_scalars(QS3, 3), 2),
        ("QZ5", group_algebra(cyclic_group(5)), 2),
        ("T3+M2", direct_sum(truncated_polynomial(3),
                             matrix_algebra(ground_field(), 2)).algebra, 3),
        ("rot3", variety_crossed_product(rot3).product, 2),
    ]


def _entries():
    from cychom.algebra import AlgebraMap, functions_on_points, \
        twisted_bimodule
    from cychom.hochschild import bar_complex, hh_with_coefficients, \
        induced_map_hh, tr_star_and_iota
    from cychom.structure import block_idempotents
    from tests.bicomplex_oracle import total_complex

    def window(label, w):
        yield label + " dims", w.dims
        for n in range(1, w.n_max + 1):
            yield "%s d%d" % (label, n), w.boundaries[n].rows

    def induced(label, phi, top):
        ind = induced_map_hh(phi, top)
        for n, (f, h) in enumerate(zip(ind.chain_maps, ind.homology_maps)):
            yield "%s induced%d" % (label, n), (f.rows, _canonical_map(
                h, ind.source.degrees[n].homology,
                ind.target.degrees[n].homology))

    for name, A, top in _algebras():
        for normalized in (False, True):
            yield from window("%s bar norm=%s" % (name, normalized),
                              bar_complex(A, top, normalized=normalized))
        yield from window("%s blocks" % name,
                          bar_complex(A, top, normalized=True,
                                      blocks=block_idempotents(A)))
        cyc = total_complex(A, top)
        for n, B in enumerate(cyc.b_up):
            yield "%s B%d" % (name, n), B.rows
        for n in range(1, top + 1):
            yield "%s total%d" % (name, n), cyc.totals[n].rows
        yield from induced(name, AlgebraMap.identity(A), min(top, 2))
    F2 = functions_on_points(2)
    swap = AlgebraMap.from_images(F2, F2, [{1: 1}, {0: 1}],
                                  multiplicative=True, unital=True)
    yield from induced("swap", swap, 3)
    M = twisted_bimodule(F2, swap)
    for normalized in (False, True):
        yield from window("F2 twisted norm=%s" % normalized,
                          bar_complex(F2, 3, coefficients=M,
                                      normalized=normalized))
        report = hh_with_coefficients(F2, M, 2, normalized=normalized)
        yield "F2 twisted hh norm=%s" % normalized, report.dims
    for name, A, _ in _algebras()[:3]:
        morita = tr_star_and_iota(A, 2, 1)
        for n in range(2):
            base = morita.base_report.degrees[n].homology
            big = morita.matrix_report.degrees[n].homology
            yield "%s morita%d" % (name, n), (
                morita.iota_chain[n].rows, morita.tr_chain[n].rows,
                _canonical_map(morita.iota_hh[n], base, big),
                _canonical_map(morita.tr_hh[n], big, base))


def _canonical_basis(H):
    """Representatives of the homology H and coordinates in their basis,
    fixed by the complex alone: the free coordinates are those off the
    pivots of the rref of H's boundary space, and the representatives are
    the canonical kernel of H.A restricted to them."""
    from cychom.linalg import Subspace, kernel_from_rref, rref_rows
    field = H.field
    bound = Subspace.from_vectors(H.space_dim, field, H.boundary_space.basis)
    pivots = set(bound.pivot_cols)
    free = [j for j in range(H.space_dim) if j not in pivots]
    pos = {j: k for k, j in enumerate(free)}
    rows = [] if H.A is None else [
        {pos[j]: v for j, v in row.items() if j in pos} for row in H.A.rows]
    rref, small_pivots = rref_rows(rows, field)
    kernel = kernel_from_rref(rref, small_pivots, len(free), field)
    taken = set(small_pivots)
    small_free = {j: i for i, j in enumerate(
        j for k, j in enumerate(free) if k not in taken)}

    def coords(vec):
        # a cycle reduced by the rref is the kernel combination whose
        # coefficients sit at the kernel vectors' own free coordinates
        return {small_free[j]: x for j, x in bound.reduce(vec).items()
                if j in small_free}

    return [{free[k]: v for k, v in vec.items()} for vec in kernel], coords


def _canonical_map(h, source, target):
    """The rows of h, a matrix from source's homology basis to target's, in
    the bases of _canonical_basis, so representatives chosen another way
    hash the same."""
    from cychom.linalg import SparseMatrix, vec_axpy
    field = h.field
    src_reps, _ = _canonical_basis(source)
    tgt_reps, tgt_coords = _canonical_basis(target)
    cols = []
    for u in src_reps:
        image = {}
        for i, c in h.mat_vec(source.coords(u)).items():
            vec_axpy(image, c, target.representatives[i], field)
        cols.append(tgt_coords(image))
    return SparseMatrix.from_columns(cols, len(tgt_reps), field).rows


def _canonical(value, sort):
    """value with every integral Fraction replaced by the equal int, and
    with sort every dict by its sorted items; without sort a dict keeps its
    entry order."""
    if isinstance(value, dict):
        items = [(k, _canonical(v, sort)) for k, v in value.items()]
        return sorted(items) if sort else dict(items)
    if isinstance(value, (list, tuple)):
        return type(value)(_canonical(v, sort) for v in value)
    if isinstance(value, Fraction) and value.denominator == 1:
        return value.numerator
    return value


def _walks_and_spectra():
    from cychom.algebra import upper_triangular
    from cychom.groups import cyclic_group, dihedral_group_4, \
        group_algebra, quaternion_group, symmetric_group_3
    from cychom.hochschild import hh
    from cychom.spectrum import wedderburn_blocks

    for name, A, top in _algebras():
        w = hh(A, top).window
        yield "%s walk f_vectors" % name, w.slots.f_vectors
        yield "%s walk e_to_f" % name, w.slots.e_to_f.rows
        yield "%s walk mulf" % name, w.slots.mulf
        yield "%s walk dims" % name, w.dims
        for n in range(1, top + 1):
            yield "%s walk d%d" % (name, n), w.boundaries[n].rows
    for name, A in [("QS3", group_algebra(symmetric_group_3())),
                    ("QD4", group_algebra(dihedral_group_4())),
                    ("QZ5", group_algebra(cyclic_group(5))),
                    ("Q8", group_algebra(quaternion_group())),
                    ("U3", upper_triangular(3))]:
        report = wedderburn_blocks(A)
        yield "%s field" % name, report.field_order
        yield "%s idempotents" % name, [b.idempotent for b in report.blocks]
        yield "%s points" % name, [p.basis for p in report.prim_points]
        yield "%s characters" % name, [c.basis
                                       for c in report.central_characters]


def _rebased_upper_triangular():
    """upper_triangular(3) on the basis E12 + E33, E11, E12, E13, E22, E23,
    whose first element has minimal polynomial t^2 (t - 1), so the split
    cuts the unit along a non-semisimple element."""
    from cychom.algebra import FDAlgebra, upper_triangular
    from cychom.linalg import SparseMatrix
    U = upper_triangular(3)
    basis = [{1: 1, 5: 1}] + [U.basis_vector(k) for k in range(5)]
    back = SparseMatrix.from_columns(basis, 6, U.field).inverse()
    mul = {(i, j): back.mat_vec(U.multiply(u, v))
           for i, u in enumerate(basis) for j, v in enumerate(basis)}
    return FDAlgebra(6, 1, mul, unit=back.mat_vec(U.unit)).require_valid()


def _splits():
    from cychom.algebra import FDAlgebra, direct_sum, ground_field, \
        matrix_algebra, truncated_polynomial, upper_triangular
    from cychom.crossprod import variety_crossed_product
    from cychom.groups import cyclic_group, dihedral_group_4, \
        group_algebra, symmetric_group_3
    from cychom.spectrum import extend_scalars
    from cychom.structure import block_idempotents, split_idempotents
    from perfbench.cases import point_actions

    QS3 = group_algebra(symmetric_group_3())
    # Q[t]/t^2(t - 1) on the basis t, t^2, 1
    local_plus_point = FDAlgebra(
        3, 1, {(0, 0): {1: 1}, (0, 1): {1: 1}, (1, 0): {1: 1},
               (1, 1): {1: 1}, (2, 0): {0: 1}, (0, 2): {0: 1},
               (2, 1): {1: 1}, (1, 2): {1: 1}, (2, 2): {2: 1}},
        unit={2: 1}).require_valid()
    corpus = [
        ("QS3", QS3),
        ("T3+M2", direct_sum(truncated_polynomial(3),
                             matrix_algebra(ground_field(), 2)).algebra),
        ("M2(T2)", matrix_algebra(truncated_polynomial(2), 2)),
        ("t2(t-1)", local_plus_point),
        ("QS3z3", extend_scalars(QS3, 3)),
        ("QD4", group_algebra(dihedral_group_4())),
        ("QZ4", group_algebra(cyclic_group(4))),
        ("QZ5", group_algebra(cyclic_group(5))),
        ("U3", upper_triangular(3)),
        ("U3 rebased", _rebased_upper_triangular()),
    ] + [(act.name, variety_crossed_product(act).product)
         for act in point_actions()]
    for name, A in corpus:
        yield "%s blocks" % name, block_idempotents(A)
        yield "%s split" % name, split_idempotents(A)


def _chern_chains():
    from cychom.chern import chern_idempotent, chern_invertible, \
        idempotent_rep, invertible_rep
    from cychom.groups import cyclic_group, group_algebra
    from cychom.scalars import field_of_order
    from cychom.spectrum import extend_scalars

    K = field_of_order(3)
    QZ5 = group_algebra(cyclic_group(5))
    QZ3 = group_algebra(cyclic_group(3))
    C3 = extend_scalars(QZ3, 3)
    trivial = {g: Fraction(1, 5) for g in range(5)}
    complement = {g: -c for g, c in trivial.items()}
    complement[0] += 1
    cases = [
        ("QZ5 trivial", chern_idempotent,
         idempotent_rep(QZ5, [[trivial]]), 2),
        ("QZ5 block sum", chern_idempotent,
         idempotent_rep(QZ5, [[trivial, {}], [{}, complement]]), 2),
        ("QZ3 generator", chern_invertible,
         invertible_rep(QZ3, [[{1: 1}]]), 1),
        ("C3 character", chern_idempotent,
         idempotent_rep(C3, [[{k: K.scale(K.zeta_pow[-k % 3], Fraction(1, 3))
                               for k in range(3)}]]), 2),
    ]
    for name, character, rep, top in cases:
        for q in range(top + 1):
            ch = character(rep, q)
            yield "%s q=%d" % (name, q), (ch.degree, ch.chain.chain)
    ch = chern_invertible(invertible_rep(C3, [[{0: K.zeta_pow[1]}]]), 1)
    yield "C3 zeta3 q=1", (ch.degree, ch.chain.chain)


def _general_chain_maps():
    from cychom.algebra import AlgebraMap, functions_on_points, \
        ground_field, truncated_polynomial
    from cychom.cyclic import induced_map_hc
    from cychom.groups import group_algebra, symmetric_group_3
    from cychom.hochschild import center_action, hh, tr_star_and_iota
    from cychom.spectrum import extend_scalars
    from cychom.structure import center

    for name, A, N, top in [
            ("Q", ground_field(), 3, 2),
            ("T2", truncated_polynomial(2), 3, 1),
            ("T2z3", extend_scalars(truncated_polynomial(2), 3), 2, 2)]:
        morita = tr_star_and_iota(A, N, top)
        for n in range(top + 1):
            base = morita.base_report.degrees[n].homology
            big = morita.matrix_report.degrees[n].homology
            yield "%s N=%d morita%d" % (name, N, n), (
                morita.iota_chain[n].rows, morita.tr_chain[n].rows,
                _canonical_map(morita.iota_hh[n], base, big),
                _canonical_map(morita.tr_hh[n], big, base))
    QS3 = group_algebra(symmetric_group_3())
    walk = hh(QS3, 2).window
    for k, z in enumerate(center(QS3).basis):
        for n in range(3):
            yield "QS3 center%d action%d" % (k, n), \
                center_action(walk, z, n).rows
    F2 = functions_on_points(2)
    swap = AlgebraMap.from_images(F2, F2, [{1: 1}, {0: 1}],
                                  multiplicative=True, unital=True)
    for n, f in enumerate(induced_map_hc(swap, 3).chain_maps):
        yield "swap hc%d" % n, f.rows


def _zeta_truncation():
    """Q(zeta3)[x]/x^3 on the basis 1, zeta3 x, x^2, where (zeta3 x)^2 =
    zeta3^2 x^2 puts an irrational entry into every window."""
    from cychom.algebra import FDAlgebra
    from cychom.scalars import field_of_order
    mul = {(0, k): {k: 1} for k in range(3)}
    mul.update({(k, 0): {k: 1} for k in range(1, 3)})
    mul[1, 1] = {2: field_of_order(3).zeta_pow[2]}
    return FDAlgebra(3, 3, mul=mul, unit={0: 1})


def _connes_windows():
    from cychom.algebra import truncated_polynomial
    from cychom.cyclic import hc

    for name, A, top in [("T4", truncated_polynomial(4), 6),
                         ("T5", truncated_polynomial(5), 6),
                         ("T3z3", _zeta_truncation(), 4)]:
        for normalized in (True, False):
            # hc's window reaches one degree past the homology it reports
            w = hc(A, top - 1, normalized=normalized).window
            label = "%s connes norm=%s" % (name, normalized)
            yield label + " dims", w.dims
            for n in range(1, top + 1):
                yield "%s d%d" % (label, n), w.boundaries[n].rows


def _connes_periodicity():
    from cychom.algebra import truncated_polynomial, upper_triangular
    from cychom.cyclic import hc
    from cychom.groups import cyclic_group, group_algebra

    for name, A, top in [("T4", truncated_polynomial(4), 6),
                         ("QZ3", group_algebra(cyclic_group(3)), 6),
                         ("U3", upper_triangular(3), 4)]:
        for normalized in (True, False):
            report = hc(A, top, normalized=normalized)
            for n in range(2, top + 1):
                for k, rep in enumerate(report.degrees[n].representatives):
                    yield "%s norm=%s S%d rep%d" % (name, normalized, n, k), \
                        report.window.periodicity(n, rep)


def _digest(entries, canonical):
    digest = hashlib.sha256()
    count = 0
    for label, value in entries:
        digest.update(repr((label, canonical(value))).encode())
        count += 1
    return "%d entries sha256 %s" % (count, digest.hexdigest())


def main():
    if os.environ.get("PYTHONHASHSEED") != "0":
        env = dict(os.environ, PYTHONHASHSEED="0")
        os.execve(sys.executable, [sys.executable] + sys.argv, env)
    sys.path[:0] = [os.path.join(ROOT, "src"), ROOT]
    print(_digest(_entries(), lambda value: _canonical(value, False)))
    print(_digest(_walks_and_spectra(), lambda value: _canonical(value, True)))
    print(_digest(_splits(), lambda value: _canonical(value, True)))
    print(_digest(_chern_chains(), lambda value: _canonical(value, True)))
    print(_digest(_general_chain_maps(),
                  lambda value: _canonical(value, False)))
    print(_digest(_connes_windows(), lambda value: _canonical(value, False)))
    print(_digest(_connes_periodicity(),
                  lambda value: _canonical(value, True)))


if __name__ == "__main__":
    try:
        status = main()
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader closed the pipe, as head -1 does: stop quietly, with
        # stdout on devnull so that the flush at exit cannot fail again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        status = 0
    sys.exit(status)
