"""Print digests of the matrices of the one-block, central-block and walk
windows and of the wedderburn_blocks reports.

Run from the repository root:

    python3 tools/window_digest.py

It prints two lines, each with a number of entries and a sha256.  The first
covers a fixed corpus of windows (normalized and unnormalized bar complexes,
the (b, B) complexes behind hc, induced maps, Morita maps, coefficient
windows, and bar windows relative to the central idempotents of
structure.block_idempotents), hashed over the repr of their rows, so it also
sees the order of the entries in each row.  The second covers the walk
windows of hh (slot basis, its inverse and the boundaries) and the
wedderburn_blocks reports of a few group algebras and upper_triangular(3)
(idempotents, primitive points and central characters), hashed over sorted
dict items, so only values count.  Two checkouts that compute the same
windows and reports print the same lines.  The script re-runs itself with
PYTHONHASHSEED=0, so set iteration order cannot change the hash between
runs.
"""

import hashlib
import os
import sys

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
    from cychom.cyclic import cyclic_complex
    from cychom.hochschild import bar_complex, hh_with_coefficients, \
        induced_map_hh, tr_star_and_iota
    from cychom.structure import block_idempotents

    def window(label, w):
        yield label + " dims", w.dims
        for n in range(1, w.n_max + 1):
            yield "%s d%d" % (label, n), w.boundaries[n].rows

    def induced(label, phi, top):
        ind = induced_map_hh(phi, top)
        for n, (f, h) in enumerate(zip(ind.chain_maps, ind.homology_maps)):
            yield "%s induced%d" % (label, n), (f.rows, h.rows)

    for name, A, top in _algebras():
        for normalized in (False, True):
            yield from window("%s bar norm=%s" % (name, normalized),
                              bar_complex(A, top, normalized=normalized))
        yield from window("%s blocks" % name,
                          bar_complex(A, top, normalized=True,
                                      blocks=block_idempotents(A)))
        cyc = cyclic_complex(A, top)
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
            yield "%s morita%d" % (name, n), (
                morita.iota_chain[n].rows, morita.tr_chain[n].rows,
                morita.iota_hh[n].rows, morita.tr_hh[n].rows)


def _sorted(value):
    """value with every dict replaced by its sorted items."""
    if isinstance(value, dict):
        return sorted((k, _sorted(v)) for k, v in value.items())
    if isinstance(value, (list, tuple)):
        return type(value)(_sorted(v) for v in value)
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
    sys.path.insert(0, os.path.join(ROOT, "src"))
    print(_digest(_entries(), lambda value: value))
    print(_digest(_walks_and_spectra(), _sorted))


if __name__ == "__main__":
    main()
