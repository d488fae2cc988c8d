"""The benchmark's workloads: seeded inputs, call sequences and references.

Each workload function builds and validates its input algebras (the set-up
that ``setup_s`` times) and returns the calls to make, in order.  Every call
carries the exact answer it must give.  The calls look up cychom's functions
through their modules at call time, so a tracer that replaces a module
attribute sees them.
"""

from __future__ import annotations

import random
import sys
import traceback
from fractions import Fraction
from typing import Callable, NamedTuple

from cychom import algebra, chern, crossprod, cyclic, groups, hochschild, spectrum


class Call(NamedTuple):
    label: str
    run: Callable[[], object]
    summarize: Callable[[object], object]
    expected: object


def run_calls(calls) -> int:
    """Make the calls in order; return how many raised or answered wrongly."""
    failed = 0
    for call in calls:
        try:
            got = call.summarize(call.run())
        except Exception:
            print("perfbench: %s raised" % call.label, file=sys.stderr)
            traceback.print_exc()
            failed += 1
            continue
        if got != call.expected:
            print("perfbench: %s gave %r, expected %r"
                  % (call.label, got, call.expected), file=sys.stderr)
            failed += 1
    return failed


def relabel(A: algebra.FDAlgebra, seed: int) -> algebra.FDAlgebra:
    """A with its basis permuted by a permutation drawn from the seed.

    New basis vector i is old basis vector perm[i]; seed 0 keeps the basis.
    The result is isomorphic to A, so every invariant computed from it is
    unchanged, while the order in which elimination meets rows and columns
    is not.
    """
    perm = list(range(A.dim))
    if seed:
        random.Random(seed).shuffle(perm)
    new_index = {old: new for new, old in enumerate(perm)}

    def moved(vec):
        return {new_index[k]: c for k, c in vec.items()}

    mul = {(i, j): moved(A.mul[perm[i]][perm[j]])
           for i in range(A.dim) for j in range(A.dim)}
    return algebra.FDAlgebra(A.dim, A.field_order, mul,
                             labels=[A.labels[p] for p in perm],
                             unit=moved(A.unit), name=A.name).require_valid()


def _dims(report):
    return report.dims


def hh_group_q(seed: int) -> list:
    A = relabel(groups.group_algebra(groups.symmetric_group_3()), seed)
    return [Call("hh(QS3, 4)", lambda: hochschild.hh(A, 4), _dims,
                 [3, 0, 0, 0, 0])]


def hh_group_cyc(seed: int) -> list:
    QS3 = groups.group_algebra(groups.symmetric_group_3())
    A = relabel(spectrum.extend_scalars(QS3, 3), seed)
    return [Call("hh(QS3 over Q(zeta3), 3)", lambda: hochschild.hh(A, 3),
                 _dims, [3, 0, 0, 0])]


def cyclic_local(seed: int) -> list:
    T4 = relabel(algebra.truncated_polynomial(4), seed)
    T5 = relabel(algebra.truncated_polynomial(5), seed)
    return [
        Call("hp(Q[x]/x^4, stabilization)",
             lambda: cyclic.hp(T4, mode="stabilization"),
             lambda r: (r.even_dim, r.odd_dim, r.stabilized), (1, 0, True)),
        Call("hc(Q[x]/x^5, 5)", lambda: cyclic.hc(T5, 5), _dims,
             [5, 0, 5, 0, 5, 0]),
    ]


def point_actions() -> list:
    """The five point-permutation actions of the crossed-product tests."""
    Z2, Z3 = groups.cyclic_group(2), groups.cyclic_group(3)
    S3 = groups.symmetric_group_3()
    act = groups.FiniteVarietyAction
    return [
        act(Z2, 1, [(0,), (0,)], name="pt_triv"),
        act(Z2, 2, [(0, 1), (1, 0)], name="swap2"),
        act(Z2, 3, [(0, 1, 2), (1, 0, 2)], name="swapfix"),
        act(Z3, 3, [(0, 1, 2), (1, 2, 0), (2, 0, 1)], name="rot3"),
        act(S3, 3, [(0, 1, 2), (1, 0, 2), (2, 1, 0), (0, 2, 1), (1, 2, 0),
                    (2, 0, 1)], name="s3nat"),
    ]


# HH_0.. of each crossed product: dim A/[A, A] in degree 0, nothing above
DIRECT_DIMS = {"pt_triv": [2, 0, 0, 0], "swap2": [1, 0, 0, 0],
               "swapfix": [3, 0, 0, 0], "rot3": [1, 0, 0, 0],
               "s3nat": [2, 0, 0]}


def constructions(seed: int) -> list:
    """Crossed products, blocks and Chern characters; the seed is unused."""
    calls = []
    for act in point_actions():
        cp = crossprod.variety_crossed_product(act)
        n_max = 2 if cp.product.dim > 9 else 3
        calls.append(Call(
            "hh_decomposition(%s, %d)" % (act.name, n_max),
            lambda cp=cp, n_max=n_max: crossprod.hh_decomposition(cp, n_max),
            lambda r: (r.agrees, r.direct_dims), (True, DIRECT_DIMS[act.name])))
        calls.append(Call(
            "phi_isomorphism_report(%s)" % act.name,
            lambda cp=cp: crossprod.phi_isomorphism_report(cp),
            lambda r: r.ok, True))
    QZ5 = groups.group_algebra(groups.cyclic_group(5))
    QZ3 = groups.group_algebra(groups.cyclic_group(3))
    # the trivial-character idempotent, a rank-one projection
    e = chern.idempotent_rep(QZ5, [[{g: Fraction(1, 5) for g in range(5)}]])
    trace = dict(enumerate(QZ5.trace_vector()))
    u = chern.invertible_rep(QZ3, [[{1: 1}]])

    def degree_one_part(ch):
        # S of ch_1(u) is ch_0(u), the class of u^-1 (x) u
        part = ch.chain.s().component(1)
        hoch = ch.chain.window.hochschild_window
        return {hoch.tuple_of(1, i): c for i, c in part.items()}

    calls += [
        Call("wedderburn_blocks(QZ5)", lambda: spectrum.wedderburn_blocks(QZ5),
             lambda r: r.sizes, (1, 1, 1, 1, 1)),
        Call("chern_idempotent(QZ5, 2)", lambda: chern.chern_idempotent(e, 2),
             lambda ch: chern.pair_with_trace(ch, trace), 1),
        Call("chern_invertible(QZ3, 1)", lambda: chern.chern_invertible(u, 1),
             degree_one_part, {(2, 1): 1}),
    ]
    return calls


WORKLOADS = {
    "hh_group_q": hh_group_q,
    "hh_group_cyc": hh_group_cyc,
    "cyclic_local": cyclic_local,
    "constructions": constructions,
}
