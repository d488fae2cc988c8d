"""Cyclic homology: the operator B, Connes' complex, S, SBI, HP, induced
maps and excision.

Every route to HC runs on Connes' complex A^(x)(n+1) / (1 - t) under b,
whose homology over a field containing Q is that of the (b, B) bicomplex
(Loday, Cyclic Homology, 2.1), with about 1/(n + 1) of the Hochschild
chains in degree n: hc and hp's stabilization, and, with I, S and the
connecting map B written on it (Loday 2.2), sbi_check, excision_check and
induced_map_hc.  Its window carries a chain-level S of its own.  Of the
bicomplex only the layout of the total chains is kept
(CyclicComplexWindow), on which the Chern characters raise their cycles
with operator_B.  The periodic theory is computed two independent ways:
through the radical (nilpotent ideals do not change it, and what is left
is semisimple) and by stabilizing the images of the periodicity operator.
hp takes nonunital algebras too, such as the ideals and layers of a
filtration, through their unitalizations.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial, reduce
from fractions import Fraction
from itertools import accumulate

from .algebra import AlgebraMap, FDAlgebra, TwoSidedIdeal, adjoin_unit, \
    direct_sum, ideal_as_algebra, quotient_algebra
from .config import DEFAULT_HP_CUTOFF, check_chain_dims
from .errors import AmbientMismatch, DegreeTooLow, NonUnital, \
    NotMultiplicative, ValidationError, check_int
from .hochschild import ChainComplexWindow, HomologyReport, InducedMap, \
    _SlotData, _degree_homologies, _homology_report, _induced, \
    _phi_slot_maps, _require_degree, bar_complex, induced_map_hh
from .linalg import SparseMatrix, Subspace, add_term, combination, \
    induced_map, operator_matrix, vec_sub
from .structure import center, semisimple_quotient


# ---------------------------------------------------------------------------
# the operator B on bar-window chains


def _B_terms(window: ChainComplexWindow, n: int, chains):
    """The terms (target, w, c) of B = (1 - t) s N on degree-n basis chains.

    chains lists (slot-0 value, interior word, w) triples, and each term
    is an entry c of that chain's column with its w attached: a chain
    coefficient (operator_B) or a column index (sbi_check).  Rotating a
    closed walk gives a closed walk, cut at another state; s puts the
    idempotent of the state at the cut into slot 0 (on a one-state
    unnormalized window the unit, on a normalized window e_i, an f-index
    outside the interior), and the t-image of that puts it into the first
    interior slot.  Read in the window's slot basis, a term that puts a
    vector outside the interior into an interior slot is zero: when slot 0
    holds such a vector only the last rotation's t-image survives, and
    only the interior part of the idempotent enters the t-images.
    """
    slots = window.slots
    field = window.field
    f_of, code, label = slots.interior, slots.code, slots.slot0_label
    rank, start = slots.ranks(n + 1), slots.starts(n + 1)
    # each state's idempotent, and its interior part, with both signs
    units = [([(f, (c, field.neg(c))) for f, c in e.items()],
              [(code[f], (c, field.neg(c))) for f, c in e.items() if f in code])
             for e in slots.units]
    # the idempotent of the state each interior code leaves
    leaves = [units[i] for i, _ in slots.code_label]
    for s0, word, w in chains:
        c0 = code.get(s0)
        whole = (c0,) + word
        home = units[label[s0][0]]
        for j in range(n if c0 is None else 0, n + 1):
            # rotate j places: the last j factors move to the front, and
            # the cut sits at the state the first of them leaves
            rot = whole[n + 1 - j:] + whole[:n + 1 - j]
            unit, inner = leaves[rot[0]] if j else home
            if c0 is not None:
                for u, c in unit:
                    yield start[u] + rank[rot], w, c[n * j % 2]
            lead = s0 if j == n else f_of[rot[-1]]
            for k, c in inner:
                yield (start[lead] + rank[(k,) + rot[:-1]], w,
                       c[n * (j + 1) % 2])


def operator_B(window: ChainComplexWindow, n: int, chain: dict) -> dict:
    """Connes' degree-raising differential applied to a degree-n chain.

    Only the chain's own columns of B are visited, and each of their
    entries is added straight into the image.
    """
    if not window.algebra.is_unital:
        raise NonUnital("the B operator inserts the unit")
    if window.module is not None:
        raise ValidationError("the B operator needs coefficients in A")
    if n + 1 > window.n_max:
        raise ValidationError(
            "window too short: degree %d is not stored" % (n + 1))
    chains = []
    for index, w in chain.items():
        t = window.tuple_of(n, index)
        chains.append((t[0], t[1:], w))
    return combination(_B_terms(window, n, chains), window.field)


# ---------------------------------------------------------------------------
# the layout of the bicomplex's total chains


class CyclicComplexWindow:
    """Degrees 0..n_max of the total chains of the (b, B) bicomplex.

    The layout, stated once: with dims_H the Hochschild window's dims,
    degree n stacks the Hochschild degrees n, n-2, ...; summand k holds
    degree n-2k and starts at offsets[n][k] = sum_{i<k} dims_H[n-2i].
    So S, dropping the top summand, shifts coordinates down by dims_H[n];
    and below its top summand degree n+2 is degree n shifted up by
    dims_H[n+2], as offsets[n+2][k+1] = dims_H[n+2] + offsets[n][k].  The
    window holds no matrix: b is the Hochschild window's boundaries, each
    built on its first read, B is operator_B, and b + B takes summand k to
    summands k and k - 1.
    """

    def __init__(self, algebra, n_max, normalized, hochschild_window):
        self.algebra = algebra
        self.n_max = n_max
        self.normalized = normalized
        self.hochschild_window = hoch = hochschild_window
        self.field = algebra.field
        self.offsets = [list(accumulate(hoch.dims[n::-2], initial=0))
                        for n in range(n_max + 1)]
        self.dims = [offs.pop() for offs in self.offsets]
        check_chain_dims(self.dims, "total")

    def _span(self, n: int, k: int) -> tuple:
        """Start and width of summand k of degree n, if the window has it."""
        _require_degree(self, n)
        check_int(k, "a summand index", 0)
        if k > n // 2:
            raise ValidationError("degree %d has summands 0..%d, not %d"
                                  % (n, n // 2, k))
        return self.offsets[n][k], self.hochschild_window.dims[n - 2 * k]

    def summands(self, n: int) -> list:
        """(Hochschild degree, offset) of each summand of degree n."""
        _require_degree(self, n)
        return [(n - 2 * k, off) for k, off in enumerate(self.offsets[n])]

    def component(self, n: int, chain: dict, k: int) -> dict:
        """The Hochschild degree n-2k part of a total chain, re-based."""
        start, width = self._span(n, k)
        return {i - start: c for i, c in chain.items()
                if start <= i < start + width}

    def include_component(self, n: int, vec: dict, k: int) -> dict:
        """A Hochschild degree n-2k chain as summand k of degree n."""
        start, width = self._span(n, k)
        if any(not 0 <= i < width for i in vec):
            raise AmbientMismatch("summand %d of degree %d has coordinates "
                                  "0..%d" % (k, n, width - 1))
        return {i + start: c for i, c in vec.items()}


def cyclic_complex(A: FDAlgebra, n_max: int,
                   normalized: bool | None = None) -> CyclicComplexWindow:
    """The (b, B) bicomplex's total chains in degrees 0..n_max, a layout;
    its Hochschild window builds each boundary when it is first read."""
    if not A.is_unital:
        raise NonUnital("the cyclic bicomplex needs a unital algebra")
    if normalized is None:
        normalized = True
    hoch = bar_complex(A, n_max, variant="b", normalized=normalized)
    return CyclicComplexWindow(A, n_max, normalized, hoch)


# ---------------------------------------------------------------------------
# Connes' complex


def _necklaces(m: int, length: int):
    """Yield (word, period) for each word of the given length over the codes
    0..m-1 that is the least of its rotations, in lexicographic order.

    The Fredricksen-Kessler-Maiorana algorithm: it visits the prenecklaces,
    the prefixes of such words, in lexicographic order, and one whose
    longest Lyndon prefix has length p is a necklace of period p when p
    divides the length.
    """
    if not m:
        return
    word, p = [0] * length, 1
    while True:
        if length % p == 0:
            yield tuple(word), p
        # raise the last letter below m - 1, then repeat the prefix up to it
        i = length - 1
        while i >= 0 and word[i] == m - 1:
            i -= 1
        if i < 0:
            return
        word[i] += 1
        for j in range(i + 1, length):
            word[j] = word[j - i - 1]
        p = i + 1


class _ConnesWindow:
    """Degrees 0..n_max of Connes' complex on a one-state slot basis.

    The slot basis is the one bar_complex would use (_SlotData); a degree-n
    coordinate is the class of a word of n + 1 interior codes, and words[n]
    lists the stored ones, each the least of its rotations, in
    lexicographic order.  With m the number of interior codes, a word
    w_0 .. w_(L-1) is keyed by the integer sum w_j m^(L-1-j) (_code), so
    that words of one length order as their integers do, and index[n] maps
    the integer of each stored word to its coordinate.  Rotation acts with
    the sign of t, so [rot^k w] = (-1)^(nk) [w]; an orbit of odd period is
    its own negative in odd degrees and is dropped.  On the normalized slot
    basis the codes span A/k, and the window is the reduced complex plus
    the isolated cycle 1^(x)(n+1) in each even degree n, the last
    coordinate there, which adds HC(k); on the unnormalized one it is
    C^lambda(A) itself.  boundaries[n] is b into degree n - 1, computed on
    the stored words (_add_degree), and periodicity is S on a cycle; both
    read faces back through a local memo of _read_back that holds only the
    orbits met.  The normalized window's homology is HC(A) once a trace
    tau, tau(1) = 1, names the reduced classes, those x of degree 2k with
    tau(S^k x) = 0.  periodicity is S on HC(A) for every tau; sbi_check and
    induced_map_hc take the regular trace over dim A (_unit_trace).
    """

    def __init__(self, algebra, n_max, normalized):
        self.algebra = algebra
        self.n_max = n_max
        self.normalized = normalized
        self.field = algebra.field
        self.slots = slots = _SlotData(algebra,
                                       [algebra.unit] if normalized else None)
        m = slots.interior_radix
        # the words of n + 1 codes bound the prenecklaces _necklaces
        # visits; refuse on them before any is visited
        check_chain_dims([m ** (n + 1) for n in range(n_max + 1)],
                         "cyclic word")
        self.words, self.index, self.dims = [], [], []
        self.boundaries = [None]
        for n in range(n_max + 1):
            self._add_degree(n)
        # lam[a, b]: the unit coefficient of the product of the codes a and
        # b, which imul drops on the normalized slot basis
        unit = min(slots.units[0]) if normalized else None
        f_of = slots.interior
        self.lam = {(a, b): slots.mulf[f][g][unit]
                    for a, f in enumerate(f_of) for b, g in enumerate(f_of)
                    if unit in slots.mulf[f][g]}

    def _add_degree(self, n: int) -> None:
        """Store the words of degree n, their index and, for n >= 1, b on
        them, in one pass: each face's integer comes by arithmetic on the
        word's integer (_face_sum), is read back through one memo of
        _read_back for the degree and added into its row in place, so each
        row holds its entries in increasing column order."""
        m, field = self.slots.interior_radix, self.field
        words = [w for w, p in _necklaces(m, n + 1) if not (n % 2 and p % 2)]
        self.words.append(words)
        unit_class = self.normalized and n % 2 == 0
        self.dims.append(len(words) + (1 if unit_class else 0))
        self.index.append(index := {})
        if not n:
            index.update((w[0], k) for k, w in enumerate(words))
            return
        target, memo = self.index[n - 1], {}
        rows = [{} for _ in range(self.dims[n - 1])]
        add, is_zero = field.add, field.is_zero
        # both signs of each product of two codes
        signed = [[[(k, (c, field.neg(c))) for k, c in prod.items()]
                   for prod in row] for row in self.slots.imul]
        steps = [m ** (n - 1 - i % n) for i in range(n + 1)]
        for col, w in enumerate(words):
            x = 0
            for a in w:
                x = x * m + a
            index[x] = col
            for i, (a, b) in enumerate(zip(w, w[1:] + w[:1])):
                if pairs := signed[a][b]:
                    step = steps[i]
                    base = x // (step * m * m) * step * m + x % step \
                        if i < n else x // m % step
                    for k, cs in pairs:
                        stored = memo.get(face := base + k * step, _UNREAD)
                        if stored is _UNREAD:
                            stored = _read_back(face, m, n, target, memo)
                        if stored is not None:
                            r, odd = stored
                            row, c = rows[r], cs[(i + odd) & 1]
                            prev = row.get(col)
                            if prev is not None and is_zero(c := add(prev, c)):
                                del row[col]
                            else:
                                row[col] = c
        self.boundaries.append(SparseMatrix(self.dims[n - 1], self.dims[n],
                                            field, rows=rows))

    def periodicity(self, n: int, chain: dict) -> dict:
        """Connes' S on a degree-n cycle x, n >= 2, as a degree n - 2 chain.

        b x on words of n codes is z, the faces of b kept exact, plus
        1 (x) U, the unit parts that face 0 and the wrap face drop:
        lam(w_0, w_1) w[2:] and (-1)^n lam(w_n, w_0) w[1:n].  As x is a
        cycle, z lies in the image of 1 - t, and y = -(1/n) sum_(k<n) k t^k z
        has (1 - t) y = z, where t(a_1 .. a_n) = (-1)^(n-1) (a_n, a_1, ..).
        So c = x - 1 (x) y has b c = 1 (x) w, w = U - b'(y), where b' merges
        the letters i, i + 1 with sign (-1)^i for i = 1..n-1; w is
        t-invariant, (c, -w/(n - 1), ..) starts a (b, B) total cycle, and
        S(x) = -w/(n - 1), read back into the stored classes.  The unit
        class goes to the unit class.  The unit component of S on reduced
        classes is left out: it lies in the span of HC(k), where S is
        invertible, so no rank of a composite of S changes.  On the
        unnormalized window U = 0 and there is no unit class.
        """
        _require_s_degree(self, n)
        if any(not 0 <= k < self.dims[n] for k in chain):
            raise AmbientMismatch("degree %d has coordinates 0..%d"
                                  % (n, self.dims[n] - 1))
        words, m = self.words[n], self.slots.interior_radix
        out = self._s_of_words(n, [(_code(words[k], m), c)
                                   for k, c in chain.items()
                                   if k < len(words)])
        if len(words) in chain:
            out[len(self.words[n - 2])] = chain[len(words)]
        return out

    def _s_of_words(self, n: int, terms) -> dict:
        """periodicity's S of the sum of c w over (x, c) in terms, x the
        integer of a word w of n + 1 codes, off the unit class; other words
        for the same classes move it by a boundary."""
        field, imul, lam = self.field, self.slots.imul, self.lam
        m = self.slots.interior_radix
        z = _face_sum(terms, m, n + 1, n + 1, imul, field)
        # w holds n times w, n U here and b'(Y) = -n b'(y) below, so that
        # only integers scale it before q does; x is w_0 then rest = w[1:]
        w, low = {}, m ** (n - 1)
        for x, c in terms:
            first, rest = divmod(x, m * low)
            for pair, tail, times in (((first, rest // low), rest % low, n),
                                      ((x % m, first), rest // m,
                                       (-1) ** n * n)):
                if pair in lam:
                    add_term(w, tail, field.scale(field.mul(c, lam[pair]),
                                                  times), field)
        # Y = -n y: t^r moves the last r letters to the front, which is
        # the rotation n - r places left
        Y = {}
        for u, c in z.items():
            rotations = _rotations(u, m, n)
            for r in range(1, n):
                add_term(Y, rotations[n - r],
                         field.scale(c, -r if (n - 1) * r % 2 else r), field)
        # b' is minus the faces other than the wrap face, i = n - 1
        for u, c in _face_sum(Y.items(), m, n, n - 1, imul, field).items():
            add_term(w, u, field.neg(c), field)
        q, out = Fraction(-1, n * (n - 1)), {}
        target, memo = self.index[n - 2], {}
        for u, c in w.items():
            stored = memo.get(u, _UNREAD)
            if stored is _UNREAD:
                stored = _read_back(u, m, n - 1, target, memo)
            if stored is not None:
                k, odd = stored
                add_term(out, k, field.scale(c, -q if odd else q), field)
        return out


def _code(word, m: int) -> int:
    """The integer sum w_j m^(L-1-j) of the word w_0 .. w_(L-1)."""
    return reduce(lambda x, a: x * m + a, word, 0)


def _rotations(x: int, m: int, length: int) -> list:
    """The integers of the rotations w_r .. w_(L-1) w_0 .. w_(r-1), r = 0 ..
    L - 1, of the word of length L with the integer x: one place on is
    (x mod m^(L-1)) m + x div m^(L-1)."""
    top = m ** (length - 1)
    out = [x]
    for _ in range(length - 1):
        x = x % top * m + x // top
        out.append(x)
    return out


def _face_sum(terms, m: int, length: int, count: int, imul, field) -> dict:
    """The faces i < count of b, with the signs (-1)^i, on the sum of c w
    over (x, c) in terms, w the word of the given length with the integer
    x, as {face integer: coefficient}.  With n = length - 1, face i < n puts
    a code k of the product w_i w_(i+1) in place of the pair, which gives
    the integer (x div m^(n+1-i)) m^(n-i) + k m^(n-1-i) + x mod m^(n-1-i);
    the wrap face n puts a code k of w_n w_0 in front of w_1 .. w_(n-1),
    which gives k m^(n-1) + (x div m) mod m^(n-1).  _ConnesWindow's
    boundary takes its faces by the same arithmetic, inline."""
    n, out = length - 1, {}
    for x, c in terms:
        word = [x // m ** (n - j) % m for j in range(length)]
        for i in range(count):
            if prod := imul[word[i]][word[(i + 1) % length]]:
                step = m ** (n - 1 - i % n)
                base = x // (step * m * m) * step * m + x % step if i < n \
                    else x // m % step
                signed = field.neg(c) if i % 2 else c
                for k, v in prod.items():
                    add_term(out, base + k * step, field.mul(signed, v), field)
    return out


# the memo value of a word whose orbit _read_back has not met yet
_UNREAD = object()


def _read_back(x: int, m: int, length: int, index: dict, memo: dict):
    """The stored class of the word w_0 .. w_(L-1), L = length, whose
    integer is x = sum w_j m^(L-1-j): (k, odd) with [word] = (-1)^odd [the
    word of coordinate k], or None when its orbit was dropped.  memo, which
    a caller keeps for one target degree and reads first, gets the same for
    every rotation, so each orbit met is rotated once: one place on is
    (x mod m^(L-1)) m + x div m^(L-1) (_rotations).  The stored word is the
    least rotation, the least integer, r0 places on, so the rotation r
    places on has odd = (L - 1)(r0 - r) mod 2; a word of period p repeats
    its rotations, and a kept orbit has (L - 1) p even, so they agree.
    """
    rotations = _rotations(x, m, length)
    least = min(rotations)
    k = index.get(least)
    if k is None:
        memo.update(dict.fromkeys(rotations))
        return None
    d, r0 = length - 1, rotations.index(least)
    signed = (k, 0), (k, 1)
    memo.update({u: signed[d * (r0 - r) % 2] for r, u in enumerate(rotations)})
    return memo[x]


def _connes_rows(columns, target: dict, m: int, length: int, nrows: int,
                 field) -> list:
    """Rows of the map that sends column k to the sum of c [u] over the
    (x, c) of the k-th of columns (the terms of a chain map), u the word of
    the given length with the integer x, each read back into target through
    one memo of _read_back local to this map.  Columns are visited in
    order, so each row holds its entries in increasing column order.
    """
    rows = [{} for _ in range(nrows)]
    memo = {}
    for col, terms in enumerate(columns):
        for x, c in terms:
            stored = memo.get(x, _UNREAD)
            if stored is _UNREAD:
                stored = _read_back(x, m, length, target, memo)
            if stored is not None:
                row, odd = stored
                add_term(rows[row], col, field.neg(c) if odd else c, field)
    return rows


def _connes_chain_maps(src: _ConnesWindow, tgt: _ConnesWindow, letters,
                       top: int) -> list:
    """phi^(x)(n+1) from src to tgt in degrees 0..top, word by word, where
    letters are the interior images of hochschild._phi_slot_maps.  It
    commutes with b and t.  On the normalized windows a term with a unit
    letter lies in the tensors with a 1, which the reduced complex divides
    out, and the unit class goes to the unit class (phi is unital).
    """
    field, m = tgt.field, tgt.slots.interior_radix
    images = [e[0][0] for e in letters]

    def power(word):
        # the integers of the image words, letter by letter: distinct
        # prefixes take distinct integers, so no term repeats
        image = {0: field.one}
        for code in word:
            image = {u * m + k: field.mul(c, a) for u, c in image.items()
                     for k, a in images[code].items()}
        return image.items()

    maps = []
    for n in range(top + 1):
        rows = _connes_rows(map(power, src.words[n]), tgt.index[n], m, n + 1,
                            tgt.dims[n], field)
        if src.dims[n] > len(src.words[n]):
            rows[-1][src.dims[n] - 1] = field.one
        maps.append(SparseMatrix(tgt.dims[n], src.dims[n], field, rows=rows))
    return maps


# ---------------------------------------------------------------------------
# S, I, and cyclic homology


def _require_s_degree(window, n: int) -> None:
    _require_degree(window, n)
    if n < 2:
        raise DegreeTooLow("the periodicity operator needs degree >= 2")


def operator_S(window: CyclicComplexWindow, n: int, chain: dict) -> dict:
    """S on one chain: the shift of CyclicComplexWindow's layout."""
    _require_s_degree(window, n)
    cut = window.hochschild_window.dims[n]
    return {i - cut: c for i, c in chain.items() if i >= cut}


def hc(A: FDAlgebra, n_max: int,
       normalized: bool | None = None) -> HomologyReport:
    """Cyclic homology HC_0 .. HC_n_max of a unital algebra.

    The dims come from Connes' complex C^lambda_n = A^(x)(n+1) / (1 - t)
    under b, whose homology over a field containing Q is that of the
    (b, B) bicomplex (Loday, Cyclic Homology, 2.1); report.window is a
    _ConnesWindow, whose periodicity is S on its cycles.  In degree n it
    has about 1/(n + 1) of the Hochschild chains.  The normalized route,
    the default, works on the reduced complex (A/k)^(x)(n+1) / (1 - t) and
    adds HC(k), one class in each even degree; normalized=False builds the
    full C^lambda(A).  hp's stabilization, sbi_check, induced_map_hc and
    excision_check all run on this report.
    """
    check_int(n_max, "a degree bound", 0)
    if not A.is_unital:
        raise NonUnital("cyclic homology needs a unital algebra")
    window = _ConnesWindow(A, n_max + 1, normalized is None or normalized)
    return _homology_report(A, window, window.boundaries, n_max)


def _unit_trace(A: FDAlgebra, vectors) -> dict:
    """{j: tau(vectors[j])} for tau the regular trace over dim A, the trace
    of _ConnesWindow."""
    trace = {i: A.field.scale(t, Fraction(1, A.dim))
             for i, t in enumerate(A.trace_vector())}
    return SparseMatrix(1, A.dim, A.field, rows=[trace]).matmul(
        SparseMatrix.from_columns(vectors, A.dim, A.field)).rows[0]


def _s_on_homology(S, homologies, top: int) -> dict:
    """{n: S from homology degree n to n-2} for n = 2..top, where S(n, x)
    is a chain-level S on a degree-n cycle x."""
    return {n: operator_matrix(
                partial(S, n), homologies[n].representatives,
                homologies[n - 2],
                "S does not send a degree-%d cycle to a cycle" % n)
            for n in range(2, top + 1)}


def _s_tower(s_hom: dict, parity: int, cutoff: int):
    """Iterated S on homology from the top level of one parity down.

    Returns (top, ranks, composite): ranks lists the ranks of the composites
    from the top into each lower level, highest target first, and composite
    is the one into level parity (None when no S step fits the window).
    """
    top = cutoff - ((cutoff - parity) % 2)
    ranks, composite = [], None
    for level in range(top, parity + 1, -2):
        step = s_hom[level]
        composite = step if composite is None else step.matmul(composite)
        ranks.append(composite.rank())
    return top, ranks, composite


# ---------------------------------------------------------------------------
# the SBI long exact sequence


@dataclass
class ExactnessNode:
    """One spot of a long exact sequence: exact when the composite through
    it vanishes and the incoming rank equals the outgoing kernel."""

    label: str
    space_dim: int
    incoming_rank: int
    outgoing_kernel: int
    composite_zero: bool

    @property
    def exact(self) -> bool:
        return self.composite_zero and self.incoming_rank == self.outgoing_kernel


def _node(label: str, dim: int, into, out) -> ExactnessNode:
    """The node of a space of dimension dim between the homology matrices
    into and out of it; a missing map (None) has rank 0."""
    return ExactnessNode(
        label, dim, into.rank() if into is not None else 0,
        dim - (out.rank() if out is not None else 0),
        into is None or out is None or out.matmul(into).is_zero_matrix())


@dataclass
class SBIReport:
    algebra: FDAlgebra
    n_max: int
    hochschild: HomologyReport
    cyclic: HomologyReport
    nodes: list

    @property
    def exact(self) -> bool:
        return all(node.exact for node in self.nodes)


def sbi_check(A: FDAlgebra, n_max: int,
              normalized: bool | None = None) -> SBIReport:
    """Exactness of ... -> HH_n -> HC_n -> HC_{n-2} -> HH_{n-1} -> ...

    The maps are chain matrices between hc's Connes window and the bar
    window on the same slot basis (Loday, Cyclic Homology, 2.2).  I sends
    (s, u) to the class of the word code(s) u, or to nothing when s is the
    unit (a tensor with a 1), and in degree 0 adds tau(s) times the unit
    class (see _ConnesWindow).  S is periodicity.  The connecting map is B
    on each stored word w read as the bar chain (f_(w_0), w_1 .. w_n): B
    factors through 1 - t and kills the tensors with a 1.  Each node
    reports the incoming rank and the outgoing kernel dimension, which
    agree exactly when the sequence is exact there.
    """
    hc_report = hc(A, n_max, normalized=normalized)
    window = hc_report.window
    hoch = bar_complex(A, n_max + 1, normalized=window.normalized)
    hh_report = _homology_report(A, hoch, hoch.boundaries, n_max)
    hh_degrees, hc_degrees = hh_report.degrees, hc_report.degrees
    field, code, f_of = window.field, window.slots.code, window.slots.interior
    m = window.slots.interior_radix
    i_maps = {}
    for n in range(n_max + 1):
        # on this one-state window the chain (s, u) has the index
        # s m^n + rank(u), and rank(u) is the integer of u
        rows = _connes_rows(
            ([(code[s] * m ** n + r, field.one)] if s in code else []
             for s, r in (divmod(j, m ** n) for j in range(hoch.dims[n]))),
            window.index[n], m, n + 1, window.dims[n], field)
        if n == 0 and window.normalized:
            rows[-1] = _unit_trace(A, window.slots.f_vectors)
        i_maps[n] = induced_map(
            SparseMatrix(window.dims[n], hoch.dims[n], field, rows=rows),
            hh_degrees[n].homology, hc_degrees[n].homology)
    s_maps = _s_on_homology(window.periodicity,
                            [d.homology for d in hc_degrees], n_max)
    del_maps = {}
    for n in range(n_max):
        rows = [{} for _ in range(hoch.dims[n + 1])]
        for target, col, c in _B_terms(hoch, n, [
                (f_of[w[0]], w[1:], col)
                for col, w in enumerate(window.words[n])]):
            add_term(rows[target], col, c, field)
        del_maps[n] = induced_map(
            SparseMatrix(hoch.dims[n + 1], window.dims[n], field, rows=rows),
            hc_degrees[n].homology, hh_degrees[n + 1].homology)

    nodes = []
    for n in range(n_max + 1):
        # HH_n between the connecting map from HC_{n-1} and I; HC_n between
        # I and S; HC_n again between S from degree n+2 and the connecting map
        nodes.append(_node("HH_%d" % n, hh_degrees[n].dim,
                           del_maps.get(n - 1), i_maps[n]))
        nodes.append(_node("HC_%d" % n, hc_degrees[n].dim, i_maps[n],
                           s_maps.get(n)))
        if n <= n_max - 2:
            nodes.append(_node("HC_%d_tail" % n, hc_degrees[n].dim,
                               s_maps[n + 2], del_maps[n]))
    return SBIReport(algebra=A, n_max=n_max, hochschild=hh_report,
                     cyclic=hc_report, nodes=nodes)


# ---------------------------------------------------------------------------
# periodic cyclic homology


@dataclass
class HPReport:
    even_dim: int
    odd_dim: int
    method: str
    stabilized: bool | None = None
    stabilization_window: tuple | None = None
    stabilization_dims: tuple | None = None


def hp(A: FDAlgebra, mode: str = "radical_shortcut",
       cutoff: int = DEFAULT_HP_CUTOFF,
       normalized: bool | None = None) -> HPReport:
    """Periodic cyclic homology as an (even, odd) pair of dimensions.

    The radical shortcut quotients out the (nilpotent) radical, which
    leaves the periodic theory unchanged, and reads the answer off the
    semisimple part.  Stabilization instead watches the images of iterated
    S on hc(A, cutoff, normalized)'s window of Connes' complex, with the
    chain-level S of _ConnesWindow.periodicity; when several consecutive
    images agree the tower has become constant.  Inconclusive
    stabilization is reported, not raised; the radical answer is
    authoritative either way.

    A nonunital A is read through its unitalization A+ = A + k: the
    augmentation splits HP(A+) as HP(A) plus HP(k), one even class
    (Loday, Cyclic Homology, 2.2; Cuntz-Quillen excision), so both routes
    run on A+ and that class is subtracted from even_dim and from the
    stabilized even dimension; method then ends in "+unitalization".
    """
    if mode not in ("radical_shortcut", "stabilization"):
        raise ValidationError("unknown hp mode %r" % mode)
    adjoined = 0 if A.is_unital else 1
    if adjoined:
        A = adjoin_unit(A)
    even = center(semisimple_quotient(A)[0].algebra).dim - adjoined
    report = HPReport(even_dim=even, odd_dim=0,
                      method=mode + ("+unitalization" if adjoined else ""))
    if mode == "radical_shortcut":
        return report
    check_int(cutoff, "a degree bound", 0)
    # the odd tower starts at degree 3 and needs two S-composites
    if cutoff < 5:
        raise ValidationError("stabilization needs cutoff >= 5")
    hc_report = hc(A, cutoff, normalized=normalized)
    s_hom = _s_on_homology(hc_report.window.periodicity,
                           [d.homology for d in hc_report.degrees], cutoff)
    stable = []
    for parity in (0, 1):
        top, ranks, _ = _s_tower(s_hom, parity, cutoff)
        if len(ranks) >= 2 and len(set(ranks)) == 1:
            stable.append((ranks[0], (parity, top)))
    report.stabilized = len(stable) == 2
    if report.stabilized:
        dims = (stable[0][0] - adjoined, stable[1][0])
        report.stabilization_dims = dims
        report.stabilization_window = tuple(span for _, span in stable)
        if dims != (report.even_dim, report.odd_dim):
            raise ValidationError(
                "stabilized S-images disagree with the radical shortcut: "
                "%r vs %r" % (dims, (report.even_dim, report.odd_dim)))
    return report


# ---------------------------------------------------------------------------
# induced maps on the cyclic complex


def induced_map_hc(phi: AlgebraMap, n_max: int,
                   normalized: bool | None = None) -> InducedMap:
    """Per-degree cyclic homology matrices of a unital multiplicative map.

    The chain maps are phi^(x)(n+1) between hc's Connes windows
    (_connes_chain_maps).  phi keeps HC(k) but not the trace that names
    the reduced classes of a normalized window (see _ConnesWindow), so
    there the unit class's row in degree 2k is sigma P^k, P periodicity on
    every word and sigma = tau' phi - tau on degree 0 (sigma(1) = 0): a
    cocycle, as P takes boundaries to boundaries and sigma kills them.
    """
    check_int(n_max, "a degree bound", 0)
    if not phi.multiplicative:
        raise NotMultiplicative("induced maps need a multiplicative map")
    if not phi.unital:
        raise NotMultiplicative("cyclic induced maps need a unital map")
    phi.validate()
    src = hc(phi.source, n_max, normalized=normalized)
    tgt = hc(phi.target, n_max, normalized=normalized)
    W, V = src.window, tgt.window
    maps = _connes_chain_maps(W, V, _phi_slot_maps(phi, W, V)[1], n_max)
    if W.normalized:
        field, one = W.field, W.field.one
        codes = [W.slots.f_vectors[f] for f in W.slots.interior]
        sigma = vec_sub(_unit_trace(V.algebra, [phi.apply(v) for v in codes]),
                        _unit_trace(W.algebra, codes), field)
        row = SparseMatrix(1, W.dims[0], field,
                           rows=[dict(sorted(sigma.items()))])
        for n in range(0, n_max + 1, 2):
            if n:
                row = row.matmul(SparseMatrix.from_columns(
                    [W.periodicity(n, {j: one}) for j in range(W.dims[n])],
                    W.dims[n - 2], field))
            maps[n].rows[-1] = {**row.rows[0], W.dims[n] - 1: one}
    return _induced(src, tgt, maps)


# ---------------------------------------------------------------------------
# excision


@dataclass
class ExcisionReport:
    ideal_hp: HPReport
    algebra_hp: HPReport
    quotient_hp: HPReport
    relative_dims: tuple
    plus_dims: dict
    hc_nodes: list
    hp_nodes: list

    @property
    def identification_ok(self) -> bool:
        return self.relative_dims == (self.ideal_hp.even_dim,
                                      self.ideal_hp.odd_dim)

    @property
    def exact(self) -> bool:
        return (self.identification_ok
                and all(n.exact for n in self.hc_nodes)
                and all(n.exact for n in self.hp_nodes))


class _SubComplex:
    """A kernel subcomplex of a Connes window, with its own homology and S:
    periodicity's S on each class written as the average of its word's
    signed rotations, which a word-by-word chain map keeps, so the kernel
    keeps S at chain level."""

    def __init__(self, window: _ConnesWindow, chain_maps: list,
                 cutoff: int):
        self.window = window
        self.spaces = [chain_maps[n].kernel_space()
                       for n in range(cutoff + 2)]
        self.diffs = [None] + [operator_matrix(
            window.boundaries[n].mat_vec, self.spaces[n].basis,
            self.spaces[n - 1],
            "the boundary does not preserve the subcomplex")
            for n in range(1, cutoff + 2)]
        self.homologies = _degree_homologies(
            self.diffs, [space.dim for space in self.spaces], window.field,
            cutoff)
        self.s_hom = _s_on_homology(self._periodicity, self.homologies,
                                    cutoff)

    def _periodicity(self, n: int, x: dict) -> dict:
        window, field = self.window, self.window.field
        m = window.slots.interior_radix
        # [rot^r w] = (-1)^(nr) [w], and the kernel has no unit class
        share = [Fraction((-1) ** (n * r), n + 1) for r in range(n + 1)]
        coords = self.spaces[n - 2].coords(window._s_of_words(n, [
            (u, field.scale(c, share[r]))
            for k, c in self.embed(n).mat_vec(x).items()
            for r, u in enumerate(_rotations(_code(window.words[n][k], m), m,
                                             n + 1))]))
        if coords is None:
            raise ValidationError("S does not preserve the subcomplex")
        return coords

    def embed(self, n: int) -> SparseMatrix:
        """Coordinates of the degree-n subspace inside the window."""
        return SparseMatrix.from_columns(
            [dict(v) for v in self.spaces[n].basis],
            self.window.dims[n], self.window.field)


def excision_check(A: FDAlgebra, J: TwoSidedIdeal,
                   cutoff: int = DEFAULT_HP_CUTOFF) -> ExcisionReport:
    """Six-term periodic exactness for an ideal, checked at chain level.

    The three legs are embedded uniformly through adjoined units; the
    relative subcomplex (kernel of the chain-level projection) plays the
    role of the ideal, and its stabilized dimensions are matched against
    the ideal's own periodic theory computed independently through the
    radical.  It runs on hc's Connes windows of the unitalizations, whose
    codes are the algebras' bases, free of the adjoined unit in products:
    with the augmentation as the trace of _ConnesWindow, the projection's
    word-by-word chain maps are its maps on HC.  Connecting maps come from
    lifting cycles through the projection and applying b.
    """
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

    Ap = adjoin_unit(A)
    Qp = adjoin_unit(Qd.algebra)
    field = A.field
    images = [Qd.projection.apply({i: field.one}) for i in range(A.dim)]
    images.append({Qd.algebra.dim: field.one})
    pi_plus = AlgebraMap.from_images(Ap, Qp, images,
                                     multiplicative=True, unital=True)
    pi_plus.validate()

    hc_A = hc(Ap, cutoff)
    hc_Q = hc(Qp, cutoff)
    WA, WQ = hc_A.window, hc_Q.window
    pi_chain = _connes_chain_maps(WA, WQ, _phi_slot_maps(pi_plus, WA, WQ)[1],
                                  cutoff + 1)
    rel = _SubComplex(WA, pi_chain, cutoff)
    for n in range(cutoff + 2):
        # onto exactly when the kernel leaves room for the whole target
        if WA.dims[n] - rel.spaces[n].dim != WQ.dims[n]:
            raise ValidationError(
                "chain-level projection fails to be onto at degree %d" % n)

    HA = [d.homology for d in hc_A.degrees]
    HQ = [d.homology for d in hc_Q.degrees]

    # homology-level maps of the long exact sequence of the pair
    incl_hom, pi_hom = {}, {}
    for n in range(cutoff + 1):
        incl_hom[n] = induced_map(rel.embed(n), rel.homologies[n], HA[n])
        pi_hom[n] = induced_map(pi_chain[n], HA[n], HQ[n])
    sA_hom = _s_on_homology(WA.periodicity, HA, cutoff)
    sQ_hom = _s_on_homology(WQ.periodicity, HQ, cutoff)

    def connecting(n, rep):
        lift = pi_chain[n].solve(rep)
        if lift is None:
            raise ValidationError("cycle in the quotient has no lift")
        in_rel = rel.spaces[n - 1].coords(WA.boundaries[n].mat_vec(lift))
        if in_rel is None:
            raise ValidationError(
                "boundary of a lifted cycle misses the relative complex")
        return in_rel

    del_hom = {n: operator_matrix(partial(connecting, n),
                                  HQ[n].representatives, rel.homologies[n - 1],
                                  "connecting image is not a relative cycle")
               for n in range(1, cutoff + 1)}

    hc_nodes = []
    for n in range(cutoff):
        hc_nodes.append(_node("HC_%d(algebra)" % n, HA[n].dim, incl_hom[n],
                              pi_hom[n]))
        hc_nodes.append(_node("HC_%d(quotient)" % n, HQ[n].dim, pi_hom[n],
                              del_hom.get(n)))
        hc_nodes.append(_node("HC_%d(relative)" % n, rel.homologies[n].dim,
                              del_hom[n + 1], incl_hom[n]))

    # stabilized towers, with stability verified before use
    stable = {}
    for name, smaps in (("relative", rel.s_hom), ("algebra", sA_hom),
                        ("quotient", sQ_hom)):
        for parity in (0, 1):
            top, ranks, composite = _s_tower(smaps, parity, cutoff)
            if len(set(ranks)) != 1:
                raise ValidationError(
                    "S-images of the %s leg did not stabilize" % name)
            # the stable part is the image of the longest S-composite
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
        # matrix of a degree-preserving homology map between stable parts
        return operator_matrix(level_maps[src_key[1]].mat_vec,
                               stable[src_key][0].basis,
                               stable[tgt_key][0],
                               "stable part is not preserved by an induced map")

    def stable_connecting(parity):
        # HP_parity(quotient) -> HP_{1-parity}(relative): lift each stable
        # basis vector to the top of its tower, connect, then ride S down
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

    hp_nodes = [_node("HP_%d(%s)" % (p, name), stable[(name, p)][0].dim,
                      into, out)
                for p in (0, 1) for name, into, out in (
                    ("relative", del_stable[1 - p], incl_stable[p]),
                    ("algebra", incl_stable[p], pi_stable[p]),
                    ("quotient", pi_stable[p], del_stable[p]))]

    # the adjoined units contribute one even dimension to the algebra and
    # quotient legs; the relative leg matches the ideal as-is
    for name, leg in (("algebra", algebra_hp), ("quotient", quotient_hp)):
        expected = (leg.even_dim + 1, leg.odd_dim)
        if plus_dims[name] != expected:
            raise ValidationError(
                "stabilized %s leg %r disagrees with the radical route %r"
                % (name, plus_dims[name], expected))
    return ExcisionReport(
        ideal_hp=ideal_hp, algebra_hp=algebra_hp, quotient_hp=quotient_hp,
        relative_dims=plus_dims["relative"], plus_dims=plus_dims,
        hc_nodes=hc_nodes, hp_nodes=hp_nodes)


# ---------------------------------------------------------------------------
# direct sums


@dataclass
class DirectSumRow:
    degree: int
    left_dim: int
    right_dim: int
    sum_dim: int
    map_rank: int

    @property
    def ok(self) -> bool:
        return (self.left_dim + self.right_dim == self.sum_dim
                and self.map_rank == self.sum_dim)


@dataclass
class DirectSumReport:
    hh_rows: list
    hc_rows: list
    hp_left: HPReport
    hp_right: HPReport
    hp_sum: HPReport

    @property
    def hp_ok(self) -> bool:
        return (self.hp_left.even_dim + self.hp_right.even_dim
                == self.hp_sum.even_dim
                and self.hp_left.odd_dim + self.hp_right.odd_dim
                == self.hp_sum.odd_dim)

    @property
    def ok(self) -> bool:
        return (all(r.ok for r in self.hh_rows)
                and all(r.ok for r in self.hc_rows) and self.hp_ok)


def direct_sum_check(A: FDAlgebra, B: FDAlgebra,
                     n_max: int) -> DirectSumReport:
    """Additivity of HH, HC and HP over a direct sum of unital algebras.

    Dimension counts alone would pass for accidental equalities, so the
    paired projections are also required to give an isomorphism onto the
    product in every degree.
    """
    check_int(n_max, "a degree bound", 0)
    data = direct_sum(A, B)
    rows = []
    for induced in (induced_map_hh, induced_map_hc):
        left = induced(data.project_left, n_max)
        right = induced(data.project_right, n_max)
        rows.append([])
        for n in range(n_max + 1):
            # both projections leave the sum: stack them into the product
            top, bottom = left.homology_maps[n], right.homology_maps[n]
            stacked = SparseMatrix(top.nrows + bottom.nrows, top.ncols,
                                   top.field, rows=top.rows + bottom.rows)
            rows[-1].append(DirectSumRow(
                n, left.target.dims[n], right.target.dims[n],
                left.source.dims[n], stacked.rank()))
    return DirectSumReport(
        hh_rows=rows[0], hc_rows=rows[1],
        hp_left=hp(A), hp_right=hp(B), hp_sum=hp(data.algebra))
