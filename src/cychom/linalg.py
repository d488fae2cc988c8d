"""Exact sparse linear algebra over Q and Q(zeta_m).

Vectors are dicts {index: raw scalar} that never store zeros, and so are
coordinates: a vector read in a basis is {basis index: raw scalar}.
Matrices hold sparse rows plus an explicit shape and field.  Raw scalars
are whatever the field objects in scalars.py operate on: over Q an int when
integral, else a Fraction, never a float; over Q(zeta_m) a coefficient
tuple whose entries follow the same rule.  ``to_raw`` and the reduced rows
of an elimination follow it on either field; an integral Fraction that
arithmetic leaves behind is accepted everywhere.

Elimination is fraction-free: rows are rescaled to integer content 1 and
combined by cross-multiplication, which keeps entry growth polynomial without
the bookkeeping an exact-division scheme needs once rows skip steps.  Over Q
the row adapter's ``prim`` is the only entry point for input rows; everything
after it works on primitive integer rows, so ``combine`` never meets a
Fraction.  A Q(zeta_m) matrix whose entries all lie in Q takes that route on
first coefficients; only one with an irrational entry is eliminated on
coefficient tuples, which its ``prim`` likewise makes integer tuples.
Combining a row with a pivot row changes its support only at the pivot
row's columns, which is all the column index has to revisit.
Pivots follow a cheapest-column-first order through a lazy heap, in one
pass over all rows.  Rows of different connected components of the
row/column incidence graph share no column, so each component gets the
pivots, in the order, it would get alone, only interleaved with the
others'.  One pass holds every component's column index at once, about 2%
more peak memory on the benchmark than a split into components, and saves
the split's time.  The columns with one row are peeled first, the first
step of structured Gaussian elimination (LaMacchia and Odlyzko, CRYPTO
'90): the heap order takes them first anyway, lowest index first, so a
min-heap of those columns over plain per-column counts gives the same
pivots, and only the rows left over get column index sets.  None of this
affects results: pivots depend only on row supports, the same on either
route, and the reduced echelon form computed at the end is canonical
(monic pivots, zeros above and below, pivot columns increasing), so every
public answer is independent of elimination order.

Homology takes one row elimination per differential: the pivot rows it
picks in B mark a complement of im B, the representatives are the kernel of
A restricted to that complement, and a reduced basis of im B is built only
when class coordinates are asked for, never for dims; see ``Homology``.
"""

from __future__ import annotations

import heapq
from fractions import Fraction
from math import gcd

from .errors import AmbientMismatch, FieldMismatch, NotContained, ValidationError
from .scalars import _FieldBase, field_of_order


# -- sparse vector helpers ----------------------------------------------------

def vec_add(u: dict, v: dict, field: _FieldBase) -> dict:
    out = dict(u)
    for j, val in v.items():
        s = field.add(out[j], val) if j in out else val
        if field.is_zero(s):
            out.pop(j, None)
        else:
            out[j] = s
    return out


def vec_sub(u: dict, v: dict, field: _FieldBase) -> dict:
    return vec_add(u, {j: field.neg(x) for j, x in v.items()}, field)


def vec_scale(v: dict, c, field: _FieldBase) -> dict:
    if field.is_zero(c):
        return {}
    return {j: field.mul(c, x) for j, x in v.items()}


def vec_axpy(out: dict, c, v: dict, field: _FieldBase) -> None:
    """In place out += c*v."""
    if field.is_zero(c):
        return
    for j, x in v.items():
        term = field.mul(c, x)
        s = field.add(out[j], term) if j in out else term
        if field.is_zero(s):
            out.pop(j, None)
        else:
            out[j] = s


def vec_is_zero(v: dict) -> bool:
    return not v


def vec_equal(u: dict, v: dict, field: _FieldBase) -> bool:
    return vec_is_zero(vec_sub(u, v, field))


def add_term(out: dict, key, value, field: _FieldBase) -> None:
    """In place out[key] += value, dropping the key when the sum is zero."""
    prev = out.get(key)
    total = value if prev is None else field.add(prev, value)
    if field.is_zero(total):
        out.pop(key, None)
    else:
        out[key] = total


def combination(terms, field: _FieldBase) -> dict:
    """The vector sum of w * c e_key over the (key, w, c) of terms, added
    up in native + and * over Q and in field calls over Q(zeta_m); zero
    sums are dropped once, at the end."""
    out = {}
    get = out.get
    if field.order == 1:
        for key, w, c in terms:
            out[key] = get(key, 0) + w * c
    else:
        add, mul, zero = field.add, field.mul, field.zero
        for key, w, c in terms:
            out[key] = add(get(key, zero), mul(w, c))
    return {key: c for key, c in out.items() if not field.is_zero(c)}


def dense_to_sparse(values, field: _FieldBase) -> dict:
    out = {}
    for j, v in enumerate(values):
        raw = to_raw(v, field)
        if not field.is_zero(raw):
            out[j] = raw
    return out


def to_raw(value, field: _FieldBase):
    """Accept Cyclotomic, Fraction, int, or a tuple of field.degree rationals.

    A bool is refused like a float.  An integral rational comes back as an
    int, any other as a Fraction, also inside a coefficient tuple.
    """
    if isinstance(value, bool):
        raise ValidationError(f"{value!r} is a bool, not a scalar")
    order = getattr(value, "order", None)
    if order is not None and hasattr(value, "coeffs"):
        if order != field.order:
            if field.order % order:
                raise FieldMismatch(
                    f"scalar of order {order} in a field of order {field.order}")
            from .scalars import lift_raw
            return lift_raw(value.raw, field_of_order(order), field)
        value = value.raw
    if isinstance(value, (int, Fraction)):
        return field.from_rational(value)
    if (field.order > 1 and isinstance(value, tuple)
            and len(value) == field.degree
            and all(isinstance(c, (int, Fraction)) for c in value)):
        return field.from_coeffs(value)
    raise ValidationError(f"{value!r} is not a scalar of order {field.order}")


# -- row normalization adapters ------------------------------------------------

_RATIONAL = field_of_order(1)


def cleared(vec: dict, field: _FieldBase) -> tuple[int, dict]:
    """(den, w) with vec = w / den: den is the least positive integer that
    makes den * vec integral and w = den * vec has int entries (int
    coefficient tuples over Q(zeta_m)).  A vec of ints is returned as it
    is, with den 1, not copied.  The row adapters' prim clear rows here."""
    rational = field.order == 1
    den, ints = 1, True
    for c in vec.values() if rational else \
            (c for e in vec.values() for c in e):
        if type(c) is not int:
            ints = False
            if c.denominator != 1:
                den = den * c.denominator // gcd(den, c.denominator)
    if ints:
        return 1, vec
    if rational:
        return den, {j: v.numerator * (den // v.denominator)
                     for j, v in vec.items()}
    # lists, not generators (see _CyclotomicFieldRaw.add in scalars)
    return den, {j: tuple([c.numerator * (den // c.denominator) for c in e])
                 for j, e in vec.items()}


def divided(w: dict, den: int, field: _FieldBase) -> dict:
    """w / den for a nonzero integer den, the inverse of cleared, with every
    entry an int where it is integral (also inside a coefficient tuple); w
    may hold any rationals, such as a product of cleared vectors in an
    algebra whose structure constants are Fractions."""
    if field.order == 1:
        return {j: Fraction(v, den) if v % den else v // den
                for j, v in w.items()}
    return {j: tuple([Fraction(c, den) if c % den else c // den for c in e])
            for j, e in w.items()}


def _primitive(ints: dict) -> dict:
    """A nonempty integer row divided by its content, signed so that the entry
    at the lowest column is positive."""
    g = gcd(*ints.values())
    if ints[min(ints)] < 0:
        g = -g
    if g != 1:
        ints = {j: n // g for j, n in ints.items()}
    return ints


class _IntRows:
    """Order-1 rows: entries kept as primitive integer vectors.

    ``prim`` is the only entry point: it clears denominators of arbitrary Q
    rows (ints and Fractions), and returns a row that is already primitive
    as it is, not a copy.  Every row that ``combine`` and ``monic`` see
    came out of ``prim`` or ``combine``, so it is a primitive integer row and
    ``combine`` does plain integer arithmetic; no step writes into a row it
    was given.  ``monic`` divides by the pivot and keeps an exact quotient
    an int.
    """

    @staticmethod
    def prim(row: dict) -> dict:
        try:
            g = gcd(*row.values())
        except TypeError:
            # a Fraction entry
            _, row = cleared(row, _RATIONAL)
            g = gcd(*row.values())
        if g == 1 and 0 not in row.values() and row[min(row)] > 0:
            return row
        ints = {j: n for j, n in row.items() if n}
        return _primitive(ints) if ints else ints

    @staticmethod
    def combine(r: dict, p: dict, c) -> dict:
        """b*r - a*p with a = r[c], b = p[c] over gcd(a, b); the result is
        primitive and zero at c (where b*a - a*b cancels)."""
        a, b = r[c], p[c]
        g = gcd(a, b)
        if g != 1:
            a //= g
            b //= g
        out = {j: b * v for j, v in r.items()}
        for j, v in p.items():
            w = out.get(j, 0) - a * v
            if w:
                out[j] = w
            else:
                del out[j]
        return _primitive(out) if out else out

    @staticmethod
    def monic(row: dict, c) -> dict:
        return divided(row, row[c], _RATIONAL)


class _RatCycRows(_IntRows):
    """Order-m rows with entries in Q: integer rows of first coefficients,
    which ``monic`` lifts back to coefficient tuples."""

    def __init__(self, field: _FieldBase):
        self.field = field

    @staticmethod
    def prim(row: dict) -> dict:
        return _IntRows.prim({j: e[0] for j, e in row.items()})

    def monic(self, row: dict, c) -> dict:
        pad = self.field.zero[1:]
        return {j: (q,) + pad for j, q in _IntRows.monic(row, c).items()}


class _CycRows:
    """Order-m rows with an irrational entry (and the reference route for
    ``_RatCycRows``): coefficient tuples, divided by their rational content
    into integer tuples, so ``combine`` does integer arithmetic."""

    def __init__(self, field: _FieldBase):
        self.field = field

    def prim(self, row: dict) -> dict:
        """The row over its content gcd(numerators) / lcm(denominators),
        signed so that the first coefficient at the lowest column is
        positive: int tuples whose coefficients have gcd 1."""
        _, ints = cleared(row, self.field)
        # a list, not a generator: an argument tuple built from a generator
        # is allocated at ten slots and shrunk, so it is freed into the free
        # list of its own length, which the next such call does not take
        # from, and up to 2,000 tuples of each length stay allocated
        num = gcd(*[c for entry in ints.values() for c in entry])
        if not num:
            return {}
        if next(c for c in ints[min(ints)] if c) < 0:
            num = -num
        if num == 1:
            return ints
        return {j: tuple([c // num for c in entry])
                for j, entry in ints.items()}

    def combine(self, r: dict, p: dict, c) -> dict:
        f = self.field
        a, b = r[c], p[c]
        out = {}
        for j, v in r.items():
            out[j] = f.mul(b, v)
        for j, v in p.items():
            w = f.sub(out.get(j, f.zero), f.mul(a, v))
            if f.is_zero(w):
                out.pop(j, None)
            else:
                out[j] = w
        out.pop(c, None)
        return self.prim(out)

    def monic(self, row: dict, c) -> dict:
        f = self.field
        inv = f.inv(row[c])
        return {j: f.from_coeffs(f.mul(inv, v)) for j, v in row.items()}


def _adapter(field: _FieldBase, rows: list[dict] | None):
    """Integer rows unless a Q(zeta_m) entry may be irrational (rows None)."""
    if field.order == 1:
        return _IntRows()
    if rows is None or any(any(e[1:]) for row in rows for e in row.values()):
        return _CycRows(field)
    return _RatCycRows(field)


class Echelon:
    """The one echelon with leftmost pivots, fed one row at a time.

    ``add`` reduces a row by the pivot rows, each keyed by its leading
    column, to a new pivot row and returns it, empty when the row lay in
    the span of the rows before it.  A row shorter than the pivot row at
    its leading column takes its place and the pivot row is reduced
    instead, so the pivot rows stay sparse.  Rows come as the caller's
    adapter's primitive rows, which ``prim`` may not read again.  The keys
    of ``pivots`` are the leading columns of a row echelon form, which are
    the pivot columns of the reduced one.
    """

    def __init__(self, adapter):
        self.adapter = adapter
        self.pivots: dict[int, dict] = {}

    def add(self, row: dict) -> dict:
        adapter, pivots = self.adapter, self.pivots
        while row:
            c = min(row)
            pivot = pivots.get(c)
            if pivot is None:
                pivots[c] = row
                break
            if len(row) < len(pivot):
                pivots[c], row, pivot = row, pivot, row
            row = adapter.combine(row, pivot, c)
        return row


def leading_columns(rows, field: _FieldBase) -> list:
    """The pivot columns of the matrix with these rows, in ascending order."""
    adapter = _adapter(field, rows)
    echelon = Echelon(adapter)
    for row in rows:
        echelon.add(adapter.prim(row))
    return sorted(echelon.pivots)


# -- elimination ---------------------------------------------------------------

def _eliminate(indexed_rows, field: _FieldBase, cols=None):
    """Echelonize the (row index, row) pairs in one pass; returns the row
    adapter and (pivot col, row index, primitive row) triples in the order
    the pivots were created.  Each pivot row is its input row plus
    multiples of earlier pivot rows, so the inputs at the pivot rows and
    pivot columns form an invertible submatrix.  A pivot row can still hold
    entries at columns pivoted LATER (it is out of play by then), never
    earlier, so the creation order is what back-substitution must walk
    backwards.  With cols, pivots are taken only in those columns.

    The pivot loop pops the column with the fewest live rows, lowest index
    on ties, from a lazy heap of (count, col).  While some column has one
    live row it pops such a column, and its row becomes a pivot with no
    combination; retiring that row only lowers counts.  So the loop first
    peels on plain ints: a count and a sum of row indices per column (the
    sum is the one row's index once the count is 1) and a min-heap of the
    columns at count 1.  That gives the loop's own first pivots in its own
    order, and only the rows left over get column sets and the heap.
    """
    indexed_rows = list(indexed_rows)
    adapter = _adapter(field, [row for _, row in indexed_rows])
    # stat[c]: the live rows at c, and the sum of their indices
    stat: dict[int, list[int]] = {}
    live: dict[int, dict] = {}
    for rid, row in indexed_rows:
        row = adapter.prim(row)
        if not row:
            continue
        live[rid] = row
        for c in row:
            if cols is None or c in cols:
                e = stat.get(c)
                if e is None:
                    stat[c] = [1, rid]
                else:
                    e[0] += 1
                    e[1] += rid
    pivots: list[tuple] = []
    ones = [c for c, e in stat.items() if e[0] == 1]
    heapq.heapify(ones)
    while ones:
        c = heapq.heappop(ones)
        # counts only fall here, so a column is queued once at 1 and is
        # stale only at 0
        live_at_c, prid = stat[c]
        if live_at_c:
            prow = live.pop(prid)
            for j in prow:
                e = stat.get(j)
                if e is not None:
                    e[0] -= 1
                    e[1] -= prid
                    if e[0] == 1:
                        heapq.heappush(ones, j)
            pivots.append((c, prid, prow))

    # every counted column of a leftover row has two live rows or more
    col_rows: dict[int, set[int]] = {}
    for rid, row in live.items():
        for c in row:
            if c in stat:
                col_rows.setdefault(c, set()).add(rid)
    heap = [(len(rids), c) for c, rids in col_rows.items()]
    heapq.heapify(heap)
    while heap:
        cnt, c = heapq.heappop(heap)
        rids = col_rows.get(c)
        if not rids or cnt != len(rids):
            continue
        prid = min(rids, key=lambda rid: (len(live[rid]), rid))
        prow = live[prid]
        # combining with prow changes a row's support only at prow's columns,
        # and each tracked one still holds prid, so its column set exists
        pcols = prow if cols is None else [j for j in prow if j in cols]
        for rid in list(rids):
            if rid == prid:
                continue
            old = live[rid]
            new = adapter.combine(old, prow, c)
            for j in pcols:
                if j in old:
                    if j not in new:
                        col_rows[j].discard(rid)
                elif j in new:
                    col_rows[j].add(rid)
            if new:
                live[rid] = new
            else:
                del live[rid]
        # retire the pivot row and requeue its columns at their new counts
        del live[prid]
        for j in pcols:
            s = col_rows[j]
            s.discard(prid)
            if s:
                heapq.heappush(heap, (len(s), j))
            else:
                del col_rows[j]
        pivots.append((c, prid, prow))
    return adapter, pivots


def _pivot_columns(indexed_rows, field: _FieldBase) -> tuple[list, list]:
    """(pivot columns, pivot rows) of an elimination of the (row index, row)
    pairs, both ascending and rank-many, found without back-substitution;
    the rows restricted to the columns are invertible."""
    _, pivots = _eliminate(indexed_rows, field)
    return sorted(c for c, _, _ in pivots), sorted(r for _, r, _ in pivots)


def reduced_rows(input_rows, field: _FieldBase, cols=None):
    """A deterministic reduced basis of the row span: monic rows with distinct
    pivot columns, each pivot column absent from every other row.  With
    cols, pivots are taken only in those columns (the rows must be
    independent on them).

    Unlike ``rref_rows`` the pivot of a row need not be its leftmost entry,
    so the output is not the canonical echelon form; it is the cheap variant
    for very large spans, where the strict leftmost rule causes fill.  All
    coset reduction, coordinate extraction and ``kernel_from_rref`` work the
    same on it.  ``Homology`` reads its representatives off the one of A
    restricted to the coordinates outside its boundaries' pivot rows, and
    builds its boundary basis with pivots in those rows.
    """
    adapter, pivots = _eliminate(enumerate(input_rows), field, cols)
    # a pivot row may hold columns pivoted later, never earlier
    return _back_substitute([(c, row) for c, _, row in pivots], adapter)


def rref_rows(input_rows, field: _FieldBase):
    """Canonical reduced echelon form of the span of the given sparse rows.

    Returns (rows, pivot_cols): monic rows sorted by strictly increasing pivot
    column, zero everywhere above and below each pivot: ``_eliminate``'s
    basis of the span (the leftmost rule alone fills in) in an ``Echelon``.
    """
    adapter, pivots = _eliminate(enumerate(input_rows), field)
    echelon = Echelon(adapter)
    for _, _, row in pivots:
        echelon.add(row)
    # in echelon order a row only holds later pivots' columns
    return _back_substitute(sorted(echelon.pivots.items()), adapter)


def _back_substitute(ordered, adapter):
    """Monic rows with each pivot column absent from every other row, sorted
    by pivot column, from (pivot col, row) pairs where a row holds no pivot
    column of the pairs before it.

    Cleaning in reverse order meets only already-clean rows, and a clean row
    holds no other pivot column, so a combination adds none either.
    """
    clean: dict[int, dict] = {}
    for c, row in reversed(ordered):
        for c2 in sorted(k for k in row if k != c and k in clean):
            row = adapter.combine(row, clean[c2], c2)
        clean[c] = row
    pivot_cols = sorted(clean)
    return [adapter.monic(clean[c], c) for c in pivot_cols], pivot_cols


def kernel_from_rref(rref, pivot_cols, ncols: int, field: _FieldBase) -> list[dict]:
    """Canonical right-kernel basis, one vector per free column, ascending."""
    pivset = set(pivot_cols)
    per_free: dict[int, dict] = {}
    for row, p in zip(rref, pivot_cols):
        for j, val in row.items():
            if j == p:
                continue
            per_free.setdefault(j, {})[p] = field.neg(val)
    basis = []
    for f in range(ncols):
        if f in pivset:
            continue
        vec = per_free.get(f, {})
        vec[f] = field.one
        basis.append(vec)
    return basis


# -- matrices -------------------------------------------------------------------

class SparseMatrix:
    """Sparse exact matrix.  Build, then query; do not mutate after querying."""

    def __init__(self, nrows: int, ncols: int, field: _FieldBase, rows=None):
        self.nrows = nrows
        self.ncols = ncols
        self.field = field
        self.rows: list[dict] = rows if rows is not None else [{} for _ in range(nrows)]
        if rows is not None and len(rows) != nrows:
            raise ValidationError(f"expected {nrows} rows, got {len(rows)}")
        self._rref = None
        self._cols = None
        # rank-many pivot columns and pivot rows meeting in an invertible
        # submatrix, set by rank() or by Homology
        self._pivots = None
        self._pivot_rows = None

    # construction ---------------------------------------------------------

    @staticmethod
    def from_dense(entries, field: _FieldBase) -> "SparseMatrix":
        nrows = len(entries)
        ncols = len(entries[0]) if nrows else 0
        m = SparseMatrix(nrows, ncols, field)
        for i, row in enumerate(entries):
            m.rows[i] = dense_to_sparse(row, field)
        return m

    @staticmethod
    def from_columns(cols: list[dict], nrows: int, field: _FieldBase) -> "SparseMatrix":
        m = SparseMatrix(nrows, len(cols), field)
        for j, col in enumerate(cols):
            for i, val in col.items():
                if not field.is_zero(val):
                    m.rows[i][j] = val
        return m

    @staticmethod
    def identity(n: int, field: _FieldBase) -> "SparseMatrix":
        return SparseMatrix(n, n, field,
                            rows=[{i: field.one} for i in range(n)])

    def set(self, i: int, j: int, value) -> None:
        if not (0 <= i < self.nrows and 0 <= j < self.ncols):
            raise AmbientMismatch(f"entry ({i}, {j}) outside the matrix")
        raw = to_raw(value, self.field)
        if self.field.is_zero(raw):
            self.rows[i].pop(j, None)
        else:
            self.rows[i][j] = raw

    # views ------------------------------------------------------------------

    def entry(self, i: int, j: int):
        return self.rows[i].get(j, self.field.zero)

    def columns(self) -> list[dict]:
        if self._cols is None:
            cols = [{} for _ in range(self.ncols)]
            for i, row in enumerate(self.rows):
                for j, val in row.items():
                    cols[j][i] = val
            self._cols = cols
        return self._cols

    def transpose(self) -> "SparseMatrix":
        return SparseMatrix(self.ncols, self.nrows, self.field,
                            rows=[dict(c) for c in self.columns()])

    def is_zero_matrix(self) -> bool:
        return all(not row for row in self.rows)

    def equals(self, other: "SparseMatrix") -> bool:
        if (self.nrows, self.ncols) != (other.nrows, other.ncols):
            return False
        if self.field.order != other.field.order:
            return False
        return all(vec_equal(a, b, self.field) for a, b in zip(self.rows, other.rows))

    def scaled(self, c) -> "SparseMatrix":
        raw = to_raw(c, self.field)
        return SparseMatrix(self.nrows, self.ncols, self.field,
                            rows=[vec_scale(r, raw, self.field) for r in self.rows])

    # algebra -----------------------------------------------------------------

    def mat_vec(self, v: dict) -> dict:
        cols = self.columns()
        out: dict = {}
        for j, x in v.items():
            if not 0 <= j < self.ncols:
                raise AmbientMismatch(f"index {j} outside {self.ncols} columns")
            vec_axpy(out, x, cols[j], self.field)
        return out

    def matmul(self, other: "SparseMatrix") -> "SparseMatrix":
        if self.ncols != other.nrows:
            raise AmbientMismatch(
                f"cannot compose {self.nrows}x{self.ncols} with {other.nrows}x{other.ncols}")
        cols = [self.mat_vec(c) for c in other.columns()]
        return SparseMatrix.from_columns(cols, self.nrows, self.field)

    def add(self, other: "SparseMatrix") -> "SparseMatrix":
        if (self.nrows, self.ncols) != (other.nrows, other.ncols):
            raise AmbientMismatch("shape mismatch in matrix sum")
        rows = [vec_add(a, b, self.field) for a, b in zip(self.rows, other.rows)]
        return SparseMatrix(self.nrows, self.ncols, self.field, rows=rows)

    # elimination-backed queries ----------------------------------------------

    def rref(self):
        if self._rref is None:
            self._rref = rref_rows(self.rows, self.field)
        return self._rref

    def rank(self) -> int:
        if self._pivots is None:
            self._pivots, self._pivot_rows = _pivot_columns(
                enumerate(self.rows), self.field)
        return len(self._pivots)

    def kernel_basis(self) -> list[dict]:
        return self.kernel_space().basis

    def kernel_space(self) -> "Subspace":
        """The right kernel as a subspace, without re-reducing its basis.

        Each kernel vector is already monic at its own free column and that
        column is absent from the others, so the family is its own pivot
        basis with pivots at the free columns.
        """
        rows, pivots = self.rref()
        basis = kernel_from_rref(rows, pivots, self.ncols, self.field)
        pivset = set(pivots)
        free = [j for j in range(self.ncols) if j not in pivset]
        return Subspace(self.ncols, self.field, basis, free)

    def solve(self, rhs: dict) -> dict | None:
        """One exact solution of self @ x = rhs (free variables zero), or None."""
        n = self.ncols
        for i in rhs:
            if not 0 <= i < self.nrows:
                raise AmbientMismatch(f"index {i} outside {self.nrows} rows")
        aug = []
        for i, row in enumerate(self.rows):
            r = dict(row)
            if i in rhs and not self.field.is_zero(rhs[i]):
                r[n] = rhs[i]
            if r:
                aug.append(r)
        rows, pivots = rref_rows(aug, self.field)
        if pivots and pivots[-1] == n:
            return None
        out = {}
        for row, p in zip(rows, pivots):
            if n in row:
                out[p] = row[n]
        return out

    def inverse(self) -> "SparseMatrix":
        """The inverse of a square matrix, read off the rref of [self | I]."""
        n = self.ncols
        if self.nrows != n:
            raise AmbientMismatch(
                f"a {self.nrows}x{n} matrix has no inverse")
        one = self.field.one
        rows, pivots = rref_rows([{**row, n + i: one}
                                  for i, row in enumerate(self.rows)],
                                 self.field)
        if pivots and pivots[-1] >= n:
            raise ValidationError("matrix is not invertible")
        return SparseMatrix(n, n, self.field,
                            rows=[{j - n: c for j, c in row.items() if j >= n}
                                  for row in rows])


# -- subspaces -------------------------------------------------------------------

def _check_ambient(vec: dict, ambient_dim: int) -> None:
    for i in vec:
        if not 0 <= i < ambient_dim:
            raise AmbientMismatch(
                f"index {i} outside an ambient space of {ambient_dim}")


class Subspace:
    """A subspace held by a reduced basis: monic vectors with distinct pivot
    columns, each pivot column absent from the other vectors.

    ``from_vectors`` (and so ``sum_with``) gives the canonical reduced
    echelon form.  ``SparseMatrix.kernel_space`` and
    ``Homology.boundary_space`` give reduced bases that are not: their
    pivots need not be leftmost, and the latter's pivots are the pivot rows
    an elimination of the boundary map picked.  ``reduce``, ``coords`` and
    ``equals`` work the same on either kind.  They and ``from_vectors``
    refuse a vector with a coordinate outside ``range(ambient_dim)``, and
    ``coords`` follows the module's sparse convention.
    """

    def __init__(self, ambient_dim: int, field: _FieldBase, basis: list[dict],
                 pivot_cols: list[int]):
        self.ambient_dim = ambient_dim
        self.field = field
        self.basis = basis
        self.pivot_cols = pivot_cols
        self._index = {p: k for k, p in enumerate(pivot_cols)}

    @staticmethod
    def from_vectors(ambient_dim: int, field: _FieldBase, vectors) -> "Subspace":
        vectors = list(vectors)
        for vec in vectors:
            _check_ambient(vec, ambient_dim)
        rows, pivots = rref_rows(vectors, field)
        return Subspace(ambient_dim, field, rows, pivots)

    @property
    def dim(self) -> int:
        return len(self.basis)

    def reduce(self, vec: dict) -> dict:
        """The coset representative with no pivot coordinate; it depends on
        the basis only through the pivot columns."""
        _check_ambient(vec, self.ambient_dim)
        out = dict(vec)
        f = self.field
        # a basis vector holds no other pivot column, so one pass clears them
        for c in [c for c in out if c in self._index]:
            vec_axpy(out, f.neg(out[c]), self.basis[self._index[c]], f)
        return out

    def contains(self, vec: dict) -> bool:
        return vec_is_zero(self.reduce(vec))

    def contains_subspace(self, other: "Subspace") -> bool:
        return all(self.contains(b) for b in other.basis)

    def coords(self, vec: dict) -> dict | None:
        """{basis index: coefficient} of vec, or None if it is outside.

        A basis vector is 1 at its pivot and the others are 0 there, so a
        coefficient is vec's entry at that pivot."""
        if self.reduce(vec):
            return None
        return {self._index[c]: x for c, x in vec.items() if c in self._index}

    def sum_with(self, other: "Subspace") -> "Subspace":
        if self.ambient_dim != other.ambient_dim:
            raise AmbientMismatch("subspace sum needs one ambient space")
        return Subspace.from_vectors(self.ambient_dim, self.field,
                                     list(self.basis) + list(other.basis))

    def equals(self, other: "Subspace") -> bool:
        """Same subspace, regardless of how either basis was produced."""
        if self.ambient_dim != other.ambient_dim or self.dim != other.dim:
            return False
        return self.contains_subspace(other)


def operator_matrix(f, vectors, target, message: str) -> SparseMatrix:
    """Matrix whose column j is f(vectors[j]) in the basis of target.

    f maps a sparse vector to one (a matrix passes its ``mat_vec``); target
    is a Subspace or a Homology, anything with ``coords``, ``dim`` and
    ``field``, and the columns are its coordinates, sparse as in the module
    docstring.  An image outside it raises NotContained with message.
    """
    cols = []
    for v in vectors:
        c = target.coords(f(v))
        if c is None:
            raise NotContained(message)
        cols.append(c)
    return SparseMatrix.from_columns(cols, target.dim, target.field)


def preimage_subspace(f: SparseMatrix, target: Subspace) -> Subspace:
    """{x : f(x) lies in target} as a subspace of the domain: the
    ``kernel_space`` of f followed by reduction modulo target."""
    if f.nrows != target.ambient_dim:
        raise AmbientMismatch("map codomain does not match the target's ambient space")
    residual_cols = [target.reduce(col) for col in f.columns()]
    return SparseMatrix.from_columns(residual_cols, f.nrows,
                                     f.field).kernel_space()


def intersect_subspaces(U: Subspace, V: Subspace) -> Subspace:
    """Vectors lying in both subspaces, as a canonical subspace: the images
    of the combinations of V's basis that land in U."""
    field = U.field
    inclusion = SparseMatrix.from_columns(V.basis, V.ambient_dim, field)
    return Subspace.from_vectors(U.ambient_dim, field, [
        inclusion.mat_vec(combo)
        for combo in preimage_subspace(inclusion, U).basis])


# -- homology of a two-step complex -----------------------------------------------

class Homology:
    """ker(A) / im(B) where A follows B in a complex (so A @ B = 0).

    One row elimination of B, without back-substitution, picks rank(B)
    pivot columns P and one pivot row per pivot column, R*, and B[R*, P]
    is invertible.  So im B maps isomorphically onto the coordinates R*,
    the coordinates F outside them are a complement of im B, and since
    im B lies in ker A, ker A is im B plus its part in F.  The homology is
    the kernel of A restricted to F, and the representatives are its
    ``reduced_rows`` kernel basis: honest cycles supported on F, one per
    class, dim = space_dim - rank A - rank B.  Both pivot sets depend on B
    alone and are cached on it (``_pivots``, ``_pivot_rows``).

    The elimination of B uses only B's rows outside A's pivot columns, which
    carry B's column dependencies because every column of B lies in ker A
    and a vector of ker A is fixed by its coordinates off A's pivots.
    Along a complex the pivots found for B at degree n are A's at degree
    n+1, so each differential's rows are eliminated once.

    ``boundary_space``, a reduced basis of im B, is built on first use, by
    ``coords`` or a direct read: B's P-columns eliminated with pivots taken
    only in R*, then back-substituted, so its pivot columns are exactly R*.
    Reducing a cycle by it leaves a vector of ker A on F, whose coordinates
    are its values at the representatives' own free coordinates.  Dims
    never build it.  Representatives and the basis depend on the
    elimination; the subspaces they span do not.  Without A @ B = 0 the
    answer, and the pivots cached on B, are wrong (pass check_complex to
    test it).
    """

    def __init__(self, A: SparseMatrix | None, B: SparseMatrix | None,
                 space_dim: int | None = None, field: _FieldBase | None = None,
                 check_complex: bool = False):
        if A is None and B is None and (space_dim is None or field is None):
            raise ValidationError("need a map or an explicit space dimension")
        self.field = field or (A.field if A is not None else B.field)
        sizes = [(name, n) for name, n in (
            ("space_dim", space_dim),
            ("A's domain", None if A is None else A.ncols),
            ("B's codomain", None if B is None else B.nrows)) if n is not None]
        dim_here = sizes[0][1]
        if any(n != dim_here for _, n in sizes):
            raise AmbientMismatch("the middle space has disagreeing sizes: "
                                  + ", ".join("%s %d" % s for s in sizes))
        self.space_dim = dim_here
        self.A = A
        self.B = B
        if check_complex and A is not None and B is not None:
            if not A.matmul(B).is_zero_matrix():
                raise ValidationError("not a complex: composition is nonzero")

        bound_rows = set()
        if B is not None:
            if B._pivots is None:
                skip = set()
                if A is not None and A.rank():
                    skip = set(A._pivots)
                B._pivots, B._pivot_rows = _pivot_columns(
                    ((i, row) for i, row in enumerate(B.rows) if i not in skip),
                    self.field)
            bound_rows = set(B._pivot_rows)
        free = [j for j in range(dim_here) if j not in bound_rows]
        if A is not None:
            # A restricted to F, then its kernel
            pos = {j: k for k, j in enumerate(free)}
            sub_rows = []
            for row in A.rows:
                r = {pos[j]: v for j, v in row.items() if j in pos}
                if r:
                    sub_rows.append(r)
            rows, pivots = reduced_rows(sub_rows, self.field)
            kernel = kernel_from_rref(rows, pivots, len(free), self.field)
        else:
            pivots = []
            kernel = [{k: self.field.one} for k in range(len(free))]
        taken = set(pivots)
        # each kernel vector carries a lone 1 at its own free coordinate:
        # {that coordinate: class index}
        self._class_index = {j: i for i, j in enumerate(
            j for k, j in enumerate(free) if k not in taken)}
        self.representatives = [{free[k]: v for k, v in vec.items()}
                                for vec in kernel]
        self._boundary = None

    @property
    def boundary_space(self) -> Subspace:
        if self._boundary is None:
            basis, pivots = [], []
            if self.B is not None:
                cols = self.B.columns()
                basis, pivots = reduced_rows(
                    [cols[j] for j in self.B._pivots], self.field,
                    set(self.B._pivot_rows))
            self._boundary = Subspace(self.space_dim, self.field, basis, pivots)
        return self._boundary

    @property
    def dim(self) -> int:
        return len(self.representatives)

    def coords(self, vec: dict) -> dict | None:
        """{class index: coefficient} of the class of vec, sparse as in the
        module docstring, or None if vec is not a cycle."""
        if self.A is not None and self.A.mat_vec(vec):
            return None
        index = self._class_index
        return {index[j]: x for j, x in self.boundary_space.reduce(vec).items()
                if j in index}

    def class_is_zero(self, vec: dict) -> bool:
        c = self.coords(vec)
        if c is None:
            raise NotContained("not a cycle modulo boundaries")
        return not c


def homology(A: SparseMatrix | None, B: SparseMatrix | None,
             space_dim: int | None = None, field: _FieldBase | None = None,
             check_complex: bool = False) -> Homology:
    return Homology(A, B, space_dim=space_dim, field=field,
                    check_complex=check_complex)


def induced_map(f: SparseMatrix, source: Homology, target: Homology) -> SparseMatrix:
    """Matrix of the map induced on homology by a chain-level map."""
    if (f.nrows, f.ncols) != (target.space_dim, source.space_dim):
        raise AmbientMismatch(
            f"a {f.nrows}x{f.ncols} chain map from a space of "
            f"{source.space_dim} to one of {target.space_dim}")
    return operator_matrix(f.mat_vec, source.representatives, target,
                           "chain map does not send cycles to cycles")
