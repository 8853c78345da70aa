"""Exact linear algebra over the rationals.

Everything downstream (hom spaces, homology ranks, homotopy solving) reduces
to exact kernels and solves. A coefficient is an int while it is integral
and a Fraction only when it is not, never a float: ``_frac`` is the one
constructor and ``_div`` the one division. ``Matrix`` stores dense lists of
them. Its public constructor sends every cell of outside data through
``_frac``; the matrices its own arithmetic makes (sums, products, scalings,
stacks, submatrices, reduced forms and the matrix of a column system) are
built by ``Matrix._trusted``, which sends only a row holding a cell that is
not an int through it. A matrix is immutable once built, and
``zero_matrix`` relies on that: it hands out one shared all-zero matrix per
shape. Its one elimination routine, ``Matrix.rref``, works on sparse rows and
skips zero entries, since the systems that come up (ladder systems above
all) hold a few nonzeros per row.
A kernel and a solve read the same reduced form of the matrix built from
their columns; a solve appends its right-hand side as one more column.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from typing import Iterable, Sequence


def _frac(x) -> int | Fraction:
    """The exact value of ``x``: an int when it is integral, else a Fraction."""
    if type(x) is int:
        return x
    x = Fraction(x)
    return x.numerator if x.denominator == 1 else x


def _div(x, y) -> int | Fraction:
    """x / y exactly: x or -x when y is ±1, else through ``Fraction``, since
    a bare ``/`` on two ints gives a float."""
    return x if y == 1 else -x if y == -1 else _frac(Fraction(x) / y)


def unit_vector(n: int, k: int) -> list[Fraction]:
    """The k-th standard basis vector of Q^n."""
    v = [0] * n
    v[k] = 1
    return v


_INT = frozenset((int,))
_ZEROS: dict[tuple[int, int], Matrix] = {}   # (nrows, ncols) -> the shared zero


def zero_matrix(nrows: int, ncols: int) -> Matrix:
    """The all-zero nrows x ncols matrix: one shared object per shape, which
    nothing may mutate. Use ``Matrix(nrows, ncols)`` for a zero to fill in."""
    m = _ZEROS.get((nrows, ncols))
    if m is None:
        m = _ZEROS.setdefault((nrows, ncols), Matrix(nrows, ncols))
    return m


class Matrix:
    """A rows x cols matrix of exact coefficients (``_frac``)."""

    __slots__ = ("nrows", "ncols", "data")

    def __init__(self, nrows: int, ncols: int, data: list[list[Fraction]] | None = None):
        if nrows < 0 or ncols < 0:
            raise ValueError("negative matrix dimensions")
        self.nrows = nrows
        self.ncols = ncols
        if data is None:
            self.data = [[0] * ncols for _ in range(nrows)]
        else:
            if len(data) != nrows or any(len(r) != ncols for r in data):
                raise ValueError("matrix data shape mismatch")
            self.data = [[_frac(x) for x in row] for row in data]

    @classmethod
    def _trusted(cls, nrows: int, ncols: int, data: list[list]) -> Matrix:
        """Matrix from rows of the right shape, built from exact coefficients.

        The arithmetic below and ``rref`` build their results here, and so
        does ``_matrix_from_columns`` once it has checked its column lengths:
        the shape needs no check, an int cell is already exact, and only a row
        that holds another cell, such as a Fraction that may come out
        integral, goes through ``_frac``. The matrix takes ``data`` over, so
        callers pass lists of their own."""
        self = object.__new__(cls)
        self.nrows = nrows
        self.ncols = ncols
        self.data = [row if _INT.issuperset(map(type, row)) else [_frac(x) for x in row]
                     for row in data]
        return self

    @classmethod
    def from_rows(cls, rows: Sequence[Sequence]) -> Matrix:
        rows = [list(r) for r in rows]
        n = len(rows)
        m = len(rows[0]) if rows else 0
        return cls(n, m, rows)

    @classmethod
    def identity(cls, n: int) -> Matrix:
        return cls(n, n, [unit_vector(n, i) for i in range(n)])

    def __eq__(self, other):
        if not isinstance(other, Matrix):
            return NotImplemented
        return (self.nrows, self.ncols) == (other.nrows, other.ncols) and self.data == other.data

    def __repr__(self):
        return f"Matrix({self.nrows}x{self.ncols}, {self.data!r})"

    def is_zero(self) -> bool:
        return all(x == 0 for row in self.data for x in row)

    def __add__(self, other: Matrix) -> Matrix:
        if (self.nrows, self.ncols) != (other.nrows, other.ncols):
            raise ValueError("shape mismatch in add")
        return Matrix._trusted(self.nrows, self.ncols,
                               [[a + b for a, b in zip(r1, r2)]
                                for r1, r2 in zip(self.data, other.data)])

    def __sub__(self, other: Matrix) -> Matrix:
        return self + other.scale(-1)

    def scale(self, c) -> Matrix:
        c = _frac(c)
        return Matrix._trusted(self.nrows, self.ncols, [[c * x for x in row] for row in self.data])

    def __neg__(self) -> Matrix:
        return self.scale(-1)

    def __mul__(self, other: Matrix) -> Matrix:
        if self.ncols != other.nrows:
            raise ValueError(f"shape mismatch in mul: {self.nrows}x{self.ncols} * {other.nrows}x{other.ncols}")
        out = [[0] * other.ncols for _ in range(self.nrows)]
        for row, trow in zip(self.data, out):
            for k in range(self.ncols):
                a = row[k]
                if a == 0:
                    continue
                orow = other.data[k]
                for j in range(other.ncols):
                    b = orow[j]
                    if b != 0:
                        trow[j] = trow[j] + a * b
        return Matrix._trusted(self.nrows, other.ncols, out)

    def apply(self, vec: Sequence[Fraction]) -> list[Fraction]:
        if len(vec) != self.ncols:
            raise ValueError("vector length mismatch")
        nonzero = [(j, x) for j, x in enumerate(vec) if x]
        return [_frac(sum(row[j] * x for j, x in nonzero if row[j]))
                for row in self.data]

    def hstack(self, other: Matrix) -> Matrix:
        if self.nrows != other.nrows:
            raise ValueError("hstack row mismatch")
        return Matrix._trusted(self.nrows, self.ncols + other.ncols,
                               [r1 + r2 for r1, r2 in zip(self.data, other.data)])

    def submatrix(self, rows: Iterable[int], cols: Iterable[int]) -> Matrix:
        rows = list(rows)
        cols = list(cols)
        return Matrix._trusted(len(rows), len(cols),
                               [[self.data[i][j] for j in cols] for i in rows])

    # --- elimination ---

    def rref(self) -> tuple[Matrix, list[int]]:
        """Reduced row echelon form and pivot column indices.

        Gauss-Jordan elimination over sparse rows ({column: nonzero entry}):
        each pivot touches only the rows that hold its column. Among the
        candidate rows the one with fewest nonzeros is the pivot, which keeps
        fill-in low on banded systems; the reduced form is unique, so the
        choice does not change the result.
        """
        pending = [r for r in ({j: x for j, x in enumerate(row) if x}
                               for row in self.data) if r]   # not yet pivots
        done: list[dict[int, Fraction]] = []        # pivot rows, in pivot order
        pivots: list[int] = []
        for c in range(self.ncols):
            if not pending:
                break
            best = None
            for k, row in enumerate(pending):
                if c in row and (best is None or len(row) < len(pending[best])):
                    best = k
            if best is None:
                continue
            prow = pending.pop(best)
            pv = prow.pop(c)
            if pv != 1:
                prow = {j: _div(x, pv) for j, x in prow.items()}
            emptied = False
            for row in itertools.chain(pending, done):
                f = row.pop(c, None)
                if f is None:
                    continue
                for j, x in prow.items():
                    v = row.get(j, 0) - f * x
                    if v:
                        row[j] = v
                    else:
                        del row[j]
                emptied = emptied or not row
            if emptied:
                pending = [row for row in pending if row]
            prow[c] = 1
            done.append(prow)
            pivots.append(c)
        rows = [[row.get(j, 0) for j in range(self.ncols)] for row in done]
        rows += [[0] * self.ncols for _ in range(self.nrows - len(done))]
        return Matrix._trusted(self.nrows, self.ncols, rows), pivots

    def rank(self) -> int:
        return len(self.rref()[1])

    def nullspace(self) -> list[list[Fraction]]:
        """Basis of the right kernel, as vectors of length ncols."""
        R, pivots = self.rref()
        pivset = set(pivots)
        free = [j for j in range(self.ncols) if j not in pivset]
        basis = []
        for j in free:
            v = unit_vector(self.ncols, j)
            for r, pc in enumerate(pivots):
                v[pc] = -R.data[r][j]
            basis.append(v)
        return basis

    def is_invertible(self) -> bool:
        return self.nrows == self.ncols and self.rank() == self.nrows


def _matrix_from_columns(column_fn, nuk: int) -> Matrix:
    cols = [column_fn(j) for j in range(nuk)]
    nr = len(cols[0])
    if any(len(c) != nr for c in cols):
        raise ValueError("columns of different lengths")
    return Matrix._trusted(nr, nuk, [[cols[j][i] for j in range(nuk)] for i in range(nr)])


def solve_from_columns(column_fn, nuk: int, rhs: list[Fraction]):
    """Solve A x = rhs where column j of A is column_fn(j); returns x or None.

    [A | rhs] is reduced once, with rhs as column ``nuk``. The system is
    inconsistent exactly when that column is a pivot; otherwise x holds, at
    each pivot column, its row's entry in column ``nuk``, and zero elsewhere.
    """
    if nuk == 0:
        return [] if all(c == 0 for c in rhs) else None
    R, pivots = _matrix_from_columns(lambda j: rhs if j == nuk else column_fn(j),
                                     nuk + 1).rref()
    if nuk in pivots:
        return None
    x = [0] * nuk
    for row, pc in zip(R.data, pivots):
        x[pc] = row[nuk]
    return x


def kernel_from_columns(column_fn, nuk: int) -> list[list[Fraction]]:
    """Kernel basis of the linear map whose j-th column is column_fn(j)."""
    if nuk == 0:
        return []
    return _matrix_from_columns(column_fn, nuk).nullspace()


def search_invertible(basis: list, is_invertible):
    """An element of the span of ``basis`` accepted by ``is_invertible``.

    Tries each basis element, then, when there are at most four, every
    combination with coefficients in {0, 1, -1, 2}, not all zero, in
    ``itertools.product`` order: the sum of ``b.scale(c)`` over the nonzero
    coefficients. The search is deterministic. None means that no candidate
    passed, not that the span has no invertible element, and callers report
    it that way.
    """
    for b in basis:
        if is_invertible(b):
            return b
    if len(basis) > 4:
        return None
    for coeffs in itertools.product((0, 1, -1, 2), repeat=len(basis)):
        if any(coeffs):
            f = None
            for c, b in zip(coeffs, basis):
                if c:
                    f = b.scale(c) if f is None else f + b.scale(c)
            if is_invertible(f):
                return f
    return None
