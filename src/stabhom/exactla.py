"""Exact dense linear algebra over a prime field or the rationals.

Everything here is exact. No floating point is used anywhere. Entries are
kept in one of two backends, chosen by the field (Field.dtype):
  * F_p with (p-1)^2 < 2^63, that is p <= 3037000500: machine integers
    reduced mod p inside int64 numpy arrays.  A product of two entries
    fits; a matrix product sums k of them at a time and reduces, with
    k (p-1)^2 < 2^63, and is one numpy product when its inner dimension
    is at most k, as it always is for small p such as 2 and 5.
  * Larger p: Python ints reduced mod p inside object-dtype arrays, which
    cannot overflow.
  * Q: fractions.Fraction objects in lowest terms inside object-dtype
    arrays.  Products (_dot) and elimination (rref) run on integer
    numerators, Python ints, and return canonical Fractions, so no
    multiply-add is Fraction arithmetic.  A Q entry crosses between
    Fraction and integers in two places only: _integers reads entries (its
    _ratios reads a Fraction's _numerator and _denominator slots) and
    _fraction makes one from integers (one gcd, then those two slots set
    on a bare Fraction).  Both rely on Fraction keeping its state in those
    two slots, which tests/test_exactla.py checks by name.
A kernel is found on one route, under one size rule.  Over F_p a job runs
on Python lists of ints when the array it reads or writes holds at most
SMALL_ENTRIES entries: at that size a numpy call costs more than the
arithmetic it does.  _eliminate is the one place an elimination core is
chosen, by the entries of the matrix, and _eliminated_kernel the one writer
of a kernel basis, on lists or with numpy by the entries of the basis (free
columns x columns).  Over Q a matrix is always eliminated on integer rows:
a row scaled to integers has the same kernel, and the writer makes a
Fraction only for a nonzero entry of the basis.  kernel_basis is the writer
on _eliminate's rows; solve_with_kernel and Subspace.quotient call the
writer on an elimination they already hold; kron_kernel, for a Kronecker
system given by its terms (the form of every Hom system), reads the
system's size by _eliminate's rule.  On lists (always over Q) _kron_lists
writes the system's rows for _eliminate_rows, the list half of _eliminate,
unreduced over F_p (any ints of absolute value below p) and over Q the
system times the common denominator d of its terms (_integer_rows), which
has the same kernel, so no Fraction is made before the basis.  Otherwise
_kron_rows writes it for kernel_basis, by index into 4-D views of its
columns: an identity factor is never multiplied.
A path sum, sum_t c_t (A_t,l ... A_t,1), the value of a relation on a
module, is tested for zero (path_sum_is_zero) or valued (path_sum) with
no Matrix: over F_p on _dot's products, reduced once, and over Q on
integer rows, scaled by the arrays' common denominator (_integer_rows) and
the coefficients', so no Fraction is made before a value is asked for;
a sum of integer arrays with integral coefficients, as randmod draws
them, is decided on the arrays' rows as they are.
solve_with_kernel reads one solution of m X = b and the kernel of m off
one elimination of [m | b], which shows an inconsistent system before
either is written; solve_matrix reads the solution alone.
A prime modulus is checked by deterministic Miller-Rabin, exact below
3.317e24; larger moduli are refused.

Elimination (rref) touches only what a pivot changes: the pivot row from
the pivot column on, and the rows with a nonzero entry in the pivot
column, from the pivot column on.  Over F_p it runs on lists
(_rref_lists) or on the numpy array (_rref_numpy), as _eliminate
chooses.  The numpy core works in the narrowest signed dtype that holds
a product of two reduced entries (int16 up to p = 181, int32 up to
p = 46337, then int64; Python ints in object arrays beyond), swaps no
rows, and delays reduction mod p: the whole array is reduced only as
often as the dtype's range demands, and once at the end.  Over Q it is
fraction-free on integer rows (_rref_rational), which a pivot changes
from the first pivot column on, each pivot the smallest entry of its
column: the one Q core, under rref's Fractions and under kernel_basis's.
The rref is unique, so the core chosen changes no output.  rank counts
the pivots of the same elimination (_eliminate) and makes no rref
matrix, over Q no Fraction.

Conventions:
  * Matrices act on column vectors, so a matrix of shape (r, c) maps k^c
    into k^r.
  * A Subspace of k^n is stored as a matrix whose rows form a basis,
    kept in reduced row echelon form so equality is literal comparison,
    together with the pivot columns that elimination found.
  * A kernel basis (_eliminated_kernel) is the identity on the free
    columns of the eliminated matrix.  So both kinds of basis are the
    identity on known columns, where coordinates are read off and then
    checked by a product at the other columns.
"""
from __future__ import annotations

import numbers
from fractions import Fraction
from itertools import accumulate, islice
from math import gcd, lcm
from operator import add, attrgetter, mul
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

PRIME = "prime"
RATIONAL = "rational"


_INT64_MAX = 2 ** 63 - 1

# randrange's bounds for a draw over Q: integers in [-2, 2]
_RATIONAL_DRAWS = (-2, 3)


class FieldMismatch(ValueError):
    """Raised when operands live over different coefficient fields."""


class ShapeMismatch(ValueError):
    """Raised when operand shapes are incompatible."""


# Miller-Rabin with the first 13 primes as bases is exact below this bound
# (Sorenson and Webster, "Strong pseudoprimes to twelve prime bases", 2015).
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_MR_EXACT_BELOW = 3317044064679887385961981


def _is_prime(n: int) -> bool:
    """Deterministic primality test for n < 3.317e24; larger n raise."""
    if n >= _MR_EXACT_BELOW:
        raise ValueError(
            f"modulus {n} is too large: primality is decided exactly only below "
            f"{_MR_EXACT_BELOW}"
        )
    if n < 2:
        return False
    for q in _MR_BASES:
        if n % q == 0:
            return n == q
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for q in _MR_BASES:
        x = pow(q, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


class Field:
    """Coefficient field: F_p (kind 'prime') or Q (kind 'rational')."""

    __slots__ = ("kind", "p", "dtype")

    def __init__(self, kind: str, p: Optional[int] = None):
        if kind == PRIME:
            # a float or a string is refused, not truncated (2.5 would be F_2)
            integral = isinstance(p, numbers.Integral) and not isinstance(p, bool)
            if not integral or not _is_prime(int(p)):
                raise ValueError(f"prime field needs a prime modulus, got {p!r}")
            self.p = int(p)
            # int64 holds every product of two reduced entries only while
            # (p-1)^2 < 2^63; larger primes compute with Python ints
            self.dtype = np.int64 if (self.p - 1) ** 2 <= _INT64_MAX else object
        elif kind == RATIONAL:
            if p is not None:
                raise ValueError("rational field takes no modulus")
            self.p = None
            self.dtype = object
        else:
            raise ValueError(f"unknown field kind {kind!r}")
        self.kind = kind

    @classmethod
    def prime(cls, p: int) -> "Field":
        return cls(PRIME, p)

    @classmethod
    def rational(cls) -> "Field":
        return cls(RATIONAL)

    def __eq__(self, other) -> bool:
        return isinstance(other, Field) and self.kind == other.kind and self.p == other.p

    def __hash__(self) -> int:
        return hash((self.kind, self.p))

    def __repr__(self) -> str:
        return f"F_{self.p}" if self.kind == PRIME else "Q"

    # -- scalar plumbing ------------------------------------------------

    def coerce(self, x):
        """Bring a Python number (or string) into canonical scalar form.
        F_p takes only integer values: 2.5 or 1/2 raise ValueError."""
        if isinstance(x, str):
            return self.parse_scalar(x)
        if self.kind == PRIME:
            n = int(x)
            if n != x:
                raise ValueError(f"{x!r} is not an integer, so not an element of {self}")
            return n % self.p
        if isinstance(x, Fraction):
            return x
        # Fraction keeps a numpy integer as its numerator, whose products wrap
        return Fraction(int(x) if isinstance(x, np.integer) else x)

    def zero(self):
        return 0 if self.kind == PRIME else Fraction(0)

    def one(self):
        return 1 if self.kind == PRIME else Fraction(1)

    def inv(self, x):
        if self.kind == PRIME:
            x = int(x) % self.p
            if x == 0:
                raise ZeroDivisionError("inverse of zero")
            return pow(x, self.p - 2, self.p)
        if x == 0:
            raise ZeroDivisionError("inverse of zero")
        return Fraction(1) / x

    def parse_scalar(self, s: str):
        """Parse a serialized scalar: decimal for F_p, 'num/den' or decimal for Q."""
        s = s.strip()
        if self.kind == PRIME:
            return int(s) % self.p
        if "/" in s:
            num, den = s.split("/")
            return Fraction(int(num), int(den))
        return Fraction(int(s))

    def format_scalar(self, x) -> str:
        if self.kind == PRIME:
            return str(int(x) % self.p)
        [n], d = _integers([self.coerce(x)])
        return f"{n}/{d}"

    # -- array plumbing -------------------------------------------------

    def zeros(self, rows: int, cols: int) -> np.ndarray:
        """A writable rows x cols array of zeros of this field's dtype."""
        if self.dtype is np.int64:
            return np.zeros((rows, cols), dtype=np.int64)
        out = np.empty((rows, cols), dtype=object)
        out[...] = self.zero()
        return out

    def normalize(self, arr: np.ndarray) -> np.ndarray:
        return arr % self.p if self.kind == PRIME else arr

    def array(self, rows: Sequence[Sequence]) -> np.ndarray:
        r = len(rows)
        c = len(rows[0]) if r else 0
        out = np.empty((r, c), dtype=self.dtype)
        for i, row in enumerate(rows):
            if len(row) != c:
                raise ShapeMismatch("ragged rows")
            for j, x in enumerate(row):
                out[i, j] = self.coerce(x)
        return out

    def random_scalar(self, rng):
        if self.kind == PRIME:
            return rng.randrange(self.p)
        return _fraction(rng.randrange(*_RATIONAL_DRAWS), 1)

    def random_integers(self, rng, n: int) -> List[int]:
        """The integers behind n draws of random_scalar, with the same
        generator calls: residues mod p over F_p, and over Q the integers
        random_scalar makes Fractions."""
        randrange = rng.randrange
        if self.kind == PRIME:
            p = self.p
            return [randrange(p) for _ in range(n)]
        lo, hi = _RATIONAL_DRAWS
        return [randrange(lo, hi) for _ in range(n)]

    def add(self, a, b):
        return (a + b) % self.p if self.kind == PRIME else a + b

    def neg(self, a):
        return (-a) % self.p if self.kind == PRIME else -a

    def mul(self, a, b):
        return a * b % self.p if self.kind == PRIME else a * b


class Matrix:
    """Immutable dense matrix over a Field.

    data is a 2-D numpy array (int64 or Python ints reduced mod p, or
    Fraction objects; see Field.dtype) marked read-only after construction.
    """

    __slots__ = ("field", "data")

    def __init__(self, field: Field, data: np.ndarray, _trusted: bool = False):
        if not _trusted:
            data = np.asarray(data)
            if data.ndim != 2:
                raise ShapeMismatch("matrix data must be 2-D")
            if field.dtype is np.int64 and data.dtype.kind == "i":
                data = data.astype(np.int64) % field.p
            else:
                # entries one by one: an int64 cast would wrap a Python int
                # of 2^63 or more or an unsigned one, and truncate a float
                out = np.empty(data.shape, dtype=object)
                for i in range(data.shape[0]):
                    for j in range(data.shape[1]):
                        out[i, j] = field.coerce(data[i, j])
                data = out if field.dtype is object else out.astype(np.int64)
        data.flags.writeable = False
        self.field = field
        self.data = data

    # -- constructors ---------------------------------------------------

    @classmethod
    def zeros(cls, field: Field, rows: int, cols: int) -> "Matrix":
        return cls(field, field.zeros(rows, cols), _trusted=True)

    @classmethod
    def identity(cls, field: Field, n: int) -> "Matrix":
        data = field.zeros(n, n)
        one = field.one()
        for i in range(n):
            data[i, i] = one
        return cls(field, data, _trusted=True)

    @classmethod
    def from_rows(cls, field: Field, rows: Sequence[Sequence]) -> "Matrix":
        return cls(field, field.array(rows), _trusted=True)

    @classmethod
    def from_integers(cls, field: Field, data: np.ndarray) -> "Matrix":
        """The matrix of an integer array it takes as its own: over F_p
        residues mod p in the field's dtype, over Q integers of any dtype,
        each made a Fraction."""
        if field.kind == RATIONAL:
            data = _objects([_fraction(x, 1) for x in data.ravel().tolist()], data.shape)
        return cls(field, data, _trusted=True)

    # -- shape ------------------------------------------------------------

    @property
    def rows(self) -> int:
        return self.data.shape[0]

    @property
    def cols(self) -> int:
        return self.data.shape[1]

    @property
    def shape(self) -> Tuple[int, int]:
        return self.data.shape

    def is_zero(self) -> bool:
        return not self.data.any()

    # -- arithmetic -------------------------------------------------------

    def _check(self, other: "Matrix"):
        if self.field != other.field:
            raise FieldMismatch(f"{self.field} vs {other.field}")

    def __matmul__(self, other: "Matrix") -> "Matrix":
        self._check(other)
        if self.cols != other.rows:
            raise ShapeMismatch(f"{self.shape} @ {other.shape}")
        return Matrix(self.field, _dot(self.field, self.data, other.data), _trusted=True)

    def __add__(self, other: "Matrix") -> "Matrix":
        self._check(other)
        if self.shape != other.shape:
            raise ShapeMismatch(f"{self.shape} + {other.shape}")
        return Matrix(self.field, self.field.normalize(self.data + other.data), _trusted=True)

    def __sub__(self, other: "Matrix") -> "Matrix":
        self._check(other)
        if self.shape != other.shape:
            raise ShapeMismatch(f"{self.shape} - {other.shape}")
        return Matrix(self.field, self.field.normalize(self.data - other.data), _trusted=True)

    def __neg__(self) -> "Matrix":
        return Matrix(self.field, self.field.normalize(-self.data), _trusted=True)

    def scale(self, c) -> "Matrix":
        c = self.field.coerce(c)
        return Matrix(self.field, self.field.normalize(self.data * c), _trusted=True)

    def transpose(self) -> "Matrix":
        return Matrix(self.field, self.data.T.copy(), _trusted=True)

    def __eq__(self, other) -> bool:
        """Same field, shape and entries, the entries compared by _equal."""
        return (
            isinstance(other, Matrix)
            and self.field == other.field
            and self.shape == other.shape
            and _equal(self.field, self.data, other.data)
        )

    def __repr__(self) -> str:
        return f"Matrix({self.field}, {self.rows}x{self.cols})"

    def entries(self) -> List:
        """Row-major flat list of entries."""
        return list(self.data.reshape(-1))


def _equal(field: Field, a: np.ndarray, b: np.ndarray) -> bool:
    """Whether two arrays over the field have one shape and equal entries.
    Over Q it compares the entries' numerators and denominators (_ratios),
    which canonical Fractions and ints share exactly when they are equal,
    with no Fraction.__eq__; over F_p it is np.array_equal, for int64 and
    object arrays alike."""
    if field.kind != RATIONAL:
        return bool(np.array_equal(a, b))
    return a.shape == b.shape and _ratios(a.ravel().tolist()) == _ratios(b.ravel().tolist())


_NUMERATOR = attrgetter("_numerator")
_DENOMINATOR = attrgetter("_denominator")


def _ratios(xs: List[Fraction]) -> Tuple[List[int], List[int]]:
    """(ns, ds) with xs[i] = ns[i] / ds[i] in lowest terms: the one reader
    of Q entries, under _integers and _equal.  A Fraction's numerator and
    denominator are its _numerator and _denominator slots, read by
    attrgetter; a list that holds an int is read by as_integer_ratio."""
    try:
        return list(map(_NUMERATOR, xs)), list(map(_DENOMINATOR, xs))
    except AttributeError:
        pairs = [x.as_integer_ratio() for x in xs]
        return [n for n, _ in pairs], [e for _, e in pairs]


def _integers(xs: List[Fraction]) -> Tuple[List[int], int]:
    """(ns, d) with xs[i] = ns[i] / d: d is the lcm of the denominators.
    Each x is read once (_ratios), and with every denominator 1 the
    numerators are returned as they are."""
    ns, ds = _ratios(xs)
    d = lcm(*ds)
    if d == 1:
        return ns, 1
    return [n * (d // e) for n, e in zip(ns, ds)], d


_new_object = object.__new__


def _fraction(n: int, d: int) -> Fraction:
    """Fraction(n, d) for ints n and d != 0, in lowest terms with d > 0:
    the one maker of a Q entry from integers.  One gcd and a sign fix, then
    a Fraction made by object.__new__ with its _numerator and _denominator
    slots set, as CPython's own Fraction._from_coprime_ints (3.12+) does;
    tests/test_exactla.py checks that Fraction has those two slots."""
    g = gcd(n, d)
    if d < 0:
        g = -g
    f = _new_object(Fraction)
    f._numerator = n // g
    f._denominator = d // g
    return f


def _objects(xs: list, shape: Tuple[int, ...]) -> np.ndarray:
    """The Python objects xs, row-major, in an object array of this shape."""
    out = np.empty(shape, dtype=object)
    out.ravel()[:] = xs
    return out


def _dot(field: Field, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a @ b over the field.  In int64 it sums k products at a time and
    reduces, with k (p-1)^2 < 2^63, so no partial sum overflows.  Over Q
    it clears each operand's denominators, a = n_a / d_a and b = n_b / d_b,
    makes one product of the Python-int numerators and returns the
    canonical Fractions (n_a @ n_b) / (d_a d_b)."""
    if field.kind == RATIONAL:
        if not a.size or not b.size:
            # nothing to multiply: every entry, if any, is an empty sum
            out = np.empty(a.shape[:-1] + b.shape[1:], dtype=object)
            out[...] = Fraction(0)
            return out
        (na, da), (nb, db) = _integers(a.ravel().tolist()), _integers(b.ravel().tolist())
        prod = np.dot(_objects(na, a.shape), _objects(nb, b.shape))
        flat = prod.ravel().tolist()
        # products repeat entries, so each distinct one is divided only once
        d = da * db
        over = {n: _fraction(n, d) for n in set(flat)}
        return _objects([over[n] for n in flat], prod.shape)
    if field.dtype is not np.int64:
        return field.normalize(np.dot(a, b))
    p, n = field.p, a.shape[-1]
    k = _INT64_MAX // (p - 1) ** 2
    if n <= k:
        return np.dot(a, b) % p
    out = np.dot(a[..., :k], b[:k]) % p
    for s in range(k, n, k):
        out = (out + np.dot(a[..., s : s + k], b[s : s + k]) % p) % p
    return out


def path_sum_is_zero(field: Field, terms: Sequence) -> bool:
    """Whether sum_t c_t (A_t,l ... A_t,1) is zero, for a nonempty list of
    terms (c_t, (A_t,1, ..., A_t,l)) of canonical scalars and numpy arrays
    over the field (over Q, Fractions or integers of an integer dtype), the
    arrays in application order, all of one length l and one product shape,
    as the terms of a relation are.  It makes no Matrix, and over Q no
    Fraction: over F_p the products are _dot's and the sum is reduced once
    (_prime_path_sum), over Q they run on integer rows (_rational_path_sum).
    When every array has an integer dtype and every coefficient is
    integral, as for randmod's draws, the sum itself is an integer array:
    it is decided on the arrays' rows as they are, with no denominator to
    clear."""
    if field.kind == RATIONAL:
        live = _live_terms(terms)
        if all(c.denominator == 1 for c, _ in live) and all(
            m.dtype.kind == "i" for _, ms in live for m in ms
        ):
            return not live or not any(
                _summed_products([(int(c), [m.tolist() for m in ms]) for c, ms in live])
            )
        return not any(_rational_path_sum(terms)[0])
    return not _prime_path_sum(field, terms).any()


def path_sum(field: Field, terms: Sequence) -> np.ndarray:
    """The value of sum_t c_t (A_t,l ... A_t,1), as path_sum_is_zero takes
    the terms, in an array of the field's dtype."""
    if field.kind == RATIONAL:
        flat, scale, shape = _rational_path_sum(terms)
        return _objects([_fraction(x, scale) for x in flat], shape)
    return _prime_path_sum(field, terms)


def _prime_path_sum(field: Field, terms: Sequence) -> np.ndarray:
    """The path sum over F_p: each term's first array scaled by c_t, then
    multiplied by _dot, which reduces; the reduced terms are added and the
    sum reduced once."""
    p = field.p
    out = None
    for c, ms in terms:
        acc = ms[0] if c == 1 else ms[0] * c % p
        for m in ms[1:]:
            acc = _dot(field, m, acc)
        out = acc if out is None else out + acc
    return out if len(terms) == 1 else out % p


def _rational_path_sum(terms: Sequence) -> Tuple[List[int], int, Tuple[int, int]]:
    """(flat, s, shape): s times the path sum over Q, its row-major entries
    Python ints, multiplied on lists.  The distinct arrays are read as
    integer rows over their common denominator d (_integer_rows).  The lcm
    e of the coefficients' denominators clears those, so with every term of
    one length l, as in a relation, s = d^l e.  A term through a space of
    dimension 0 is zero and dropped, so every product multiplied has rows
    and columns."""
    shape = (terms[0][1][-1].shape[0], terms[0][1][0].shape[1])
    live = _live_terms(terms)
    if not live:
        return [0] * (shape[0] * shape[1]), 1, shape
    arrays = {id(m): m for _, ms in live for m in ms}
    ints, d = _integer_rows(list(arrays.values()))
    rows = dict(zip(arrays, ints))
    cs, e = _integers([c for c, _ in live])
    total = _summed_products([(c, [rows[id(m)] for m in ms]) for c, (_, ms) in zip(cs, live)])
    return total, d ** len(live[0][1]) * e, shape


def _live_terms(terms: Sequence) -> list:
    """The terms through no space of dimension 0: a term through one is
    zero, so every product left to multiply has rows and columns."""
    return [(c, ms) for c, ms in terms if all(m.size for m in ms)]


def _summed_products(terms: Sequence) -> List[int]:
    """sum_t c_t (R_t,l ... R_t,1), row-major, for a nonempty list of terms
    (c_t, [R_t,1, ..., R_t,l]) of Python ints and integer rows (lists of
    lists of Python ints, none empty) in application order, multiplied on
    lists."""
    total = None
    for c, rs in terms:
        acc = rs[0]
        for r in rs[1:]:
            cols = list(zip(*acc))
            acc = [[sum(map(mul, row, col)) for col in cols] for row in r]
        flat = [c * x for row in acc for x in row]
        total = flat if total is None else list(map(add, total, flat))
    return total


def _integer_rows(arrays: Sequence[np.ndarray]) -> Tuple[List[List[List[int]]], int]:
    """(rows, d): each 2-D array's rows, d times over, as lists of Python
    ints, with d the lcm of the denominators of all their entries.  Arrays
    all of an integer dtype (F_p's int64, or integers as randmod draws) are
    read as they are, with d = 1; otherwise one _integers pass over every
    entry gives d and the integers."""
    if all(m.dtype.kind == "i" for m in arrays):
        return [m.tolist() for m in arrays], 1
    ns, d = _integers([x for m in arrays for x in m.ravel().tolist()])
    ints = iter(ns)
    return [[list(islice(ints, m.shape[1])) for _ in range(m.shape[0])] for m in arrays], d


def vstack(field: Field, mats: Sequence[Matrix], cols: Optional[int] = None) -> Matrix:
    if not mats:
        if cols is None:
            raise ShapeMismatch("vstack of nothing needs an explicit column count")
        return Matrix.zeros(field, 0, cols)
    c = mats[0].cols
    for m in mats:
        if m.field != field or m.cols != c:
            raise ShapeMismatch("vstack shape/field mismatch")
    return Matrix(field, np.vstack([m.data for m in mats]), _trusted=True)


def block_diag(field: Field, mats: Sequence[Matrix]) -> Matrix:
    rows = sum(m.rows for m in mats)
    cols = sum(m.cols for m in mats)
    out = field.zeros(rows, cols)
    r = c = 0
    for m in mats:
        out[r : r + m.rows, c : c + m.cols] = m.data
        r += m.rows
        c += m.cols
    return Matrix(field, out, _trusted=True)


# -- gaussian elimination ----------------------------------------------


# The one bound of the list route.  On the rref inputs of 65-256 entries that
# the numpy core took, lists took 3.57 against 3.73 ms in big_fp (dense F5)
# and 3.95 against 7.53 ms in laws_sweep (BENCH_19.json's threshold_replay);
# Hom and tensor systems gain up to 256 too (BENCH_20.json's layer_rows).
# Above 512 entries big_fp runs 4.5x slower on lists.
SMALL_ENTRIES = 256


def rref(m: Matrix) -> Tuple[Matrix, int, Tuple[int, ...]]:
    """Reduced row echelon form. Returns (rref matrix, rank, pivot columns).

    The core is _eliminate's: over F_p _rref_lists or _rref_numpy by the
    matrix's entries, over Q _rref_rational on integer rows, each pivot row
    then divided by its pivot into canonical Fractions.  The rref is unique,
    so every core returns the same matrix, pivots and dtype (object arrays
    hold Python ints over F_p)."""
    if not m.rows:
        return m, 0, ()
    field = m.field
    a, pivots = _eliminate(m)
    if field.kind == RATIONAL:
        zero = Fraction(0)
        flat = []
        for r, col in zip(a, pivots):
            v = r[col]
            flat += [_fraction(u, v) if u else zero for u in r]
        flat += [zero] * ((m.rows - len(pivots)) * m.cols)
        a = _objects(flat, m.shape)
    elif isinstance(a, list):
        a = np.array(a, dtype=field.dtype)
    return Matrix(field, a, _trusted=True), len(pivots), tuple(pivots)


def _eliminate(m: Matrix) -> Tuple[object, List[int]]:
    """m eliminated, and its pivots (a matrix with no rows has none): the one
    place a core is chosen.  Over Q the rows of _rref_rational, integer
    multiples of the rref's; over F_p the rref itself, as lists from
    _rref_lists when m has at most SMALL_ENTRIES entries and as an array
    from _rref_numpy otherwise."""
    if m.field.kind == RATIONAL:
        return _eliminate_rows(m.field, [_integers(r)[0] for r in m.data.tolist()], m.cols)
    if m.data.size <= SMALL_ENTRIES:
        return _eliminate_rows(m.field, m.data.tolist(), m.cols)
    return _rref_numpy(m.field, m.data)


def _eliminate_rows(
    field: Field, rows: List[List[int]], nc: int
) -> Tuple[List[List[int]], List[int]]:
    """_eliminate's list half, on rows given as Python lists of nc ints and
    eliminated in place: over Q any integer multiples of the matrix's rows
    (_rref_rational), over F_p any ints of absolute value below p
    (_rref_lists)."""
    if field.kind == RATIONAL:
        return _rref_rational(rows, nc)
    return _rref_lists(rows, nc, field.p)


def _rref_lists(a: List[List[int]], nc: int, p: int) -> Tuple[List[List[int]], List[int]]:
    """rref over F_p of the rows a, Python lists of nc ints, in place.  The
    pivot row is scaled by the inverse of its pivot, and each other row with
    an entry y in the pivot column takes y times it away, from that column
    on: the pivot row is zero left of it.  An entry may be any int of
    absolute value below p, which is nonzero exactly when it is nonzero mod
    p; the rows come back reduced mod p if they went in reduced."""
    nr = len(a)
    pivots: List[int] = []
    row = 0
    for col in range(nc):
        if row == nr:
            break
        for piv in range(row, nr):
            if a[piv][col]:
                break
        else:
            continue
        a[row], a[piv] = a[piv], a[row]
        prow = a[row]
        x = prow[col]
        if x != 1:
            inv = pow(x, p - 2, p)
            prow[col:] = [u * inv % p for u in prow[col:]]
        tail = prow[col:]
        for r in a:
            y = r[col]
            if y and r is not prow:
                r[col:] = [(u - y * v) % p for u, v in zip(r[col:], tail)]
        pivots.append(col)
        row += 1
    return a, pivots


# The signed machine integers _rref_numpy eliminates in, narrowest first, each
# with its bits: it holds every integer in [-2^bits, 2^bits).
_WORK_DTYPES = ((np.int16, 15), (np.int32, 31), (np.int64, 63))


def _rref_numpy(field: Field, data: np.ndarray) -> Tuple[np.ndarray, List[int]]:
    """rref over F_p on a numpy array, returned in the field's dtype.

    It works in the narrowest dtype of _WORK_DTYPES with (p-1)^2 <= 2^bits
    (int16 up to p = 181, int32 up to p = 46337), or on the object array's
    Python ints.  A pivot changes only the rows with a nonzero entry in its
    column (the hit rows), and only from its column on.  Reduction mod p is
    delayed: the pivot column is reduced before the search and the scaled
    pivot row after it, and each hit row takes c times the pivot row, c its
    reduced entry, with no reduction.  Such an update takes at most (p-1)^2
    from an entry, so from entries in [0, p) lim = 2^bits // (p-1)^2
    updates stay at or above -2^bits: the whole array is reduced after every
    lim updates, and while none is pending every entry is reduced.  Python
    ints cannot overflow and are reduced only at the end.  No row is
    swapped: the update runs over every hit row, the pivot row included,
    which then takes its scaled row and is marked used.  The rows not used
    are zero mod p in every column searched, so the rref is the pivot rows
    in pivot order, reduced, over zero rows."""
    p = field.p
    sq = (p - 1) ** 2
    if field.dtype is object:
        a, lim = data.copy(), 0
    else:
        dtype, bits = next((t, b) for t, b in _WORK_DTYPES if sq <= 2 ** b)
        a, lim = data.astype(dtype), 2 ** bits // sq
    nr, nc = a.shape
    used = [False] * nr
    prows: List[int] = []
    pivots: List[int] = []
    updates = 0  # since the array was last reduced
    for col in range(nc):
        if len(prows) == nr:
            break
        c = a[:, col] % p if updates else a[:, col]
        hit = c.nonzero()[0]
        for piv in hit.tolist():
            if not used[piv]:
                break
        else:
            continue
        x = c[piv]  # a pivot of 1 needs no scaling
        prow = a[piv, col:] % p if x == 1 else a[piv, col:] % p * field.inv(x) % p
        if len(hit) > 1:
            a[hit, col:] = a.take(hit, axis=0)[:, col:] - c.take(hit)[:, None] * prow
            updates += 1
            if updates == lim:
                a %= p
                updates = 0
        a[piv, col:] = prow
        used[piv] = True
        prows.append(piv)
        pivots.append(col)
    out = field.zeros(nr, nc)
    out[: len(prows)] = a.take(prows, axis=0) % p
    return out, pivots


def _rref_rational(a: List[List[int]], nc: int) -> Tuple[List[List[int]], List[int]]:
    """The Q elimination core: fraction-free on the rows a, Python lists of
    nc ints, in place (scaling a row does not change its row space).  The
    pivot of column col is the entry of least absolute value among the
    unused rows, the first found; the search stops at a 1 or -1.  A pivot x
    in row p turns each other row r hit at its column into x r - r[col] p,
    which is r - r[col] p for x = 1 and r + r[col] p (the same row negated)
    for x = -1, with no multiply of r; the new row is divided by its
    content (the gcd of its entries).  Every row is zero left of the first
    pivot, so updates start there.  Pivot row p ends with its pivot v and
    every other pivot column zero, so the rref row is p / v; the rows past
    the rank are zero.  The pivot columns are the matrix's rank profile,
    whichever row is taken, and the rref is unique: every caller reads a
    pivot row only as the ratios r[j] / r[pivot], so the choice of pivot
    changes no output, only the size of the integers on the way."""
    nr = len(a)
    pivots: List[int] = []
    row = 0
    for col in range(nc):
        if row == nr:
            break
        piv, x = None, 0
        for i in range(row, nr):
            y = a[i][col]
            if y and (piv is None or abs(y) < abs(x)):
                piv, x = i, y
                if y == 1 or y == -1:
                    break
        if piv is None:
            continue
        a[row], a[piv] = a[piv], a[row]
        lead = pivots[0] if pivots else col
        tail = a[row][lead:]
        for i, r in enumerate(a):
            y = r[col]
            if y and i != row:
                if x == 1:
                    new = [u - y * v for u, v in zip(r[lead:], tail)]
                elif x == -1:
                    new = [u + y * v for u, v in zip(r[lead:], tail)]
                else:
                    new = [x * u - y * v for u, v in zip(r[lead:], tail)]
                g = gcd(*new)  # 0 when a row below became zero
                if g > 1:
                    new = [u // g for u in new]
                a[i] = r[:lead] + new
        pivots.append(col)
        row += 1
    return a, pivots


def rank(m: Matrix) -> int:
    """The number of rref pivots, counted off the core's elimination: no
    rref matrix is made, and over Q no Fraction."""
    return len(_eliminate(m)[1]) if m.rows else 0


def _other_columns(nc: int, cols: Sequence[int]) -> List[int]:
    """The columns of range(nc) not in cols, in order."""
    is_other = [True] * nc
    for c in cols:
        is_other[c] = False
    return [c for c, f in enumerate(is_other) if f]


def kernel_basis(m: Matrix, with_free: bool = False):
    """Basis (as rows) of the right kernel {x : m x = 0}; with_free, the
    pair of it and its free columns, where the basis is the identity.  It is
    _eliminated_kernel on _eliminate's rows."""
    out = _eliminated_kernel(m.field, *_eliminate(m), m.cols)
    return out if with_free else out[0]


def _eliminated_kernel(
    field: Field, a, pivots: Sequence[int], nc: int
) -> Tuple[Matrix, Tuple[int, ...]]:
    """kernel_basis(m, with_free=True) for the first nc columns m of a
    matrix eliminated as _eliminate returns it or in rref, rows a (Python
    lists or an array) and pivots, every pivot among those columns; later
    columns are not read.  The one writer of a kernel basis: row f is the
    identity at free column f and -r[f] / r[c] at the pivot column c of
    each pivot row r.  Over Q that is a Fraction made only where r[f] is
    nonzero: _fraction(-r[f], r[c]) on integer rows, and -r[f] on Fractions
    in rref, whose pivots are 1, which needs no gcd.  Over F_p, where
    r[c] = 1 and r[f] may be any int of absolute value below p, it is
    -r[f] mod p, written on Python lists when the basis has at most
    SMALL_ENTRIES entries and with numpy otherwise."""
    if len(pivots) == nc:
        return Matrix.zeros(field, 0, nc), ()
    free = _other_columns(nc, pivots)
    prows = a[: len(pivots)]
    if field.kind == PRIME and len(free) * nc > SMALL_ENTRIES:
        out = field.zeros(len(free), nc)
        out[range(len(free)), free] = 1
        if pivots:
            block = np.asarray(prows, dtype=field.dtype)[:, free]
            out[:, list(pivots)] = field.normalize(-block.T)
        return Matrix(field, out, _trusted=True), tuple(free)
    if isinstance(prows, np.ndarray):
        prows = prows.tolist()
    p = field.p
    zero, one = (0, 1) if p else (Fraction(0), Fraction(1))
    flat: list = []
    for f in free:
        o = [zero] * nc
        o[f] = one
        for c, r in zip(pivots, prows):
            x = r[f]
            if x and p:
                o[c] = -x % p
            elif x:  # integer rows over any pivot, or Fractions in rref over 1
                o[c] = _fraction(-x, r[c]) if type(x) is int else -x
        flat += o
    out = np.array(flat, dtype=field.dtype).reshape(len(free), nc)
    return Matrix(field, out, _trusted=True), tuple(free)


# -- Kronecker systems ---------------------------------------------------


def kron_kernel(
    field: Field, offs: Dict[str, int], total: int, terms: list
) -> Tuple[Matrix, Tuple[int, ...]]:
    """kernel_basis(m, with_free=True) for the Kronecker system m with total
    columns and, for each term (v1, M1, v2, M2) of numpy arrays over the
    field, the rows I_p (x) M2 at the columns of v2 minus M1 (x) I_q at those
    of v1 (M1 of p rows, M2 of q rows; the blocks of v1 and v2 start at
    offs[v1] and offs[v2], and add up when v1 = v2).  The terms hold the
    matrices as they are: the writers put the minus sign in.  The system
    takes _eliminate's rule, by its rows x total entries: always over Q, and
    over F_p with at most SMALL_ENTRIES entries, _kron_lists writes its rows
    from the terms' integer rows (_integer_rows) and _eliminate_rows
    eliminates them, with no array before the basis; otherwise _kron_rows
    writes it and kernel_basis eliminates.  Over Q the integer rows are the
    terms times their common denominator d, so the system is written d
    times over: it has the same kernel.  The kernel basis is unique, so both
    routes give the same matrix and free columns bit for bit."""
    terms = [t for t in terms if t[1].shape[0] * t[3].shape[0]]  # a term with no rows adds none
    rows = sum(m1.shape[0] * m2.shape[0] for _, m1, _, m2 in terms)
    if field.kind == PRIME and rows * total > SMALL_ENTRIES:
        return kernel_basis(_kron_rows(field, offs, total, terms), with_free=True)
    ints = iter(_integer_rows([m for _, m1, _, m2 in terms for m in (m1, m2)])[0])
    terms = [(v1, next(ints), v2, next(ints)) for v1, _, v2, _ in terms]
    a, pivots = _eliminate_rows(field, _kron_lists(offs, total, terms), total)
    return _eliminated_kernel(field, a, pivots, total)


def _kron_lists(offs: Dict[str, int], total: int, terms: list) -> List[List[int]]:
    """_kron_rows' rows as Python lists of ints, from terms that write rows
    and whose matrices are lists of rows of ints: row (i, j) of a term (v1, M1, v2, M2)
    holds -M1[i][k] at column offs[v1] + k q + j and M2[j][l] at
    offs[v2] + i c2 + l, where M2 is q x c2; when v1 = v2 they add up.
    Nothing is reduced, for either field: over F_p, from entries in [0, p),
    every entry written lies in (-p, p), which _eliminate_rows takes as it
    is."""
    rows = []
    for v1, m1, v2, m2 in terms:
        q, c2 = len(m2), len(m2[0])
        o1, o2 = offs[v1], offs[v2]
        for i, xs in enumerate(m1):
            base = o2 + i * c2
            for j, ys in enumerate(m2):
                row = [0] * total
                for k, x in enumerate(xs):
                    if x:
                        row[o1 + k * q + j] = -x
                for l, y in enumerate(ys):
                    if y:
                        row[base + l] += y
                rows.append(row)
    return rows


def _kron_rows(field: Field, offs: Dict[str, int], total: int, terms: list) -> Matrix:
    """kron_kernel's system in one array: row (i, j) of a term
    (v1, M1, v2, M2), M1 of p rows and M2 of q rows, holds -M1[i, :] at
    columns (:, j) of v1 and M2[j, :] at columns (i, :) of v2, written by
    index into 4-D views of those columns; when v1 = v2 they add up.  An
    entry takes at most one of each, so it lies in (-p, p) until the one
    reduction at the end."""
    row_offs = list(accumulate((m1.shape[0] * m2.shape[0] for _, m1, _, m2 in terms), initial=0))
    out = field.zeros(row_offs[-1], total)
    for (v1, m1, v2, m2), r0, r1 in zip(terms, row_offs, row_offs[1:]):
        (p, c1), (q, c2) = m1.shape, m2.shape
        block = out[r0:r1]
        i, j = np.arange(p), np.arange(q)
        block[:, offs[v1] : offs[v1] + c1 * q].reshape(p, q, c1, q)[:, j, :, j] -= m1
        block[:, offs[v2] : offs[v2] + p * c2].reshape(p, q, p, c2)[i, :, i, :] += m2
    return Matrix(field, field.normalize(out), _trusted=True)


def coordinates(basis: Matrix, cols: Sequence[int], vectors: Matrix) -> Optional[Matrix]:
    """C with C @ basis = vectors, read off at columns cols where basis is the
    identity; None if the product shows some row is outside the span.  At
    cols the product is C itself, so only the other columns are multiplied
    and compared, by _equal (over Q on integer pairs)."""
    basis._check(vectors)
    if vectors.cols != basis.cols:
        return None
    c = vectors.data[:, list(cols)]
    rest = _other_columns(basis.cols, cols)
    if not _equal(basis.field, _dot(basis.field, c, basis.data[:, rest]), vectors.data[:, rest]):
        return None
    return Matrix(vectors.field, c, _trusted=True)


def solve_matrix(m: Matrix, b: Matrix) -> Optional[Matrix]:
    """One solution X of m @ X = b, or None when inconsistent."""
    solved = _solve(m, b)
    return None if solved is None else solved[0]


def solve_with_kernel(m: Matrix, b: Matrix) -> Optional[Tuple[Matrix, Matrix]]:
    """(X, K): solve_matrix(m, b) and kernel_basis(m), read off one
    elimination of [m | b]; None when inconsistent, which that elimination
    shows before either is written."""
    solved = _solve(m, b)
    if solved is None:
        return None
    x, a, pivots = solved
    return x, _eliminated_kernel(m.field, a, pivots, m.cols)[0]


def _solve(m: Matrix, b: Matrix):
    """(X, a, pivots): _eliminate's rows and pivots of [m | b], and the
    solution X of m @ X = b that is zero at the free columns, read off the
    pivot rows (over Q each divided by its pivot); None when a pivot lies
    in b's columns."""
    m._check(b)
    if m.rows != b.rows:
        raise ShapeMismatch(f"solve: {m.shape} vs rhs {b.shape}")
    field, n = m.field, m.cols
    a, pivots = _eliminate(Matrix(field, np.concatenate((m.data, b.data), axis=1), _trusted=True))
    if pivots and pivots[-1] >= n:
        return None
    out = field.zeros(n, b.cols)
    if field.kind == RATIONAL:
        zero = Fraction(0)
        for r, c in zip(a, pivots):
            v = r[c]
            out[c, :] = [_fraction(u, v) if u else zero for u in r[n:]]
    else:
        for r, c in zip(a, pivots):
            out[c, :] = r[n:]
    return Matrix(field, out, _trusted=True), a, pivots


# -- subspaces -----------------------------------------------------------


class QuotientSpace:
    """A surjection k^n -> k^q whose kernel is a chosen subspace.

    projection has shape (q, n) and is the identity on the q columns free.
    Its section, the (n, q) matrix of unit vectors at those columns, is a
    right inverse, and m @ section is the columns of m at free
    (after_section).
    """

    __slots__ = ("projection", "free")

    def __init__(self, projection: Matrix, free: Sequence[int]):
        self.projection = projection
        self.free = list(free)

    @property
    def dim(self) -> int:
        return self.projection.rows

    @property
    def ambient_dim(self) -> int:
        return self.projection.cols

    def after_section(self, m: Matrix) -> Matrix:
        """m @ section, selected instead of multiplied."""
        return Matrix(m.field, m.data[:, self.free], _trusted=True)


class Subspace:
    """Subspace of k^n given by a row-basis matrix held in rref, with the
    pivot columns where that basis is the identity."""

    __slots__ = ("field", "ambient_dim", "basis", "pivots")

    def __init__(self, field: Field, ambient_dim: int, rows: Optional[Matrix] = None):
        self.field = field
        self.ambient_dim = ambient_dim
        if rows is None:
            rows = Matrix.zeros(field, 0, ambient_dim)
        if rows.cols != ambient_dim:
            raise ShapeMismatch("basis rows do not match ambient dimension")
        r, nrank, self.pivots = rref(rows) if rows.rows else (rows, 0, ())
        self.basis = Matrix(field, r.data[:nrank].copy(), _trusted=True)

    @property
    def dim(self) -> int:
        return self.basis.rows

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Subspace)
            and self.field == other.field
            and self.ambient_dim == other.ambient_dim
            and self.basis == other.basis
        )

    def __repr__(self) -> str:
        return f"Subspace(dim {self.dim} of k^{self.ambient_dim})"

    def quotient(self) -> QuotientSpace:
        """Canonical surjection of the ambient space with this as kernel."""
        basis, free = _eliminated_kernel(self.field, self.basis.data, self.pivots, self.ambient_dim)
        return QuotientSpace(basis, free)
