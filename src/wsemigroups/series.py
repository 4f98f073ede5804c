"""Sparse Laurent polynomials and factored rational generating functions.

All arithmetic is exact over the integers.  A rational generating
function is kept in factored form: a Laurent-polynomial numerator over a
multiset of denominator factors (1 - t^v).  Expansion is one-sided: each
factor 1/(1 - t^v) always expands as sum_{k>=0} t^{k*v}, so every factor
vector v must be componentwise nonnegative and nonzero.  Substituting
t -> 1/t therefore never flips an expansion direction; it rewrites the
factors via (1 - t^-v) = -t^-v (1 - t^v) and stays in the same fraction
field representation.
"""

from __future__ import annotations

import itertools
import operator

from .errors import ArityMismatch, strict_index


def _check_exponent(e, arity=None):
    """e as a tuple of ints (TypeError for any other entry), checked
    for length."""
    vec = tuple(map(strict_index, e))
    if not vec:
        raise ArityMismatch("exponent vectors must have at least one entry")
    if arity is not None and len(vec) != arity:
        raise ArityMismatch(f"expected {arity} variables, got {len(vec)}")
    return vec


class LaurentPoly:
    """A sparse Laurent polynomial with integer coefficients.

    Terms are stored as a mapping from exponent tuples to nonzero
    coefficients.  Exponents may be negative.  Instances are treated as
    immutable; all arithmetic returns new objects.

    >>> p = LaurentPoly({(0,): 1, (1,): -1})
    >>> q = LaurentPoly({(0,): 1, (1,): 1})
    >>> (p * q).terms()
    [((0,), 1), ((2,), -1)]
    """

    __slots__ = ("_terms", "_arity")

    def __init__(self, terms=None, arity=None):
        data = {}
        if terms:
            items = terms.items() if hasattr(terms, "items") else terms
            for e, c in items:
                e = _check_exponent(e, arity)
                if arity is None:
                    arity = len(e)
                c = strict_index(c)
                if c == 0:
                    continue
                data[e] = data.get(e, 0) + c
                if data[e] == 0:
                    del data[e]
        if arity is None:
            raise ArityMismatch("arity required for a polynomial with no terms")
        self._terms = data
        self._arity = arity

    @classmethod
    def _trusted(cls, data, arity):
        """Wrap a dict of checked exponent tuples to nonzero coefficients,
        skipping the validation of the public constructor."""
        p = object.__new__(cls)
        p._terms = data
        p._arity = arity
        return p

    @classmethod
    def one(cls, arity):
        return cls({(0,) * arity: 1})

    @classmethod
    def monomial(cls, e, c=1):
        return cls({tuple(e): c})

    @property
    def arity(self):
        return self._arity

    def coeff(self, e):
        return self._terms.get(_check_exponent(e, self._arity), 0)

    def terms(self):
        """Term list in lexicographic exponent order."""
        return sorted(self._terms.items())

    def support(self):
        return sorted(self._terms)

    def __bool__(self):
        return bool(self._terms)

    def __eq__(self, other):
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        return self._arity == other._arity and self._terms == other._terms

    def _check_same_arity(self, other):
        if self._arity != other._arity:
            raise ArityMismatch(
                f"mixed arities {self._arity} and {other._arity}")

    def __add__(self, other):
        if isinstance(other, int):
            other = LaurentPoly({(0,) * self._arity: other}, arity=self._arity)
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        self._check_same_arity(other)
        data = dict(self._terms)
        for e, c in other._terms.items():
            s = data.get(e, 0) + c
            if s:
                data[e] = s
            else:
                data.pop(e, None)
        return LaurentPoly._trusted(data, self._arity)

    def __neg__(self):
        return LaurentPoly._trusted(
            {e: -c for e, c in self._terms.items()}, self._arity)

    def __sub__(self, other):
        if isinstance(other, int):
            other = LaurentPoly({(0,) * self._arity: other}, arity=self._arity)
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, int):
            return LaurentPoly._trusted(
                {e: c * other for e, c in self._terms.items()} if other
                else {}, self._arity)
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        self._check_same_arity(other)
        data = {}
        for e1, c1 in self._terms.items():
            for e2, c2 in other._terms.items():
                e = tuple(map(operator.add, e1, e2))
                s = data.get(e, 0) + c1 * c2
                if s:
                    data[e] = s
                else:
                    del data[e]
        return LaurentPoly._trusted(data, self._arity)

    __rmul__ = __mul__

    def shift(self, e):
        """Multiply by the monomial t^e."""
        e = _check_exponent(e, self._arity)
        return LaurentPoly._trusted(
            {tuple(map(operator.add, k, e)): c
             for k, c in self._terms.items()}, self._arity)

    def reverse(self):
        """Substitute t -> 1/t, negating every exponent."""
        return LaurentPoly._trusted(
            {tuple(-x for x in e): c for e, c in self._terms.items()},
            self._arity)

    def min_exponents(self):
        """Componentwise minimum of the support (None when zero)."""
        if not self._terms:
            return None
        return tuple(min(e[i] for e in self._terms)
                     for i in range(self._arity))

    def __repr__(self):
        return f"LaurentPoly({dict(self.terms())}, arity={self._arity})"


class Window:
    """A closed per-variable box of lattice points.

    Window((0, 4)) is the interval [0, 4]; Window((-6, 6), (-6, 6)) is a
    square.  Iteration is lexicographic, so output orders derived from a
    window are canonical.
    """

    __slots__ = ("_bounds",)

    def __init__(self, *bounds):
        checked = []
        for b in bounds:
            if len(b) != 2:
                raise ValueError(f"window bound {b!r} is not a (lo, hi) pair")
            lo, hi = strict_index(b[0]), strict_index(b[1])
            if lo > hi:
                raise ValueError(f"empty window bound ({lo}, {hi})")
            checked.append((lo, hi))
        if not checked:
            raise ArityMismatch("window needs at least one bound pair")
        self._bounds = tuple(checked)

    @property
    def arity(self):
        return len(self._bounds)

    @property
    def bounds(self):
        return self._bounds

    def points(self):
        ranges = [range(lo, hi + 1) for lo, hi in self._bounds]
        return itertools.product(*ranges)

    def __contains__(self, point):
        return len(point) == len(self._bounds) and all(
            lo <= x <= hi for x, (lo, hi) in zip(point, self._bounds))

    def __repr__(self):
        return f"Window({', '.join(map(str, self._bounds))})"


def _factor_poly(v, arity):
    """The Laurent polynomial 1 - t^v."""
    return LaurentPoly({(0,) * arity: 1, v: -1}, arity=arity)


class RationalGF:
    """A rational generating function N(t) / prod_j (1 - t^{v_j}).

    The denominator is a multiset of exponent vectors, each nonnegative
    and nonzero, kept factored (never expanded into a single
    polynomial).  No cancellation between numerator and denominator is
    attempted; equality is decided by cross-multiplication.
    """

    __slots__ = ("_num", "_den")

    def __init__(self, num, den=()):
        if not isinstance(num, LaurentPoly):
            raise TypeError("numerator must be a LaurentPoly")
        factors = []
        for v in den:
            v = _check_exponent(v, num.arity)
            if any(x < 0 for x in v):
                raise ValueError(f"denominator vector {v} has a negative entry")
            if all(x == 0 for x in v):
                raise ValueError("denominator vector must be nonzero")
            factors.append(v)
        self._num = num
        self._den = tuple(sorted(factors))

    @property
    def num(self):
        return self._num

    @property
    def den(self):
        return self._den

    @property
    def arity(self):
        return self._num.arity

    def den_poly(self):
        """The expanded denominator prod (1 - t^v) as a LaurentPoly."""
        p = LaurentPoly.one(self.arity)
        for v in self._den:
            p = p * _factor_poly(v, self.arity)
        return p

    def __add__(self, other):
        if isinstance(other, (int, LaurentPoly)):
            other = RationalGF(
                other if isinstance(other, LaurentPoly)
                else LaurentPoly({(0,) * self.arity: other}, arity=self.arity))
        if not isinstance(other, RationalGF):
            return NotImplemented
        if self.arity != other.arity:
            raise ArityMismatch("mixed arities in rational function addition")
        num = self._num * other.den_poly() + other._num * self.den_poly()
        return RationalGF(num, self._den + other._den)

    def __neg__(self):
        return RationalGF(-self._num, self._den)

    def __mul__(self, other):
        if isinstance(other, int):
            return RationalGF(self._num * other, self._den)
        if isinstance(other, LaurentPoly):
            return RationalGF(self._num * other, self._den)
        if not isinstance(other, RationalGF):
            return NotImplemented
        if self.arity != other.arity:
            raise ArityMismatch("mixed arities in rational function product")
        return RationalGF(self._num * other._num, self._den + other._den)

    def reciprocal(self):
        """Substitute t -> 1/t and renormalise the factors.

        Each factor rewrites as (1 - t^-v) = -t^-v (1 - t^v), so the
        result keeps the same denominator multiset and absorbs the
        monomial and the sign into the numerator:

            N(1/t) / prod (1 - t^-v)
              = (-1)^d * t^{sum v} * N(1/t) / prod (1 - t^v).
        """
        total = [0] * self.arity
        for v in self._den:
            for i, x in enumerate(v):
                total[i] += x
        num = self._num.reverse().shift(tuple(total))
        if len(self._den) % 2:
            num = -num
        return RationalGF(num, self._den)

    def equals(self, other):
        """Exact equality, no cancellation: over the same denominator the
        numerators are compared, else cross-multiplied."""
        if not isinstance(other, RationalGF):
            raise TypeError("can only compare with another RationalGF")
        if self.arity != other.arity:
            raise ArityMismatch("mixed arities in rational function equality")
        if self._den == other._den:
            return self._num == other._num  # N1 / D = N2 / D iff N1 = N2
        return self._num * other.den_poly() == other._num * self.den_poly()

    def expand(self, window):
        """Coefficients of the one-sided expansion on a window.

        The expansion is computed as a linear-recurrence filter on a
        dense grid.  With lo = min_exponents() of the numerator and hi
        the window's upper corner, the grid is the box [lo, hi], stored
        flat in row-major order.  The numerator's coefficients are
        placed on it (terms beyond hi cannot reach the window and are
        dropped).  Multiplying by 1/(1 - t^v) = sum_{k>=0} t^{k*v} is
        then the in-place recurrence F[u] += F[u - v], run over the grid
        in lexicographic order, one denominator factor at a time; every
        v is nonnegative and nonzero, so u - v is always visited first.
        In one variable with v = (1,) this is a prefix sum.  Window
        points below lo lie outside the support and read 0; a zero
        numerator leaves a one-cell grid at the top corner, empty.

        Cost: O(|box| * |den|) additions plus O(|window|) reads, where
        |box| is the number of grid cells; the numerator is touched
        once.  A factor (0, ..., 0, v) takes min(v, n / v) slice steps
        per row of n cells: v strided prefix sums, or n / v block
        additions when those are fewer; any other factor takes one.
        Returns a flat list of the coefficients in the order of
        window.points(): each row along the last variable is a slice of
        the grid, after as many zeros as the row has points below lo.

        With one variable and one factor (v,), F[n] = F[n - v] beyond the
        numerator's degree, so a window starting more than v past it is
        first moved down by a multiple of v, next to the degree; the box
        then spans the numerator and the window, not [lo, window top].
        """
        if not isinstance(window, Window):
            raise TypeError("expand needs a Window")
        if window.arity != self.arity:
            raise ArityMismatch("window arity does not match the series")
        if len(self._den) == 1 and self.arity == 1 and self._num:
            ((a, hi),), ((v,),) = window.bounds, self._den
            shift = (a - max(e for e, in self._num._terms) - 1) // v * v
            if shift > 0:
                window = Window((a - shift, hi - shift))
        top = [hi for _, hi in window.bounds]
        lo = self._num.min_exponents() or top
        sizes = [max(0, hi - x) + 1 for hi, x in zip(top, lo)]
        strides = [1] * self.arity
        for i in range(self.arity - 1, 0, -1):
            strides[i - 1] = strides[i] * sizes[i]
        grid = [0] * (strides[0] * sizes[0])
        for e, c in self._num._terms.items():
            if all(x <= hi for x, hi in zip(e, top)):
                grid[sum((x - y) * s for x, y, s in zip(e, lo, strides))] += c
        n = sizes[-1]
        for v in self._den:
            # rows run along the last variable; v moves a row to a
            # lexicographically later row, or along its own row
            *outer, step = v
            jump = sum(a * s for a, s in zip(outer, strides))
            for row in itertools.product(
                    *[range(a, m) for a, m in zip(outer, sizes)]):
                base = sum(r * s for r, s in zip(row, strides))
                if jump:
                    src = base - jump
                    grid[base + step:base + n] = map(
                        operator.add, grid[base + step:base + n],
                        grid[src:src + n - step])
                elif step * step > n:
                    # fewer blocks of step cells than residues: add each
                    # block to the next
                    for r in range(base + step, base + n, step):
                        end = min(r + step, base + n)
                        grid[r:end] = map(operator.add, grid[r:end],
                                          grid[r - step:end - step])
                else:
                    for r in range(base, base + step):
                        grid[r:base + n:step] = itertools.accumulate(
                            grid[r:base + n:step])
        *outer, (a, hi) = window.bounds
        pad = [0] * min(max(0, lo[-1] - a), hi - a + 1)
        first, end = max(0, a - lo[-1]), max(0, hi - lo[-1] + 1)
        out = []
        for row in itertools.product(*[range(x, y + 1) for x, y in outer]):
            if any(map(operator.lt, row, lo)):
                out += [0] * (hi - a + 1)
                continue
            i = sum(map(operator.mul, strides, map(operator.sub, row, lo)))
            out += pad
            out += grid[i + first:i + end]
        return out

    def to_json(self):
        """Canonical JSON form, numerator terms in lexicographic order."""
        return {
            "num": [{"e": list(e), "c": c} for e, c in self._num.terms()],
            "den": [list(v) for v in self._den],
        }

    def __eq__(self, other):
        if not isinstance(other, RationalGF):
            return NotImplemented
        return self._num == other._num and self._den == other._den

    def __repr__(self):
        return f"RationalGF({self._num!r}, {self._den})"
