"""Sparse exact multivariate polynomials and graded monomial bases.

A polynomial stores a dict {exponents: n} of its nonzero terms, n an
entry in the integer form of its field, and one positive denominator den,
in canonical form (den and every part have gcd 1), as an ExactMatrix
stores its columns over one den.  That form and its arithmetic are defined once,
by the field's table in scalars.INTEGERS (_kernels.Q and _kernels.QI), which
every operation here reads.  Arithmetic runs on the ints and builds no scalar,
and so does ``coordinates``, which places them in a basis for linalg.solve;
``terms`` builds the scalars each time it is read, and ``decimal_terms``
builds the decimal strings of the reports (the printer's and
poly_to_json's) once, straight from the ints.  Terms keep their
insertion order (a term that cancels is deleted, and appended again if it
comes back), and float evaluation sums in that order, each polynomial over
its own table of powers per point, with no cache (float_sums).  The
monomial order everywhere is graded lexicographic with the first variable
dominant: lower total degree first, and within a degree x1^n precedes
x1^(n-1)*x2 and so on.  The zero polynomial stores no terms and has degree
NEG_INF.
"""

import math
from fractions import Fraction
from functools import lru_cache
from itertools import accumulate
from math import gcd, lcm
from operator import add
from types import MappingProxyType

from .errors import BasisOverflowError, FloatEvaluationError, SliceTooLargeError
from .scalars import (
    FIELD_Q,
    FIELD_QI,
    INTEGERS,
    GaussianRational,
    as_scalar,
    decimal_text,
    from_integer,
    integer_form,
    scalar_from_json,
    validate_field,
)

NEG_INF = float("-inf")


def grlex_key(exponents):
    """Sort key realizing the graded lexicographic order on exponent tuples."""
    return (sum(exponents), tuple(-e for e in exponents))


def _decimal(n, den, den_texts):
    # the decimal strings of n / den in lowest terms; den_texts caches
    # {g: str(den // g)}, since many terms share a reduced denominator
    g = gcd(n, den)
    den_text = den_texts.get(g)
    if den_text is None:
        den_text = den_texts[g] = decimal_text(den // g)
    return decimal_text(n // g), den_text


def _split(value, field):
    # (n, den) with value == n / den, read off the scalar's parts
    if isinstance(value, (int, Fraction)):
        n, den = value.numerator, value.denominator
        return ((n, 0) if field == FIELD_QI else n), den
    if field == FIELD_QI and isinstance(value, GaussianRational):
        (n,), den = integer_form([value], field)
        return n, den
    raise ValueError(f"field {field} cannot hold {value!r}")


def _gather(pairs, table, out=None):
    # {m: sum of the values of m} in the term order: a sum that cancels is
    # deleted, and appended again if it comes back
    out = {} if out is None else out
    plus, zero = table.add, table.zero
    for m, value in pairs:
        if m in out:
            value = plus(out[m], value)
        if value != zero:
            out[m] = value
        elif m in out:
            del out[m]
    return out


def lowest_terms(ints, den, field):
    """The dict {key: n} and positive den divided by the gcd of den and
    every part: the canonical form of the scalars n / den."""
    table = INTEGERS[field]
    g = gcd(den, *table.flat(ints.values()))
    if g == 1:
        return ints, den
    scale = table.scale
    return {m: scale(n, 1, g) for m, n in ints.items()}, den // g


class Poly:
    """Immutable sparse polynomial with exact coefficients.

    The coefficients are ints over one common denominator, in canonical
    form and in term order (see the module docstring).  Construction drops
    zero coefficients and merges duplicate exponent tuples.
    """

    __slots__ = ("arity", "field", "_ints", "_den", "_decimals")

    def __init__(self, arity, field=FIELD_Q, terms=None):
        validate_field(field)
        if not isinstance(arity, int) or arity < 1:
            raise ValueError(f"arity must be a positive integer, got {arity!r}")
        split = []
        if terms:
            items = terms.items() if hasattr(terms, "items") else terms
            for exponents, coeff in items:
                exponents = tuple(exponents)
                if len(exponents) != arity:
                    raise ValueError(
                        f"exponent tuple {exponents} does not match arity {arity}"
                    )
                if any(isinstance(e, bool) or not isinstance(e, int) or e < 0
                       for e in exponents):
                    raise ValueError(f"exponents must be non-negative ints: {exponents}")
                split.append((exponents, *_split(coeff, field)))
        den = lcm(*(d for _, _, d in split))
        table = INTEGERS[field]
        ints = _gather(((m, table.times(n, den // d)) for m, n, d in split), table)
        object.__setattr__(self, "arity", arity)
        object.__setattr__(self, "field", field)
        self._store(*lowest_terms(ints, den, field))

    def _store(self, ints, den):
        object.__setattr__(self, "_ints", ints)
        object.__setattr__(self, "_den", den)

    def __setattr__(self, name, value):
        raise AttributeError("Poly is immutable")

    @classmethod
    def zero(cls, arity, field=FIELD_Q):
        return cls(arity, field)

    @classmethod
    def constant(cls, arity, value, field=FIELD_Q):
        return cls(arity, field, {(0,) * arity: value})

    @classmethod
    def variable(cls, arity, index, field=FIELD_Q):
        if not 0 <= index < arity:
            raise IndexError(f"variable index {index} out of range for arity {arity}")
        exponents = [0] * arity
        exponents[index] = 1
        return cls(arity, field, {tuple(exponents): 1})

    @classmethod
    def monomial(cls, arity, exponents, coeff=1, field=FIELD_Q):
        return cls(arity, field, {tuple(exponents): coeff})

    @property
    def terms(self):
        """{exponents: field scalar}, in term order; built when read."""
        den = self._den
        return MappingProxyType({m: from_integer(n, den) for m, n in self._ints.items()})

    @property
    def decimal_terms(self):
        """((exponents, parts), ...) in ascending graded lex order, parts the
        (numerator, denominator) decimal strings of the coefficient in lowest
        terms: one pair over Q, the real and the imaginary part over Qi.
        Built once, from the ints, with one gcd per part and no scalar."""
        decimals = getattr(self, "_decimals", None)
        if decimals is None:
            den, den_texts = self._den, {}
            # grlex: the exponents in descending order, then the degrees in
            # ascending order by a stable sort
            items = sorted(self._ints.items(), reverse=True)
            items.sort(key=lambda item: sum(item[0]))
            parts = INTEGERS[self.field].parts
            decimals = tuple((m, tuple([_decimal(x, den, den_texts) for x in parts(n)]))
                             for m, n in items)
            object.__setattr__(self, "_decimals", decimals)
        return decimals

    @property
    def integer_form(self):
        """(ints, den): the stored {exponents: n} and the common denominator."""
        return MappingProxyType(self._ints), self._den

    def coefficient(self, exponents):
        """Coefficient of the given monomial (field zero if absent)."""
        n = self._ints.get(tuple(exponents))
        return as_scalar(0, self.field) if n is None else from_integer(n, self._den)

    def __bool__(self):
        return bool(self._ints)

    def __eq__(self, other):
        if not isinstance(other, Poly):
            return NotImplemented
        return (
            self.arity == other.arity
            and self.field == other.field
            and self._den == other._den
            and self._ints == other._ints
        )

    def _check_compatible(self, other):
        if self.arity != other.arity:
            raise ValueError(f"arity mismatch: {self.arity} vs {other.arity}")
        if self.field != other.field:
            raise ValueError(f"field mismatch: {self.field} vs {other.field}")

    def __add__(self, other):
        if not isinstance(other, Poly):
            return NotImplemented
        self._check_compatible(other)
        table = INTEGERS[self.field]
        times = table.times
        den = lcm(self._den, other._den)
        a, b = den // self._den, den // other._den
        out = {m: times(n, a) for m, n in self._ints.items()}
        out = _gather(((m, times(n, b)) for m, n in other._ints.items()), table, out)
        return self._wrap(out, den)

    def __sub__(self, other):
        if not isinstance(other, Poly):
            return NotImplemented
        return self + (-other)

    def __neg__(self):
        times = INTEGERS[self.field].times
        return self._wrap({m: times(n, -1) for m, n in self._ints.items()}, self._den)

    def __mul__(self, other):
        if not isinstance(other, Poly):
            return self.scale(other)
        self._check_compatible(other)
        table = INTEGERS[self.field]
        product, right = table.mul, other._ints.items()
        out = _gather(((tuple(map(add, ma, mb)), product(ca, cb))
                       for ma, ca in self._ints.items() for mb, cb in right), table)
        return self._wrap(out, self._den * other._den)

    def __pow__(self, exponent):
        if not isinstance(exponent, int) or exponent < 0:
            raise ValueError("polynomial powers take non-negative int exponents")
        result = self._wrap({(0,) * self.arity: INTEGERS[self.field].one}, 1)
        base = self
        n = exponent
        while n:
            if n & 1:
                result = result * base
            n >>= 1
            if n:  # square only while exponent bits remain
                base = base * base
        return result

    def scale(self, value):
        """Multiply every coefficient by a field scalar."""
        c, den = _split(value, self.field)
        table = INTEGERS[self.field]
        if c == table.zero:
            return Poly.zero(self.arity, self.field)
        product = table.mul
        return self._wrap({m: product(n, c) for m, n in self._ints.items()}, self._den * den)

    def _wrap(self, ints, den):
        # a polynomial of this arity and field holding ints / den
        return canonical_poly(self.arity, self.field, *lowest_terms(ints, den, self.field))

    @property
    def degree(self):
        """Total degree, or NEG_INF for the zero polynomial."""
        if not self._ints:
            return NEG_INF
        return max(sum(m) for m in self._ints)

    def laplacian(self):
        """Sum of second partials along every axis, computed exactly."""
        table = INTEGERS[self.field]
        times = table.times
        out = _gather(((m[:axis] + (e - 2,) + m[axis + 1 :], times(n, e * (e - 1)))
                       for m, n in self._ints.items()
                       for axis, e in enumerate(m) if e >= 2), table)
        return self._wrap(out, self._den)

    def homogeneous_component(self, n):
        """Terms of total degree exactly n."""
        if not isinstance(n, int) or n < 0:
            raise ValueError(f"component degree must be a non-negative int, got {n!r}")
        return self._wrap({m: c for m, c in self._ints.items() if sum(m) == n}, self._den)

    def is_homogeneous(self):
        degrees = {sum(m) for m in self._ints}
        return len(degrees) <= 1

    def evaluate(self, point):
        """Numeric evaluation at a float point; complex over field Qi."""
        return float_sums(self, [point])[0][0]

    def sorted_terms(self):
        """Terms in ascending graded lex order (deterministic)."""
        return sorted(self.terms.items(), key=lambda item: grlex_key(item[0]))

    def __repr__(self):
        body = ", ".join(f"{m}: {c}" for m, c in self.sorted_terms())
        return f"Poly(arity={self.arity}, field={self.field!r}, terms={{{body}}})"


def canonical_poly(arity, field, ints, den):
    """The polynomial of ints / den, taken as they are: the dict {exponents:
    n} and the positive int den must already be in canonical form (gcd 1),
    with no zero n, as a sum over the lcm of parts in canonical form is."""
    p = Poly.__new__(Poly)
    object.__setattr__(p, "arity", arity)
    object.__setattr__(p, "field", field)
    p._store(ints, den)
    return p


_OVERFLOW = ("floating-point evaluation overflowed: a coefficient or a power "
             "of a coordinate is beyond the float range (about 1.8e308)")


def _float_plan(p):
    """(plan, tops): per term, in term order, the float coefficient n / den
    (complex over Qi) and the indices of its powers v**e, e > 0, in axis
    order, in _power_table(point, tops); tops is the highest exponent per
    axis."""
    den, to_float = p._den, INTEGERS[p.field].to_float
    tops = [max(column) for column in zip(*p._ints)] or [0] * p.arity
    offsets = list(accumulate(tops, lambda i, top: i + top + 1, initial=0))
    try:
        plan = [(to_float(n, den), tuple(offset + e for offset, e in zip(offsets, m) if e))
                for m, n in p._ints.items()]
    except OverflowError:
        raise FloatEvaluationError(_OVERFLOW) from None
    return plan, tops


def _power_table(point, tops):
    """[v**e for each axis, for e from 0 to its top] at a point, flat."""
    if len(point) != len(tops):
        raise ValueError(f"point has {len(point)} coordinates, arity is {len(tops)}")
    try:
        return [v**e for v, top in zip(map(float, point), tops) for e in range(top + 1)]
    except OverflowError:
        raise FloatEvaluationError(_OVERFLOW) from None


def float_sums(p, points):
    """[(value, sum of |terms|)] of p at each point: the value bit for bit
    p.evaluate(point), and both summed in one pass over the terms, from p's
    own power table per point, with no per-term list."""
    plan, tops = _float_plan(p)
    zero = 0j if p.field != FIELD_Q else 0.0
    out = []
    for point in points:
        table = _power_table(point, tops)
        value, magnitude = zero, 0.0
        for term, indices in plan:
            for i in indices:
                term *= table[i]
            value += term
            magnitude += abs(term)
        out.append((value, magnitude))
    return out


def evaluate_columns(p, points):
    """[p.evaluate(point) for point in points] at float points, bit for bit,
    with a list per power and per term: for few terms, as in quadrics."""
    if not points:
        return []
    plan, tops = _float_plan(p)
    try:
        table = [[v**e for v in column] for column, top in zip(zip(*points), tops)
                 for e in range(top + 1)]
    except OverflowError:
        raise FloatEvaluationError(_OVERFLOW) from None
    values = [0j if p.field != FIELD_Q else 0.0] * len(points)
    for c, indices in plan:
        column = [c] * len(points)
        for i in indices:
            column = [t * v for t, v in zip(column, table[i])]
        values = [s + t for s, t in zip(values, column)]
    return values


def apply_operator(operator_poly, target):
    """Apply the constant-coefficient differential operator encoded by a
    polynomial: each monomial x^a acts as the mixed partial of multi-order a.
    """
    if not isinstance(operator_poly, Poly) or not isinstance(target, Poly):
        raise TypeError("apply_operator expects two Poly arguments")
    operator_poly._check_compatible(target)
    table = INTEGERS[target.field]
    times, product = table.times, table.mul
    pairs = []
    for beta, c_op in operator_poly._ints.items():
        for alpha, c in target._ints.items():
            if any(a < b for a, b in zip(alpha, beta)):
                continue
            factor = 1
            for a, b in zip(alpha, beta):
                for k in range(b):
                    factor *= a - k
            m = tuple(a - b for a, b in zip(alpha, beta))
            pairs.append((m, times(product(c, c_op), factor)))
    return target._wrap(_gather(pairs, table), target._den * operator_poly._den)


def squared_norm(arity, field=FIELD_Q):
    """The polynomial x1^2 + ... + xd^2."""
    terms = {}
    for i in range(arity):
        m = [0] * arity
        m[i] = 2
        terms[tuple(m)] = 1
    return Poly(arity, field, terms)


def _exponents_of_degree(arity, degree):
    # grlex order within a degree block: the first variable's power descends
    if arity == 1:
        yield (degree,)
        return
    for e in range(degree, -1, -1):
        for rest in _exponents_of_degree(arity - 1, degree - e):
            yield (e,) + rest


HOMOGENEOUS = "homogeneous"
FILTERED = "filtered"

# A monomial's code packs its exponent vector into one int, EXPONENT_BITS
# bits per axis, the first axis highest (Monagan & Pearce 2007, CASC, packed
# exponent vectors).  A code is linear in its exponents, so the code of
# a + s is code(a) + code(s), and a shift s may have negative axes; the sum
# is the code of a + s whenever every axis of a + s lies in [0, 2^16).  A
# basis has degree below CODE_DEGREE_LIMIT = 2^15, and so has every psi that
# fischer assembles a slice of, so an image axis a_i + b_i - g_i of the
# operator's stencil stays below 2^16.  The slices a request admits
# (check_slice_dimension) have degree below MAX_SLICE_DIMENSION, and so has
# psi, plus 2: far below either limit.
EXPONENT_BITS = 16
CODE_DEGREE_LIMIT = 1 << (EXPONENT_BITS - 1)


def monomial_code(exponents):
    """The code of an exponent vector (axes may be negative in a shift)."""
    code = 0
    for e in exponents:
        code = (code << EXPONENT_BITS) + e
    return code


def code_exponents(code, arity):
    """The exponent tuple of a code whose axes all lie in [0, 2^EXPONENT_BITS)."""
    mask = (1 << EXPONENT_BITS) - 1
    return tuple(code >> (EXPONENT_BITS * i) & mask for i in range(arity - 1, -1, -1))


class Basis:
    """Ordered monomial basis of a graded slice.

    kind "homogeneous" lists the monomials of total degree exactly n,
    kind "filtered" those of total degree at most n, both in ascending
    graded lex order.  ``codes`` holds their monomial codes, in that order,
    and one map keyed by code gives each monomial's position; ``index``
    encodes its argument.  The degree is below CODE_DEGREE_LIMIT, so that
    no two monomials share a code.
    """

    __slots__ = ("arity", "kind", "degree", "monomials", "codes", "_positions")

    def __init__(self, arity, kind, degree):
        if not isinstance(arity, int) or arity < 1:
            raise ValueError(f"arity must be a positive integer, got {arity!r}")
        if not isinstance(degree, int) or degree < 0:
            raise ValueError(f"slice degree must be a non-negative int, got {degree!r}")
        if degree >= CODE_DEGREE_LIMIT:
            raise ValueError(f"slice degree must be below {CODE_DEGREE_LIMIT}, got {degree}")
        if kind not in (HOMOGENEOUS, FILTERED):
            raise ValueError(f"unknown slice kind {kind!r}")
        if kind == HOMOGENEOUS:
            monomials = tuple(_exponents_of_degree(arity, degree))
        else:
            monomials = tuple(
                m for n in range(degree + 1) for m in _exponents_of_degree(arity, n)
            )
        codes = tuple(map(monomial_code, monomials))
        self._set(arity, kind, degree, monomials, codes, {m: i for i, m in enumerate(codes)})

    def _set(self, *values):
        for name, value in zip(self.__slots__, values):
            object.__setattr__(self, name, value)

    def __setattr__(self, name, value):
        raise AttributeError("Basis is immutable")

    def __len__(self):
        return len(self.monomials)

    def __iter__(self):
        return iter(self.monomials)

    def index(self, exponents):
        # KeyError when the monomial is not here, also when its code is a
        # basis monomial's (an axis negative or past the field width)
        exponents = tuple(exponents)
        i = self._positions[monomial_code(exponents)]
        if self.monomials[i] != exponents:
            raise KeyError(exponents)
        return i

    def extended(self):
        """The filtered basis one degree up: copies of this one's monomials,
        codes and position map, with the cached homogeneous basis of the
        next degree appended to each, so that no monomial or code is built
        again.  A homogeneous basis is refused."""
        if self.kind != FILTERED:
            raise ValueError("only a filtered basis extends")
        part, size = homogeneous_basis(self.arity, self.degree + 1), len(self)
        positions = self._positions.copy()
        positions.update(zip(part.codes, range(size, size + len(part))))
        basis = Basis.__new__(Basis)
        basis._set(self.arity, FILTERED, self.degree + 1, self.monomials + part.monomials,
                   self.codes + part.codes, positions)
        return basis

    def __repr__(self):
        return f"Basis(arity={self.arity}, kind={self.kind!r}, degree={self.degree})"


# Basis is immutable, so one instance serves every caller; typed, so that
# degree 2.0 is refused as before and not served from degree 2's entry
@lru_cache(maxsize=128, typed=True)
def homogeneous_basis(arity, degree):
    return Basis(arity, HOMOGENEOUS, degree)


@lru_cache(maxsize=128, typed=True)
def filtered_basis(arity, degree):
    return Basis(arity, FILTERED, degree)


def basis_dimension(arity, kind, degree):
    """Closed-form slice dimension: C(n+d-1, d-1) or C(n+d, d)."""
    if kind == HOMOGENEOUS:
        return math.comb(degree + arity - 1, arity - 1)
    if kind == FILTERED:
        return math.comb(degree + arity, arity)
    raise ValueError(f"unknown slice kind {kind!r}")


# The most monomials a request's slices may span.  The largest slice that the
# tests and the benchmark workloads build has 680.  The slice matrices are
# sparse, but their echelons fill in and their entries grow, so a bound much
# above this one would let a single request run without practical end.
MAX_SLICE_DIMENSION = 4096


def check_slice_dimension(arity, degree):
    """Raise SliceTooLargeError when the filtered slice of this degree has
    more than MAX_SLICE_DIMENSION monomials.

    Every slice a request builds, and every homogeneous slice it loops over,
    lies in the filtered slice of its top degree, so one check bounds them
    all.  Negative degrees give empty slices.
    """
    if degree >= 0:
        dimension = basis_dimension(arity, FILTERED, degree)
        if dimension > MAX_SLICE_DIMENSION:
            raise SliceTooLargeError(
                f"the filtered slice of degree {degree} in {arity} variables has "
                f"{dimension} monomials, more than the limit of {MAX_SLICE_DIMENSION}"
            )


def overflow_error(exponents, basis):
    """The BasisOverflowError for a monomial that falls outside the basis."""
    return BasisOverflowError(
        f"monomial {exponents} of the polynomial falls outside the target basis "
        f"({basis!r})"
    )


def coordinates(p, basis):
    """(ints, den): the coordinate vector of p in the given basis in integer
    form, the rhs form that linalg.solve takes.  ints holds p's stored ints
    at their basis positions and the field's zero elsewhere, over p's
    denominator den; no scalar is built.

    Raises BasisOverflowError if p carries a monomial outside the basis.
    """
    if p.arity != basis.arity:
        raise ValueError(f"arity mismatch: poly {p.arity} vs basis {basis.arity}")
    ints = [INTEGERS[p.field].zero] * len(basis)
    for m, n in p._ints.items():
        try:
            ints[basis.index(m)] = n
        except KeyError:
            raise overflow_error(m, basis) from None
    return ints, p._den


def from_coordinates(coords, basis, field=FIELD_Q):
    """The polynomial with the given coordinate vector of field scalars in a
    basis (as solve returns it), its terms in basis order.

    The nonzero coordinates go over the lcm of their denominators by one
    integer_form.  Scalars in lowest terms over their lcm are in canonical
    form (for each prime, the coordinate with its highest power in a
    denominator keeps a part prime to it), so the ints are stored as they are.
    A coordinate that is no scalar of the field, a Fraction over Qi among
    them, is a ValueError.
    """
    validate_field(field)
    if len(coords) != len(basis):
        raise ValueError(f"expected {len(basis)} coordinates, got {len(coords)}")
    nonzero = [(m, c) for m, c in zip(basis.monomials, coords) if c]
    try:
        ints, den = integer_form([c for _, c in nonzero], field)
    except AttributeError:
        raise ValueError(f"coordinates must be scalars of field {field}") from None
    return canonical_poly(basis.arity, field, {m: n for (m, _), n in zip(nonzero, ints)}, den)


def poly_to_json(p):
    """Serialize to the wire schema: exact, with ints as decimal strings.

    It reads ``decimal_terms``, the strings built once per polynomial from
    its ints and shared with the printer, exprs.format_polynomial.
    """
    qi = p.field == FIELD_QI
    terms = []
    for m, parts in p.decimal_terms:
        coeffs = [{"num": num, "den": den} for num, den in parts]
        terms.append({"exps": list(m),
                      "coeff": {"re": coeffs[0], "im": coeffs[1]} if qi else coeffs[0]})
    return {"arity": p.arity, "field": p.field, "terms": terms}


def poly_from_json(obj):
    """The polynomial of a poly_to_json object.  Any other input, such as a
    duplicate or non-int exponent or a malformed coefficient, is a
    ValueError."""
    try:
        field, arity = obj["field"], obj["arity"]
        pairs = [(tuple(term["exps"]), term["coeff"]) for term in obj["terms"]]
    except (KeyError, TypeError):
        raise ValueError("a polynomial object needs arity, field and terms") from None
    validate_field(field)
    if isinstance(arity, bool) or len({m for m, _ in pairs}) != len(pairs):
        raise ValueError("the arity must be an int, and no exponent tuple may occur twice")
    return Poly(arity, field, {m: scalar_from_json(c, field) for m, c in pairs})
