"""Sparse exact multivariate polynomials and graded monomial bases.

Polynomials are immutable maps from exponent tuples to nonzero field
elements, with a fixed arity and field tag.  The monomial order everywhere
is graded lexicographic with the first variable dominant: lower total degree
first, and within a degree x1^n precedes x1^(n-1)*x2 and so on.  The zero
polynomial stores no terms and has degree NEG_INF.
"""

from __future__ import annotations

import math
from types import MappingProxyType

from .errors import BasisOverflowError, FloatEvaluationError, SliceTooLargeError
from .scalars import (
    FIELD_Q,
    GaussianRational,
    as_scalar,
    scalar_from_json,
    scalar_to_json,
    validate_field,
)

NEG_INF = float("-inf")


def grlex_key(exponents):
    """Sort key realizing the graded lexicographic order on exponent tuples."""
    return (sum(exponents), tuple(-e for e in exponents))


class Poly:
    """Immutable sparse polynomial with exact coefficients.

    Construction canonicalizes: zero coefficients are dropped and duplicate
    exponent tuples are merged, so equal polynomials always carry identical
    term maps.
    """

    __slots__ = ("arity", "field", "_terms", "_floats")

    def __init__(self, arity, field=FIELD_Q, terms=None):
        validate_field(field)
        if not isinstance(arity, int) or arity < 1:
            raise ValueError(f"arity must be a positive integer, got {arity!r}")
        clean = {}
        if terms:
            items = terms.items() if hasattr(terms, "items") else terms
            for exponents, coeff in items:
                exponents = tuple(exponents)
                if len(exponents) != arity:
                    raise ValueError(
                        f"exponent tuple {exponents} does not match arity {arity}"
                    )
                if any(not isinstance(e, int) or e < 0 for e in exponents):
                    raise ValueError(f"exponents must be non-negative ints: {exponents}")
                value = as_scalar(coeff, field)
                if exponents in clean:
                    value = clean[exponents] + value
                if value:
                    clean[exponents] = value
                elif exponents in clean:
                    del clean[exponents]
        object.__setattr__(self, "arity", arity)
        object.__setattr__(self, "field", field)
        object.__setattr__(self, "_terms", clean)

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
        return MappingProxyType(self._terms)

    def coefficient(self, exponents):
        """Coefficient of the given monomial (field zero if absent)."""
        return self._terms.get(tuple(exponents), as_scalar(0, self.field))

    def __bool__(self):
        return bool(self._terms)

    def __eq__(self, other):
        if not isinstance(other, Poly):
            return NotImplemented
        return (
            self.arity == other.arity
            and self.field == other.field
            and self._terms == other._terms
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
        out = dict(self._terms)
        for exponents, coeff in other._terms.items():
            if exponents in out:
                value = out[exponents] + coeff
                if value:
                    out[exponents] = value
                else:
                    del out[exponents]
            else:
                out[exponents] = coeff
        return self._wrap(out)

    def __sub__(self, other):
        if not isinstance(other, Poly):
            return NotImplemented
        return self + (-other)

    def __neg__(self):
        return self._wrap({m: -c for m, c in self._terms.items()})

    def __mul__(self, other):
        if isinstance(other, Poly):
            self._check_compatible(other)
            out = {}
            for ma, ca in self._terms.items():
                for mb, cb in other._terms.items():
                    m = tuple(a + b for a, b in zip(ma, mb))
                    value = ca * cb
                    if m in out:
                        value = out[m] + value
                    if value:
                        out[m] = value
                    elif m in out:
                        del out[m]
            return self._wrap(out)
        return self.scale(other)

    def __rmul__(self, other):
        return self.scale(other)

    def __pow__(self, exponent):
        if not isinstance(exponent, int) or exponent < 0:
            raise ValueError("polynomial powers take non-negative int exponents")
        result = Poly.constant(self.arity, 1, self.field)
        base = self
        n = exponent
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def scale(self, value):
        """Multiply every coefficient by a field scalar."""
        c = as_scalar(value, self.field)
        if not c:
            return Poly.zero(self.arity, self.field)
        return self._wrap({m: coeff * c for m, coeff in self._terms.items()})

    def _wrap(self, term_dict):
        p = Poly.__new__(Poly)
        object.__setattr__(p, "arity", self.arity)
        object.__setattr__(p, "field", self.field)
        object.__setattr__(p, "_terms", term_dict)
        return p

    @property
    def degree(self):
        """Total degree, or NEG_INF for the zero polynomial."""
        if not self._terms:
            return NEG_INF
        return max(sum(m) for m in self._terms)

    def diff(self, axis):
        """Formal partial derivative along the given 0-based axis."""
        if not 0 <= axis < self.arity:
            raise IndexError(f"axis {axis} out of range for arity {self.arity}")
        out = {}
        for m, c in self._terms.items():
            e = m[axis]
            if e == 0:
                continue
            dm = m[:axis] + (e - 1,) + m[axis + 1 :]
            value = c * e
            if dm in out:
                value = out[dm] + value
            if value:
                out[dm] = value
            elif dm in out:
                del out[dm]
        return self._wrap(out)

    def laplacian(self):
        """Sum of second partials along every axis, computed exactly."""
        out = {}
        for m, c in self._terms.items():
            for axis, e in enumerate(m):
                if e < 2:
                    continue
                dm = m[:axis] + (e - 2,) + m[axis + 1 :]
                value = c * (e * (e - 1))
                if dm in out:
                    value = out[dm] + value
                if value:
                    out[dm] = value
                elif dm in out:
                    del out[dm]
        return self._wrap(out)

    def homogeneous_component(self, n):
        """Terms of total degree exactly n."""
        if not isinstance(n, int) or n < 0:
            raise ValueError(f"component degree must be a non-negative int, got {n!r}")
        return self._wrap({m: c for m, c in self._terms.items() if sum(m) == n})

    def is_homogeneous(self):
        degrees = {sum(m) for m in self._terms}
        return len(degrees) <= 1

    def float_terms(self, point):
        """The terms c * x^m at a float point, as floats (complex over Qi).

        Raises FloatEvaluationError when a coordinate, a coefficient or a
        power of a coordinate is beyond the float range.
        """
        if len(point) != self.arity:
            raise ValueError(f"point has {len(point)} coordinates, arity is {self.arity}")
        terms = []
        try:
            values = [float(v) for v in point]
            floats = getattr(self, "_floats", None)
            if floats is None:  # filled once: the polynomial is immutable
                floats = [complex(c) if isinstance(c, GaussianRational) else float(c)
                          for c in self._terms.values()]
                object.__setattr__(self, "_floats", floats)
            for m, term in zip(self._terms, floats):
                for v, e in zip(values, m):
                    if e:
                        term *= v**e
                terms.append(term)
        except OverflowError:
            raise FloatEvaluationError(
                "floating-point evaluation overflowed: a coefficient or a power "
                "of a coordinate is beyond the float range (about 1.8e308)"
            ) from None
        return terms

    def evaluate(self, point):
        """Numeric evaluation at a float point; complex over field Qi."""
        total = 0j if self.field != FIELD_Q else 0.0
        for term in self.float_terms(point):
            total += term
        return total

    def evaluate_exact(self, point):
        """Exact evaluation at a point of field scalars."""
        if len(point) != self.arity:
            raise ValueError(f"point has {len(point)} coordinates, arity is {self.arity}")
        values = [as_scalar(v, self.field) for v in point]
        total = as_scalar(0, self.field)
        for m, c in self._terms.items():
            term = c
            for v, e in zip(values, m):
                if e:
                    term = term * v**e
            total = total + term
        return total

    def sorted_terms(self):
        """Terms in ascending graded lex order (deterministic)."""
        return sorted(self._terms.items(), key=lambda item: grlex_key(item[0]))

    def __repr__(self):
        body = ", ".join(f"{m}: {c}" for m, c in self.sorted_terms())
        return f"Poly(arity={self.arity}, field={self.field!r}, terms={{{body}}})"


def apply_operator(operator_poly, target):
    """Apply the constant-coefficient differential operator encoded by a
    polynomial: each monomial x^a acts as the mixed partial of multi-order a.
    """
    if not isinstance(operator_poly, Poly) or not isinstance(target, Poly):
        raise TypeError("apply_operator expects two Poly arguments")
    operator_poly._check_compatible(target)
    out = {}
    for beta, c_op in operator_poly._terms.items():
        for alpha, c in target._terms.items():
            if any(a < b for a, b in zip(alpha, beta)):
                continue
            factor = 1
            for a, b in zip(alpha, beta):
                for k in range(b):
                    factor *= a - k
            m = tuple(a - b for a, b in zip(alpha, beta))
            value = c * c_op * factor
            if m in out:
                value = out[m] + value
            if value:
                out[m] = value
            elif m in out:
                del out[m]
    return target._wrap(out)


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


class Basis:
    """Ordered monomial basis of a graded slice.

    kind "homogeneous" lists the monomials of total degree exactly n,
    kind "filtered" those of total degree at most n, both in ascending
    graded lex order.
    """

    __slots__ = ("arity", "kind", "degree", "monomials", "_positions")

    def __init__(self, arity, kind, degree):
        if not isinstance(arity, int) or arity < 1:
            raise ValueError(f"arity must be a positive integer, got {arity!r}")
        if not isinstance(degree, int) or degree < 0:
            raise ValueError(f"slice degree must be a non-negative int, got {degree!r}")
        if kind not in (HOMOGENEOUS, FILTERED):
            raise ValueError(f"unknown slice kind {kind!r}")
        if kind == HOMOGENEOUS:
            monomials = tuple(_exponents_of_degree(arity, degree))
        else:
            monomials = tuple(
                m for n in range(degree + 1) for m in _exponents_of_degree(arity, n)
            )
        object.__setattr__(self, "arity", arity)
        object.__setattr__(self, "kind", kind)
        object.__setattr__(self, "degree", degree)
        object.__setattr__(self, "monomials", monomials)
        object.__setattr__(self, "_positions", {m: i for i, m in enumerate(monomials)})

    def __setattr__(self, name, value):
        raise AttributeError("Basis is immutable")

    def __len__(self):
        return len(self.monomials)

    def __iter__(self):
        return iter(self.monomials)

    def __getitem__(self, i):
        return self.monomials[i]

    def __contains__(self, exponents):
        return tuple(exponents) in self._positions

    def index(self, exponents):
        return self._positions[tuple(exponents)]

    def __repr__(self):
        return f"Basis(arity={self.arity}, kind={self.kind!r}, degree={self.degree})"


def monomial_basis(arity, kind, degree):
    """Enumerate the graded slice basis; see Basis for the ordering."""
    return Basis(arity, kind, degree)


def homogeneous_basis(arity, degree):
    return Basis(arity, HOMOGENEOUS, degree)


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


def nonzero_coordinates(p, basis):
    """{position in the basis: coefficient} for the terms of p.

    Raises BasisOverflowError if p carries a monomial outside the basis.
    """
    if p.arity != basis.arity:
        raise ValueError(f"arity mismatch: poly {p.arity} vs basis {basis.arity}")
    positions = {}
    for m, c in p._terms.items():
        try:
            positions[basis.index(m)] = c
        except KeyError:
            raise overflow_error(m, basis) from None
    return positions


def overflow_error(exponents, basis):
    """The BasisOverflowError for a monomial that falls outside the basis."""
    return BasisOverflowError(
        f"monomial {exponents} of the polynomial falls outside the target basis "
        f"({basis!r})"
    )


def coordinates(p, basis):
    """Coordinate vector of p in the given basis; see nonzero_coordinates."""
    positions, zero = nonzero_coordinates(p, basis), as_scalar(0, p.field)
    return [positions.get(i, zero) for i in range(len(basis))]


def from_coordinates(coords, basis, field=FIELD_Q):
    """Rebuild a polynomial from its coordinate vector in a basis."""
    if len(coords) != len(basis):
        raise ValueError(f"expected {len(basis)} coordinates, got {len(coords)}")
    return Poly(basis.arity, field, dict(zip(basis.monomials, coords)))


def poly_to_json(p):
    """Serialize to the wire schema: exact, with ints as decimal strings."""
    return {
        "arity": p.arity,
        "field": p.field,
        "terms": [
            {"exps": list(m), "coeff": scalar_to_json(c)} for m, c in p.sorted_terms()
        ],
    }


def poly_from_json(obj):
    field = obj["field"]
    validate_field(field)
    arity = obj["arity"]
    terms = {}
    for term in obj["terms"]:
        terms[tuple(term["exps"])] = scalar_from_json(term["coeff"], field)
    return Poly(arity, field, terms)
