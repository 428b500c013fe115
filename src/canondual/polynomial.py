"""Exact sparse multivariate polynomial arithmetic over the rationals.

A polynomial in up to four variables is stored as a map from exponent
tuples to ``fractions.Fraction`` coefficients:

    x0^2 * x1 + 3/2   ->   {(2, 1): Fraction(1), (0, 0): Fraction(3, 2)}

Zero coefficients are never stored, all exponent tuples have the same
length (the arity), and equality is exact term-by-term comparison.  This
makes every algebraic decomposition identity in the package testable as
exact equality instead of a float tolerance, which is the whole point:
coefficients such as -1.05 or 53/3 are carried as -21/20 and 53/3.

Python integers are arbitrary precision, so coefficient arithmetic cannot
overflow; no width guard is needed.

Display and serialization use graded lexicographic order, highest total
degree first, ties broken by descending exponent tuple, so output is
deterministic.

Float evaluation at one point has a single path: ``eval`` calls the
straight-line function that ``float_evaluator`` generates, with one table
of powers per variable shared by all terms.  ``joint_evaluator`` is the
same generator given several polynomials, such as a gradient and Hessian:
one table of powers, one sum per polynomial, each output bit for bit that
polynomial's ``float_evaluator``.  The code is compiled once per shape,
the arity and each polynomial's graded-lex exponent list, and process
(``_shape_code``, cached by shape); the coefficients are the code's
constants, bound per polynomial (``_bind``), so a polynomial and its
rounding-bound polynomial share one compile, and so do problems that
differ only in their coefficients.  Every value derived from one
polynomial alone, its float terms, evaluator, term arrays, partial
derivatives and Newton evaluators, is a ``functools.cached_property``,
built at first use and kept with the polynomial, so each evaluator is
bound once.  Module ``canonical`` hands the same generator a dual
table's slots, polynomials in sigma, in the table's term order.  ``as_arrays`` hands the same float
terms to the lattice kernel of module ``kernels``, and ``eval_exact`` is
the exact rational reference.
"""

from __future__ import annotations

import functools
import types
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Iterator, Mapping, Sequence

import numpy as np

from .errors import DimensionMismatch

# The one cap on a polynomial's arity and on a problem's n and m; it is
# smallmat.MAX_DIM too, since a dual table's n x n and m x m systems are
# solved there.
MAX_ARITY = 4

Exponents = tuple[int, ...]
RationalLike = int | str | float | Fraction


def rat(value: RationalLike) -> Fraction:
    """Coerce ints, "p/q" strings, floats, and Fractions to an exact Fraction.

    Floats convert exactly (every float is a dyadic rational); strings must
    be "p" or "p/q" with integer parts.
    """
    if isinstance(value, Fraction):
        return value
    if isinstance(value, str):
        text = value.strip()
        if "/" in text:
            num, den = text.split("/", 1)
            return Fraction(int(num.strip()), int(den.strip()))
        return Fraction(int(text))
    if isinstance(value, bool):
        raise TypeError("bool is not a rational coefficient")
    if isinstance(value, (int, float)):
        return Fraction(value)
    raise TypeError(f"cannot interpret {value!r} as a rational")


def grlex_key(exponents: Exponents) -> tuple[int, Exponents]:
    """Sort key realizing graded lexicographic order."""
    return (sum(exponents), exponents)


# The most terms _shape_code writes into one sum expression: the
# compiler recurses once per operator, and a sum of some thousands of terms
# exhausts its recursion limit.
_TERMS_PER_STATEMENT = 1000

# The compiled evaluator of one shape: (its code object, the positions of
# the coefficients, in term order, in its co_consts or, where the compiler
# folded the returned tuple into one constant, in that tuple; the position
# of that tuple in co_consts, or None).
Compiled = tuple[types.CodeType, tuple[int, ...], int | None]


@functools.cache
def _shape_code(arity: int, shape: tuple[tuple[Exponents, ...], ...]) -> Compiled:
    """Generate and compile ``evaluate(point)`` for one or more polynomials
    of the given exponent lists, once per shape (the arity and the exponent
    lists) and process: a shape holds no coefficient values, so every
    polynomial of one shape shares one code object.  The code makes one
    table of powers up to each variable's largest exponent across all of
    them, then one sum per polynomial, ``0.0 + t1 + t2 + ...`` in term
    order, written as one expression (one per _TERMS_PER_STATEMENT terms).
    The function returns the one sum, or the tuple of sums when given
    several polynomials; there each sum of one statement is written into
    the return statement itself.

    Each coefficient is written as a placeholder constant, 1.0, 2.0, ... in
    term order, and the positions of the placeholders are returned with the
    code.  A polynomial that is one constant term is written as that term
    alone: ``0.0 + c`` would fold into one constant, and for c != 0 it has
    the bits of c.  When every polynomial of several is constant, the
    compiler folds the returned tuple into one constant: the placeholders
    are then its items."""

    def power(v: int, e: int) -> str:
        return f"x{v}" if e == 1 else f"x{v}_{e}"

    names = ", ".join(f"x{v}" for v in range(arity))
    lines = ["def evaluate(point):", f"    {names}, = point"]
    for v in range(arity):
        top = max((exps[v] for exps_list in shape for exps in exps_list), default=0)
        for e in range(2, top + 1):
            lines.append(f"    {power(v, e)} = {power(v, e - 1)} * x{v}")
    returned = []
    count = 0
    for k, exps_list in enumerate(shape):
        terms = []
        for exps in exps_list:
            count += 1
            terms.append(f"{float(count)!r}" + "".join(f" * {power(v, e)}" for v, e in enumerate(exps) if e))
        start = [] if len(exps_list) == 1 and not any(exps_list[0]) else ["0.0"]
        if len(shape) > 1 and len(terms) <= _TERMS_PER_STATEMENT:
            returned.append(" + ".join([*start, *terms]))
            continue
        total = "total" if len(shape) == 1 else f"total{k}"
        for i in range(0, max(len(terms), 1), _TERMS_PER_STATEMENT):
            lines.append(f"    {total} = " + " + ".join([*start, *terms[i:i + _TERMS_PER_STATEMENT]]))
            start = [total]
        returned.append(total)
    lines.append(f"    return {', '.join(returned)}")
    namespace: dict = {}
    exec(compile("\n".join(lines), "<MultiPoly.float_evaluator>", "exec"), {}, namespace)
    code = namespace["evaluate"].__code__
    folded = next((i for i, c in enumerate(code.co_consts) if type(c) is tuple), None)
    consts = code.co_consts if folded is None else code.co_consts[folded]
    position = {c: i for i, c in enumerate(consts) if type(c) is float}
    return code, tuple(position[float(k)] for k in range(1, count + 1)), folded


def _bind(compiled: Compiled, coeffs: Sequence[float]) -> Callable[[Sequence[float]], float | tuple[float, ...]]:
    """The function of a shape's compiled code with the float coefficients,
    in term order, put in as its constants."""
    code, positions, folded = compiled
    consts = list(code.co_consts)
    target = consts if folded is None else list(consts[folded])
    for position, coeff in zip(positions, coeffs):
        target[position] = coeff
    if folded is not None:
        consts[folded] = tuple(target)
    return types.FunctionType(code.replace(co_consts=tuple(consts)), {})


def _compile_evaluator(
    arity: int, term_lists: Sequence[tuple[Sequence[Exponents], Sequence[float]]]
) -> Callable[[Sequence[float]], float | tuple[float, ...]]:
    """The evaluator of one or more polynomials, each given by its float
    terms (see MultiPoly.float_evaluator): the code of their shape
    (_shape_code) bound to their coefficients (_bind)."""
    shape = tuple(tuple(exps_list) for exps_list, _ in term_lists)
    return _bind(_shape_code(arity, shape), [c for _, coeffs in term_lists for c in coeffs])


def joint_evaluator(polys: Sequence["MultiPoly"]) -> Callable[[Sequence[float]], tuple[float, ...]]:
    """One generated function returning the values of two or more
    polynomials of one arity at a point, from one shared table of powers.
    Output k is bit for bit ``polys[k].float_evaluator()`` at the point.
    Compiled once per shape; the coefficients are the code's constants."""
    return _compile_evaluator(polys[0].arity, [p._float_terms for p in polys])


@dataclass(frozen=True, eq=False)
class MultiPoly:
    """Immutable sparse polynomial over the rationals in ``arity`` variables."""

    arity: int
    terms: dict[Exponents, Fraction]

    def __post_init__(self) -> None:
        if not 1 <= self.arity <= MAX_ARITY:
            raise DimensionMismatch(f"arity must be in 1..{MAX_ARITY}, got {self.arity}")
        clean: dict[Exponents, Fraction] = {}
        for exps, coeff in self.terms.items():
            exps = tuple(exps)
            if len(exps) != self.arity:
                raise DimensionMismatch(
                    f"exponent tuple {exps} has length {len(exps)}, expected {self.arity}"
                )
            if any(not isinstance(e, int) or e < 0 for e in exps):
                raise ValueError(f"exponents must be nonnegative integers, got {exps}")
            coeff = rat(coeff)
            if coeff != 0:
                clean[exps] = coeff
        object.__setattr__(self, "terms", clean)

    @classmethod
    def _of(cls, arity: int, terms: dict[Exponents, Fraction]) -> "MultiPoly":
        """The polynomial of terms the package has built itself, without
        __post_init__'s checks: arity in range, exponent tuples of that
        length with nonnegative int entries, and Fraction coefficients, none
        zero.  Every polynomial from outside the package goes through the
        constructor."""
        poly = object.__new__(cls)
        object.__setattr__(poly, "arity", arity)
        object.__setattr__(poly, "terms", terms)
        return poly

    # -- constructors -------------------------------------------------------

    @classmethod
    def zero(cls, arity: int) -> "MultiPoly":
        return cls(arity, {})

    @classmethod
    def constant(cls, arity: int, value: RationalLike) -> "MultiPoly":
        return cls(arity, {(0,) * arity: rat(value)})

    @classmethod
    def variable(cls, arity: int, index: int) -> "MultiPoly":
        if not 0 <= index < arity:
            raise DimensionMismatch(f"variable index {index} out of range for arity {arity}")
        exps = [0] * arity
        exps[index] = 1
        return cls(arity, {tuple(exps): Fraction(1)})

    @classmethod
    def from_terms(cls, arity: int, terms: Mapping[Sequence[int], RationalLike]) -> "MultiPoly":
        return cls(arity, {tuple(e): rat(c) for e, c in terms.items()})

    # -- ring operations ----------------------------------------------------

    def _check_same_arity(self, other: "MultiPoly") -> None:
        if self.arity != other.arity:
            raise DimensionMismatch(f"arity mismatch: {self.arity} vs {other.arity}")

    def __add__(self, other: "MultiPoly | RationalLike") -> "MultiPoly":
        if not isinstance(other, MultiPoly):
            other = MultiPoly.constant(self.arity, other)
        self._check_same_arity(other)
        out = dict(self.terms)
        for exps, coeff in other.terms.items():
            out[exps] = out.get(exps, Fraction(0)) + coeff
        return MultiPoly._of(self.arity, {exps: coeff for exps, coeff in out.items() if coeff})

    __radd__ = __add__

    def __neg__(self) -> "MultiPoly":
        return self.scale(-1)

    def __sub__(self, other: "MultiPoly | RationalLike") -> "MultiPoly":
        if not isinstance(other, MultiPoly):
            other = MultiPoly.constant(self.arity, other)
        return self + (-other)

    def __rsub__(self, other: RationalLike) -> "MultiPoly":
        return MultiPoly.constant(self.arity, other) - self

    def __mul__(self, other: "MultiPoly | RationalLike") -> "MultiPoly":
        if not isinstance(other, MultiPoly):
            return self.scale(other)
        self._check_same_arity(other)
        out: dict[Exponents, Fraction] = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                exps = tuple(a + b for a, b in zip(e1, e2))
                out[exps] = out.get(exps, Fraction(0)) + c1 * c2
        return MultiPoly._of(self.arity, {exps: coeff for exps, coeff in out.items() if coeff})

    __rmul__ = __mul__

    def __pow__(self, power: int) -> "MultiPoly":
        if not isinstance(power, int) or power < 0:
            raise ValueError("polynomial powers must be nonnegative integers")
        result = MultiPoly.constant(self.arity, 1)
        for _ in range(power):
            result = result * self
        return result

    def scale(self, factor: RationalLike) -> "MultiPoly":
        factor = rat(factor)
        return MultiPoly._of(self.arity, {e: c * factor for e, c in self.terms.items()} if factor else {})

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, MultiPoly):
            return NotImplemented
        return self.arity == other.arity and self.terms == other.terms

    # -- calculus -----------------------------------------------------------

    @functools.cached_property
    def _partials(self) -> tuple["MultiPoly", ...]:
        """Every formal partial derivative, in variable order."""
        partials = []
        for var in range(self.arity):
            out: dict[Exponents, Fraction] = {}
            for exps, coeff in self.terms.items():
                if exps[var]:
                    out[exps[:var] + (exps[var] - 1,) + exps[var + 1:]] = coeff * exps[var]
            partials.append(MultiPoly._of(self.arity, out))
        return tuple(partials)

    def partial_derivative(self, var: int) -> "MultiPoly":
        """Formal partial derivative with respect to variable ``var``: one
        of ``gradient()``, so each is built once, with its evaluator."""
        if not 0 <= var < self.arity:
            raise DimensionMismatch(f"variable index {var} out of range for arity {self.arity}")
        return self._partials[var]

    def gradient(self) -> tuple["MultiPoly", ...]:
        return self._partials

    # -- substitution -------------------------------------------------------

    def substitute_linear(self, matrix: Sequence[Sequence[RationalLike]]) -> "MultiPoly":
        """Compose with a linear change of variables: p(M @ u).

        ``matrix`` has one row per original variable, one column per new
        variable.  All arithmetic is exact.
        """
        if len(matrix) != self.arity:
            raise DimensionMismatch(
                f"matrix has {len(matrix)} rows, polynomial arity is {self.arity}"
            )
        widths = {len(row) for row in matrix}
        if len(widths) != 1:
            raise DimensionMismatch("matrix rows have unequal lengths")
        new_arity = widths.pop()
        if not 1 <= new_arity <= MAX_ARITY:
            raise DimensionMismatch(f"target arity {new_arity} out of range 1..{MAX_ARITY}")

        # Linear image of each original variable in the new variables.
        images: list[MultiPoly] = []
        for i in range(self.arity):
            img = MultiPoly.zero(new_arity)
            for j in range(new_arity):
                coeff = rat(matrix[i][j])
                if coeff != 0:
                    img = img + MultiPoly.variable(new_arity, j).scale(coeff)
            images.append(img)

        # Cache powers of each image up to its maximum needed exponent.
        max_exp = [0] * self.arity
        for exps in self.terms:
            for i, e in enumerate(exps):
                max_exp[i] = max(max_exp[i], e)
        powers: list[list[MultiPoly]] = []
        for i in range(self.arity):
            pows = [MultiPoly.constant(new_arity, 1)]
            for _ in range(max_exp[i]):
                pows.append(pows[-1] * images[i])
            powers.append(pows)

        result = MultiPoly.zero(new_arity)
        for exps, coeff in self.terms.items():
            term = MultiPoly.constant(new_arity, coeff)
            for i, e in enumerate(exps):
                if e:
                    term = term * powers[i][e]
            result = result + term
        return result

    # -- evaluation ---------------------------------------------------------

    def eval(self, point: Sequence[float]) -> float:
        """Evaluate at a float point with ``float_evaluator``."""
        if len(point) != self.arity:
            raise DimensionMismatch(f"point has length {len(point)}, expected {self.arity}")
        return self.float_evaluator()(point)

    def eval_exact(self, point: Sequence[RationalLike]) -> Fraction:
        """Evaluate at a rational point, exactly."""
        if len(point) != self.arity:
            raise DimensionMismatch(f"point has length {len(point)}, expected {self.arity}")
        values = [rat(x) for x in point]
        total = Fraction(0)
        for exps, coeff in self.terms.items():
            term = coeff
            for v, e in enumerate(exps):
                if e:
                    term *= values[v] ** e
            total += term
        return total

    @functools.cached_property
    def _float_terms(self) -> tuple[list[Exponents], list[float]]:
        exps_list = self.sorted_exponents()
        # float() of a Fraction, numerator / denominator, without its generic dispatch
        return exps_list, [c.numerator / c.denominator for c in map(self.terms.__getitem__, exps_list)]

    @functools.cached_property
    def _evaluator(self) -> Callable[[Sequence[float]], float]:
        return _compile_evaluator(self.arity, [self._float_terms])

    def float_evaluator(self) -> Callable[[Sequence[float]], float]:
        """Straight-line float evaluator generated from the float terms.

        The source is built from the integer exponents alone: one line per
        needed power ``x{v}_{e}`` by repeated multiplication, then the sum
        of the graded-lex terms, each a coefficient times its powers.  It
        is compiled once per shape; the float coefficients are the code's
        constants, put in with ``code.replace(co_consts=...)``, so a call
        runs as with the coefficients written in as literals.  It is the
        one scalar float evaluator: ``eval`` calls it, and so does Newton
        refinement, at a few microseconds per call.  Bound once per
        polynomial, a cached property.
        """
        return self._evaluator

    @functools.cached_property
    def newton_evaluators(self) -> tuple[Callable[[Sequence[float]], float], ...]:
        """Single-point evaluators of the polynomial, of its rounding-bound
        polynomial sum_t |c_t| x^e_t (called at |x|), and of its Newton-step
        data: one generated function returning the gradient and the upper
        triangle of the Hessian, row by row, from one table of powers
        (``joint_evaluator``).  Built once per polynomial, for
        ``oracle``'s Newton refinement."""
        grads = self.gradient()
        hessian = [grads[i].partial_derivative(j) for i in range(self.arity) for j in range(i, self.arity)]
        magnitude = MultiPoly._of(self.arity, {exps: abs(coeff) for exps, coeff in self.terms.items()})
        return self.float_evaluator(), magnitude.float_evaluator(), joint_evaluator([*grads, *hessian])

    @functools.cached_property
    def _arrays(self) -> tuple[np.ndarray, np.ndarray]:
        exps_list, coeffs = self._float_terms
        if not exps_list:
            return np.zeros(0, dtype=np.float64), np.zeros((0, self.arity), dtype=np.int64)
        return np.array(coeffs, dtype=np.float64), np.array(exps_list, dtype=np.int64)

    def as_arrays(self) -> tuple[np.ndarray, np.ndarray]:
        """Term data as (coeffs float64 [T], exponents int64 [T, arity]) for
        the batch-evaluation kernels, in graded-lex order; built once per
        polynomial."""
        return self._arrays

    # -- queries and display --------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def total_degree(self) -> int:
        return max((sum(e) for e in self.terms), default=0)

    def degree_in(self, var: int) -> int:
        return max((e[var] for e in self.terms), default=0)

    def coefficient(self, exps: Sequence[int]) -> Fraction:
        return self.terms.get(tuple(exps), Fraction(0))

    def sorted_exponents(self) -> list[Exponents]:
        return sorted(self.terms, key=grlex_key, reverse=True)

    def sorted_terms(self) -> Iterator[tuple[Exponents, Fraction]]:
        for exps in self.sorted_exponents():
            yield exps, self.terms[exps]

    def to_text(self) -> str:
        """One line per term: "num/den e1 e2 ... ek", graded-lex order.

        The zero polynomial serializes to the empty string.
        """
        lines = []
        for exps, coeff in self.sorted_terms():
            lines.append(
                f"{coeff.numerator}/{coeff.denominator} " + " ".join(str(e) for e in exps)
            )
        return "\n".join(lines)

    def __repr__(self) -> str:
        if self.is_zero():
            return f"MultiPoly(arity={self.arity}, 0)"
        parts = []
        for exps, coeff in self.sorted_terms():
            mono = "*".join(
                f"x{i}^{e}" if e > 1 else f"x{i}" for i, e in enumerate(exps) if e
            )
            parts.append(f"{coeff}{'*' + mono if mono else ''}")
        return f"MultiPoly(arity={self.arity}, {' + '.join(parts)})"


def first_diff_term(p: MultiPoly, q: MultiPoly) -> Exponents | None:
    """First monomial (graded-lex order) on which two polynomials differ,
    or None when they are equal."""
    diff = p - q
    if diff.is_zero():
        return None
    return diff.sorted_exponents()[0]
