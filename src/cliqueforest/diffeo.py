"""Orientation-preserving analytic maps of I, S^1 and R as closed expression trees.

Every expression carries exactly one manifold tag.  Circle maps are stored
through their degree-one lifts F: R -> R with F(x+1) = F(x) + 1; evaluation
reduces mod 1, residuals are measured as circle distances.  All objects are
immutable after construction and every operation is a pure function.

Every grid sup (commutator and identity residuals, the verification of an
assignment, commutation graphs) is taken by ``grid_sups``, one walk over
the radix trie of the expressions' letter sequences; ``apply_letters`` is
the reference of each value it walks.
"""
from __future__ import annotations

import math
from dataclasses import InitVar, dataclass, field
from enum import Enum
from functools import cached_property, lru_cache
from itertools import accumulate
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np

INVERSION_TOL = 1e-14
INVERSION_MAX_ITER = 200
SCALAR_SOLVE_MAX = 32  # arrays up to this size invert faster element by element
PROVEN_TARGET_MAX = 2.0 ** 40  # targets whose bracket a shift bound proves
# an allowance for one rounding of a value below 2^41, whose ulp is 2^-12
_ROUNDING = 2.0 ** -12
DEFAULT_GRID = 1024


class Manifold(str, Enum):
    INTERVAL = "I"
    CIRCLE = "S1"
    LINE = "R"


class DomainError(ValueError):
    """Point outside the manifold's model domain."""


class TagMismatchError(ValueError):
    """Operands live on different manifolds."""


class InvariantBreach(RuntimeError):
    """An expression failed to behave like an increasing diffeomorphism."""


class InversionError(InvariantBreach):
    """Monotone root search did not converge (non-monotone expression)."""


def _finite(what: str, *values: float) -> None:
    """Reject a parameter that is infinite or NaN."""
    if not all(map(math.isfinite, values)):
        raise ValueError(f"{what} must be finite")


# ---------------------------------------------------------------------------
# bump summands for perturbed maps


@dataclass(frozen=True)
class BumpPoly:
    """Polynomial bump c * x^k (1-x)^k * T(x) vanishing at 0 and 1.

    ``t_coeffs`` are the ascending coefficients of the low-degree factor T.
    Optional sup/derivative bounds are re-verified on a grid at construction.
    """

    c: float
    stage: int
    k: int = 1
    t_coeffs: Tuple[float, ...] = (1.0,)
    sup_bound: Optional[float] = None
    deriv_bound: Optional[float] = None

    def __post_init__(self):
        _finite("bump coefficients", self.c, *self.t_coeffs)
        if self.stage < 1:
            raise ValueError("bump stage must be >= 1")
        if self.k < 1:
            raise ValueError("shape exponent must be >= 1")
        if self.sup_bound is not None or self.deriv_bound is not None:
            xs = _grid(Manifold.INTERVAL, DEFAULT_GRID)
            if self.sup_bound is not None and np.max(np.abs(self.values(xs))) >= self.sup_bound:
                raise InvariantBreach(f"bump stage {self.stage}: sup bound violated")
            if self.deriv_bound is not None and np.max(np.abs(self.deriv_values(xs))) >= self.deriv_bound:
                raise InvariantBreach(f"bump stage {self.stage}: derivative bound violated")

    @property
    def coeffs(self) -> Tuple[float, ...]:
        return _bump_coeffs(self.c, self.k, self.t_coeffs)

    @cached_property
    def dcoeffs(self) -> Tuple[float, ...]:
        return _derivative(self.coeffs)

    def values(self, xs):
        return _polyval(self.coeffs, xs)

    def deriv_values(self, xs):
        return _polyval(self.dcoeffs, xs)


@lru_cache(maxsize=None)
def _bump_coeffs(c: float, k: int, t_coeffs: Tuple[float, ...]) -> Tuple[float, ...]:
    P = np.polynomial.polynomial
    shape = P.polypow((0.0, 1.0), k)          # x^k
    shape = P.polymul(shape, P.polypow((1.0, -1.0), k))  # (1-x)^k
    return tuple(float(v) for v in c * P.polymul(shape, t_coeffs))


# Plain-float forms of numpy.polynomial's polyval, polyder and polyadd, with
# their float operations in their order, so every result is bitwise theirs.


def _polyval(cs: Sequence[float], x):
    """The polynomial of ascending coefficients ``cs`` at x, by Horner's rule
    from ``cs[-1] + x * 0``."""
    acc = cs[-1] + x * 0
    for c in cs[-2::-1]:
        acc = c + acc * x
    return acc


def _derivative(cs: Sequence[float]) -> Tuple[float, ...]:
    """The coefficients j cs[j] of the derivative, or (cs[0] * 0,) for a
    constant."""
    return tuple(j * c for j, c in enumerate(cs) if j) or (cs[0] * 0,)


def _trimmed(cs: Sequence[float]) -> Sequence[float]:
    """``cs`` without its trailing zeros, keeping at least one coefficient."""
    n = len(cs)
    while n > 1 and cs[n - 1] == 0:
        n -= 1
    return cs[:n]


def _sum(c1: Sequence[float], c2: Sequence[float]) -> Tuple[float, ...]:
    """The trimmed sum of two trimmed coefficient sequences, each overlapping
    coefficient of the longer one (of c2 at equal lengths) added first."""
    c1, c2 = _trimmed(c1), _trimmed(c2)
    short, long = (c2, c1) if len(c1) > len(c2) else (c1, c2)
    return _trimmed(tuple(b + a for a, b in zip(short, long)) + tuple(long[len(short):]))


@dataclass(frozen=True)
class BumpTrig:
    """Periodic bump c * sin(2 pi x + phase) for perturbed circle lifts."""

    c: float
    stage: int
    phase: float = 0.0
    sup_bound: Optional[float] = None
    deriv_bound: Optional[float] = None

    def __post_init__(self):
        _finite("trig bump amplitude and phase", self.c, self.phase)
        if self.stage < 1:
            raise ValueError("bump stage must be >= 1")
        if self.sup_bound is not None and abs(self.c) >= self.sup_bound:
            raise InvariantBreach(f"trig bump stage {self.stage}: sup bound violated")
        if self.deriv_bound is not None and abs(self.c) * 2 * math.pi >= self.deriv_bound:
            raise InvariantBreach(f"trig bump stage {self.stage}: derivative bound violated")


# ---------------------------------------------------------------------------
# expression nodes


Letters = Tuple[Tuple["DiffeoExpr", int], ...]


class DiffeoExpr:
    """Base class: an orientation-preserving analytic map of one 1-manifold.

    Every expression is the flat sequence of its ``letters``, (leaf, +-1)
    pairs applied right to left, a negative sign meaning the leaf's inverse:
    a leaf is its own single letter, and ``Compose``, ``Inverse`` and
    ``Power`` are evaluated through their letters only.  Leaves implement
    ``_raw`` / ``_draw`` on the model domain ([0,1] for I, the lift for
    S^1, all of R for the line).  Both accept a float or a float64 ndarray;
    on an ndarray they compute, element by element, the same float
    operations in the same order as on a float.  ``KIND`` names the node in
    the JSON format (``serialize.NODES``); a class that fixes its manifold
    states it as the class attribute ``manifold``.
    """

    KIND: str
    manifold: Manifold

    @property
    def letters(self) -> Letters:
        return ((self, 1),)

    def _raw(self, x: float) -> float:
        raise NotImplementedError

    def _draw(self, x: float) -> float:
        raise NotImplementedError

    def _shift_bound(self) -> Optional[float]:
        """None, or a bound s >= |e(x) - x| on the computed value of e at
        every |x| < 2^41, its rounding included: ``_solve_increasing_array``
        then proves its bracket ends without evaluating them."""
        return None

    def _inv_raw(self, y: float) -> float:
        """Invert via guaranteed-bracketing monotone root search.

        Perturbed maps use this; Möbius, rotation and translation maps
        override it with their closed-form inverses, and composites apply
        their inverted letters.  An ndarray is inverted elementwise by
        ``_solve_increasing_array``.
        """
        if isinstance(y, np.ndarray):
            return _solve_increasing_array(self, y)
        return _solve_increasing(self, y)


@dataclass(frozen=True)
class Identity(DiffeoExpr):
    KIND = "identity"
    manifold: Manifold

    def _raw(self, x):
        return x

    def _draw(self, x):
        return 1.0

    def _inv_raw(self, y):
        return y


@dataclass(frozen=True)
class MobiusI(DiffeoExpr):
    """x -> alpha x / ((alpha - 1) x + 1) on [0,1]; fixes 0 and 1 exactly."""

    KIND = "mobius"
    manifold = Manifold.INTERVAL
    alpha: float

    def __post_init__(self):
        _finite("Mobius parameter", self.alpha)
        if not self.alpha > 0:
            raise ValueError("Mobius parameter must be positive")

    def _raw(self, x):
        return self.alpha * x / ((self.alpha - 1.0) * x + 1.0)

    def _draw(self, x):
        den = (self.alpha - 1.0) * x + 1.0
        return self.alpha / (den * den)

    def _inv_raw(self, y):
        return y / (self.alpha - (self.alpha - 1.0) * y)


@dataclass(frozen=True)
class RotationS1(DiffeoExpr):
    """Rotation by ``theta`` radians; lift x -> x + theta / 2 pi."""

    KIND = "rotation"
    manifold = Manifold.CIRCLE
    theta: float

    def __post_init__(self):
        _finite("rotation angle", self.theta)

    def _raw(self, x):
        return x + self.theta / (2 * math.pi)

    def _draw(self, x):
        return 1.0

    def _inv_raw(self, y):
        return y - self.theta / (2 * math.pi)


@dataclass(frozen=True)
class SineShear(DiffeoExpr):
    """x -> sin(a x) / 2 + x on the line (monotone for |a| <= 2)."""

    KIND = "sine_shear"
    manifold = Manifold.LINE
    a: float

    def __post_init__(self):
        _finite("sine-shear parameter", self.a)
        if self.a == 0:
            raise ValueError("sine-shear parameter must be nonzero")

    def _raw(self, x):
        sin = np.sin if isinstance(x, np.ndarray) else math.sin
        return 0.5 * sin(self.a * x) + x

    def _draw(self, x):
        cos = np.cos if isinstance(x, np.ndarray) else math.cos
        return 0.5 * self.a * cos(self.a * x) + 1.0

    def _shift_bound(self):
        # for |a| <= 2, a x is finite at every |x| < 2^41, so |0.5 sin| <=
        # 0.5; the one addition rounds by at most 2^-13
        return 0.5 + _ROUNDING if abs(self.a) <= 2 else None


@dataclass(frozen=True)
class Translation(DiffeoExpr):
    KIND = "translation"
    manifold = Manifold.LINE
    c: float

    def __post_init__(self):
        _finite("translation", self.c)

    def _raw(self, x):
        return x + self.c

    def _draw(self, x):
        return 1.0

    def _inv_raw(self, y):
        return y - self.c


@dataclass(frozen=True)
class PerturbedF(DiffeoExpr):
    """Identity plus a finite schedule of polynomial bumps on [0,1].

    Strict monotonicity is certified by ``_draw`` > 0 on the ``grid_n``
    grid at construction; there is no closed-form inverse.
    """

    KIND = "perturbed"
    manifold = Manifold.INTERVAL
    bumps: Tuple[BumpPoly, ...] = ()
    grid_n: InitVar[int] = DEFAULT_GRID
    _coeffs: Tuple[float, ...] = field(init=False, repr=False, compare=False)
    _dcoeffs: Tuple[float, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self, grid_n):
        object.__setattr__(self, "bumps", tuple(self.bumps))
        coeffs = (0.0, 1.0)
        for b in self.bumps:
            coeffs = _sum(coeffs, b.coeffs)
        object.__setattr__(self, "_coeffs", coeffs)
        object.__setattr__(self, "_dcoeffs", _derivative(coeffs))
        dmin = float(np.min(self._draw(_grid(self.manifold, grid_n))))
        if dmin <= 0:
            raise InvariantBreach(f"perturbed map not increasing (min grid derivative {dmin})")

    def _raw(self, x):
        acc = 0.0
        for c in reversed(self._coeffs):
            acc = acc * x + c
        return acc

    def _draw(self, x):
        acc = 0.0
        for c in reversed(self._dcoeffs):
            acc = acc * x + c
        return acc


@dataclass(frozen=True)
class PerturbedLiftS1(DiffeoExpr):
    """Degree-one circle lift: identity plus periodic trigonometric bumps,
    checked increasing like ``PerturbedF``."""

    KIND = "perturbed_lift"
    manifold = Manifold.CIRCLE
    bumps: Tuple[BumpTrig, ...] = ()
    grid_n: InitVar[int] = DEFAULT_GRID

    def __post_init__(self, grid_n):
        object.__setattr__(self, "bumps", tuple(self.bumps))
        if float(np.min(self._draw(_grid(self.manifold, grid_n)))) <= 0:
            raise InvariantBreach("perturbed lift not increasing on grid")

    def _raw(self, x):
        # math.sin on floats keeps the scalar path fast; np.sin agrees with
        # it bitwise on the platforms tested (tests/test_diffeo.py)
        sin = np.sin if isinstance(x, np.ndarray) else math.sin
        y = x
        for b in self.bumps:
            y = y + b.c * sin(2 * math.pi * x + b.phase)
        return y

    def _draw(self, x):
        cos = np.cos if isinstance(x, np.ndarray) else math.cos
        d = 1.0
        for b in self.bumps:
            d = d + b.c * 2 * math.pi * cos(2 * math.pi * x + b.phase)
        return d

    def _shift_bound(self):
        # |c sin| <= |c|, and each addition rounds by at most 2^-13
        return sum(abs(b.c) for b in self.bumps) + len(self.bumps) * _ROUNDING


def _invert(letters: Letters) -> Letters:
    """The letters of the inverse map: reversed, with their signs flipped."""
    return tuple((e, -s) for e, s in reversed(letters))


class _Composite(DiffeoExpr):
    """A composite node, evaluated as its flat letter sequence: the value
    and the inverse apply the letters, the derivative is the chain rule
    over them."""

    def _raw(self, x):
        return apply_letters(self.letters, x)

    def _inv_raw(self, y):
        return apply_letters(_invert(self.letters), y)

    def _draw(self, x):
        d = 1.0
        for e, s in reversed(self.letters):
            if s > 0:
                d *= e._draw(x)
                x = e._raw(x)
            else:
                x = e._inv_raw(x)
                di = e._draw(x)
                if np.any(di <= 0):
                    raise InvariantBreach(f"non-positive derivative at preimage {x}")
                d /= di
        return d


@dataclass(frozen=True)
class Compose(_Composite):
    """Compose(parts) applies parts right to left: parts[0] o ... o parts[-1]."""

    KIND = "compose"
    parts: Tuple[DiffeoExpr, ...]

    def __post_init__(self):
        if not self.parts:
            raise ValueError("empty composition")
        tags = {p.manifold for p in self.parts}
        if len(tags) != 1:
            raise TagMismatchError(f"mixed manifold tags in composition: {tags}")

    @property
    def manifold(self):
        return self.parts[0].manifold

    @cached_property
    def letters(self) -> Letters:
        return tuple(l for p in self.parts for l in p.letters)


@dataclass(frozen=True)
class Inverse(_Composite):
    KIND = "inverse"
    inner: DiffeoExpr

    @property
    def manifold(self):
        return self.inner.manifold

    @cached_property
    def letters(self) -> Letters:
        return _invert(self.inner.letters)


@dataclass(frozen=True)
class Power(_Composite):
    KIND = "power"
    inner: DiffeoExpr
    exponent: int

    @property
    def manifold(self):
        return self.inner.manifold

    @cached_property
    def letters(self) -> Letters:
        base = self.inner.letters if self.exponent >= 0 else _invert(self.inner.letters)
        return base * abs(self.exponent)


# ---------------------------------------------------------------------------
# monotone inversion


def _non_finite_target(e: DiffeoExpr, y: float) -> InversionError:
    """The error of both solvers for a target of a line or lift map that is
    infinite or NaN, raised before e is evaluated."""
    return InversionError(f"non-finite target {y} for {e.KIND}")


def _solve_increasing(e: DiffeoExpr, y: float) -> float:
    if e.manifold is Manifold.INTERVAL:
        lo, hi = 0.0, 1.0
        flo, fhi = e._raw(lo) - y, e._raw(hi) - y
        # a map of I fixes 0 and 1, but its rounded value there may miss a
        # target in [0, 1] by an ulp; the endpoint is then the preimage.  A
        # NaN target fails both tests
        if not (flo <= 0 and fhi >= 0) and not 0.0 <= y <= 1.0:
            raise InversionError(f"target {y} outside range of {e.KIND} on [0,1]")
    else:
        if not math.isfinite(y):
            raise _non_finite_target(e, y)
        # expanding bracket around y (lift / line maps are near-translations)
        lo, flo = _expand(e, y, False)
        hi, fhi = _expand(e, y, True)
    if flo >= 0.0:
        return lo
    if fhi <= 0.0:
        return hi

    scale = max(1.0, abs(y))
    x = min(max(y, lo), hi)  # good first guess for near-identity maps
    for _ in range(INVERSION_MAX_ITER):
        fx = e._raw(x) - y
        if fx == 0.0:
            return x
        if fx > 0:
            hi = x
        else:
            lo = x
        if hi - lo <= 4e-16 * max(1.0, abs(lo), abs(hi)) and abs(fx) <= INVERSION_TOL * scale:
            return x
        xn = None
        d = e._draw(x)
        if d > 0:
            cand = x - fx / d
            if lo < cand < hi:
                xn = cand
        x = xn if xn is not None else 0.5 * (lo + hi)
    if abs(e._raw(x) - y) > 1e-9 * scale:
        raise InversionError(
            f"inversion of {e.KIND} did not converge at y={y} (non-monotone expression?)"
        )
    return x


def _expand(e: DiffeoExpr, y: float, upper: bool) -> Tuple[float, float]:
    """The bracket end b above (``upper``) or below y of a map of a line or
    lift, from y +- 1 in steps doubling from 1, and its residual e(b) - y."""
    b, step = (y + 1.0 if upper else y - 1.0), 1.0
    for _ in range(64):
        r = e._raw(b) - y
        if (r >= 0) if upper else (r <= 0):
            return b, r
        b = b + step if upper else b - step
        step *= 2
    raise InversionError(f"bracket expansion failed ({'upper' if upper else 'lower'})")


def _expand_array(e: DiffeoExpr, y: np.ndarray, upper: bool) -> Tuple[np.ndarray, np.ndarray]:
    """``_expand`` for every element of y.

    Returns (b, r): the final bracket end b of each element and its residual
    r = e(b) - y.  The first test runs on the whole array; later ones only on
    the elements still expanding, which after t steps all use the step 2^t,
    so one scalar step serves them all.
    """
    b = y + 1.0 if upper else y - 1.0
    r = e._raw(b) - y
    todo = np.flatnonzero(~(r >= 0) if upper else ~(r <= 0))
    step = 1.0
    for _ in range(63):  # with the test above, the scalar solver's 64
        if not todo.size:
            break
        b[todo] = b[todo] + step if upper else b[todo] - step
        step *= 2
        rt = e._raw(b[todo]) - y[todo]
        r[todo] = rt
        todo = todo[~(rt >= 0) if upper else ~(rt <= 0)]
    if todo.size:
        raise InversionError(f"bracket expansion failed ({'upper' if upper else 'lower'})")
    return b, r


def _solve_increasing_array(e: DiffeoExpr, y: np.ndarray) -> np.ndarray:
    """``_solve_increasing`` for every element of a float64 array at once.

    Each element takes the scalar solver's steps with the same float
    operations on the same operands, so each result is bitwise the scalar
    solver's.  The bracket and its end residuals come first: ``[0, 1]`` on
    I, where e(0) and e(1) are evaluated once for all elements; else
    ``_expand_array``, which evaluates e once per element at each end.  An
    element at a bracket end returns it, the others start from y clipped to
    the bracket.

    A map of a line or lift that declares a shift bound s (``_shift_bound``,
    rounding included) skips the bracket ends when every target has
    |y| <= 2^40 and s + 2^-12 < 1.  The scalar solver's first ends are then
    y - 1.0 and y + 1.0, each rounded by at most 2^-13, so
    e(y - 1.0) - y <= -1 + 2^-13 + s < 0, and likewise e(y + 1.0) - y > 0:
    each expansion stops at its first test, and neither end is the
    preimage.  So the bracket is set to [y - 1.0, y + 1.0] with no
    evaluation of e.  Any other array (a larger target, a map without a
    bound, a larger s) goes through ``_expand_array``.  A non-finite target
    of a line or lift map raises InversionError before e is evaluated, at
    every size, with the scalar solver's message.

    Each iteration then runs on the active elements only:

    1. fx = e(x) - y, and x replaces hi where fx > 0, else lo, in place;
    2. the stopping test: only elements with |fx| <= tol (tol = 1e-14
       max(1, |y|), computed once) can stop, so the bracket width is
       tested only if some element passes that test;
    3. if some element stopped, its x is stored and the active arrays are
       compacted, with one index array and a ``take`` per array;
    4. x - fx / e'(x) for every element, replaced by the bisection midpoint
       on the few elements whose derivative is not positive or whose Newton
       step leaves the open bracket.

    Arrays of at most ``SCALAR_SOLVE_MAX`` elements run the scalar solver
    element by element.  Raises InversionError if any element fails.
    """
    y = np.asarray(y, dtype=float)
    if e.manifold is not Manifold.INTERVAL:
        top = np.abs(y).max(initial=0.0)  # NaN if some target is
        if not top < math.inf:
            raise _non_finite_target(e, y[~np.isfinite(y)][0])
    if y.size <= SCALAR_SOLVE_MAX:
        return np.array([_solve_increasing(e, v) for v in y.tolist()])
    if e.manifold is Manifold.INTERVAL:
        lo, hi = np.zeros_like(y), np.ones_like(y)
        e0, e1 = e._raw(np.array([0.0, 1.0]))
        flo, fhi = e0 - y, e1 - y
        bad = ~((flo <= 0) & (fhi >= 0)) & ~((0.0 <= y) & (y <= 1.0))
        if np.any(bad):
            raise InversionError(
                f"target {y[bad][0]} outside range of {e.KIND} on [0,1]"
            )
    else:
        s = e._shift_bound()
        if s is not None and s + _ROUNDING < 1.0 and top <= PROVEN_TARGET_MAX:
            lo, hi = y - 1.0, y + 1.0
            flo = fhi = None
        else:
            (lo, flo), (hi, fhi) = _expand_array(e, y, False), _expand_array(e, y, True)

    x = np.minimum(np.maximum(y, lo), hi)  # good first guess for near-identity maps
    idx = np.arange(y.size)  # no element is at a proven bracket's end
    if flo is not None:
        at_hi = fhi <= 0.0
        at_lo = flo >= 0.0
        x[at_hi] = hi[at_hi]
        x[at_lo] = lo[at_lo]  # the scalar solver tests the lower end first
        idx = np.flatnonzero(~(at_lo | at_hi))
    xa, ya = x, y  # compacted only if some element is at a bracket end
    if idx.size < y.size:
        if not idx.size:
            return x
        xa, lo, hi, ya = x.take(idx), lo.take(idx), hi.take(idx), y.take(idx)
    tol = INVERSION_TOL * np.maximum(1.0, np.abs(ya))
    # a zero derivative gives a non-finite Newton step, which then bisects
    with np.errstate(divide="ignore", invalid="ignore"):
        for _ in range(INVERSION_MAX_ITER):
            fx = e._raw(xa) - ya
            up = fx > 0
            np.copyto(hi, xa, where=up)
            np.copyto(lo, xa, where=~up)
            stop = np.abs(fx) <= tol
            if stop.any():
                stop &= (fx == 0.0) | (
                    hi - lo <= 4e-16 * np.maximum(np.maximum(1.0, np.abs(lo)), np.abs(hi))
                )
                done = np.flatnonzero(stop)
                if done.size:
                    x[idx.take(done)] = xa.take(done)
                    if done.size == idx.size:
                        return x
                    keep = np.flatnonzero(~stop)
                    idx, xa, lo, hi, ya, tol, fx = (
                        a.take(keep) for a in (idx, xa, lo, hi, ya, tol, fx)
                    )
            d = e._draw(xa)
            xn = xa - fx / d
            ok = lo < xn
            ok &= xn < hi
            ok &= d > 0
            if not ok.all():
                out = np.flatnonzero(~ok)
                xn[out] = 0.5 * (lo.take(out) + hi.take(out))
            xa = xn
    x[idx] = xa
    bad = np.abs(e._raw(xa) - ya) > 1e-9 * np.maximum(1.0, np.abs(ya))
    if np.any(bad):
        raise InversionError(
            f"inversion of {e.KIND} did not converge at y={ya[bad][0]} "
            "(non-monotone expression?)"
        )
    return x


# ---------------------------------------------------------------------------
# public operations


def _check_domain(e: DiffeoExpr, x: float) -> float:
    if not math.isfinite(x):
        raise DomainError(f"non-finite point {x}")
    if e.manifold is Manifold.INTERVAL:
        if x < -1e-12 or x > 1 + 1e-12:
            raise DomainError(f"{x} outside [0,1]")
        return min(max(x, 0.0), 1.0)
    if e.manifold is Manifold.CIRCLE:
        return x % 1.0
    return x


def evaluate(e: DiffeoExpr, x: float) -> float:
    """Evaluate ``e`` at ``x`` in the manifold's model domain.

    Möbius, rotation and translation maps invert in closed form; perturbed
    maps invert by bracketed monotone root search (tolerance 1e-14).  The
    result lies in the same model domain.  Grid checks (commutator and
    identity residuals, fixed points) evaluate all grid points in one array
    pass instead, where perturbed maps invert by a vectorised bracketed
    Newton search that takes the scalar search's steps element by element.
    """
    x = _check_domain(e, x)
    y = e._raw(x)
    if e.manifold is Manifold.INTERVAL:
        return min(max(y, 0.0), 1.0)
    if e.manifold is Manifold.CIRCLE:
        return y % 1.0
    return y


def lift_evaluate(e: DiffeoExpr, x: float) -> float:
    """Evaluate the degree-one lift of a circle expression (no mod-1 reduction)."""
    if e.manifold is not Manifold.CIRCLE:
        raise TagMismatchError("lift evaluation is for circle expressions")
    return e._raw(x)


def derivative(e: DiffeoExpr, x: float) -> float:
    """Derivative of ``e`` at ``x`` by the chain rule over its letters."""
    x = _check_domain(e, x)
    d = e._draw(x)
    if d <= 0:
        raise InvariantBreach(f"derivative {d} <= 0 at x={x} for {e.KIND}")
    return d


def point_distance(m: Manifold, u, v):
    """Distance between two points of the manifold (lifted circle distance).

    Elementwise when ``u`` or ``v`` is an ndarray.
    """
    d = abs(u - v)
    if m is Manifold.CIRCLE:
        d = d % 1.0
        return np.minimum(d, 1.0 - d) if isinstance(d, np.ndarray) else min(d, 1.0 - d)
    return d


@dataclass(frozen=True)
class FixedPointSet:
    """Approximate fixed points of a map, with per-point transversality flags."""

    points: Tuple[float, ...]
    flags: Tuple[str, ...]  # "transverse" | "tangency-suspect"
    residual_tol: float
    interval_signs: Tuple[int, ...]  # sign of f - id on complementary intervals
    degenerate: bool  # |f - id| < tol on the whole grid
    grid_n: int


def _grid(m: Manifold, grid_n: int, domain=None) -> np.ndarray:
    """The grid_n + 1 evenly spaced points of [0, 1] (I, and the lift of
    S^1 over one turn) or, on the line, of ``domain`` = (lo, hi), which must
    be finite with lo < hi.  The grid of [0, 1] is one cached read-only
    array per grid_n, shared by I and S^1; a line grid is built per call."""
    if m is not Manifold.LINE:
        return _unit_grid(grid_n)
    if domain is None:
        raise DomainError("line expressions need an explicit (lo, hi) domain")
    lo, hi = domain
    if not (math.isfinite(lo) and math.isfinite(hi) and lo < hi):
        raise DomainError(f"line domain ({lo}, {hi}) is not finite with lo < hi")
    return np.linspace(lo, hi, grid_n + 1)


@lru_cache(maxsize=8)
def _unit_grid(grid_n: int) -> np.ndarray:
    xs = np.linspace(0.0, 1.0, grid_n + 1)
    xs.flags.writeable = False
    return xs


def fixed_points(
    e: DiffeoExpr,
    grid_n: int = DEFAULT_GRID,
    tol: float = 1e-10,
    domain=None,
) -> FixedPointSet:
    """Locate fixed points by grid sign changes of f - id refined by bisection;
    on the circle, of F - id - n for each integer n between the grid's
    extremes of F - id, reduced mod 1, a point just below 1 merging with
    the first point as its neighbours merge.

    Near-tangencies (small residual on a grid cell without a sign change)
    are flagged, never dropped.  An everywhere-small residual yields a
    degenerate, flagged-everywhere result.
    """
    if grid_n < 2:
        raise ValueError("grid_n must be >= 2")
    m = e.manifold
    xs = _grid(m, grid_n, domain)

    # on the circle, roots of F(x) - x - n for every integer n that F(x) - x
    # reaches; elsewhere n = 0 only, whose subtraction changes no bit
    circle = m is Manifold.CIRCLE
    rs = e._raw(xs) - xs
    if float(np.max(np.abs(rs - np.round(rs) if circle else rs))) < tol:
        return FixedPointSet(tuple(xs), ("tangency-suspect",) * len(xs), tol, (), True, grid_n)
    shifts = range(math.floor(rs.min()), math.ceil(rs.max()) + 1) if circle else (0,)
    found = []
    for n in shifts:
        found.extend(_roots_on_grid(lambda x: e._raw(x) - x - n, xs, rs - n, tol))
    if circle:
        found = [(p % 1.0, fl) for p, fl in found]
    found.sort()
    pts, flags = _dedup(found, tol)
    if circle and len(pts) > 1 and pts[0] + 1.0 - pts[-1] <= max(tol, 1e-9):
        # the last point is the first one across the ends of the turn
        pts.pop()
        if flags.pop() == "transverse":
            flags[0] = "transverse"
    # the sign of f - id strictly between consecutive fixed points, off the circle
    mids = () if circle else (0.5 * (a + b) for a, b in zip(pts, pts[1:]))
    rs_mid = (e._raw(q) - q for q in mids)
    signs = tuple(0 if abs(r) < tol else (1 if r > 0 else -1) for r in rs_mid)
    return FixedPointSet(tuple(pts), tuple(flags), tol, signs, False, grid_n)


def _roots_on_grid(f, xs, vals, tol):
    """Roots of ``f`` on the grid cells of ``xs``, where ``vals`` = f(xs).

    Only the cells with a zero at the left end, a sign change or a small
    value at an end are visited; bisection refines the sign changes.
    """
    out = []
    left, right = vals[:-1], vals[1:]
    near = ((left == 0.0) | (left * right < 0)
            | (np.minimum(np.abs(left), np.abs(right)) < tol))
    for i in np.flatnonzero(near):
        a, b = xs[i], xs[i + 1]
        fa, fb = vals[i], vals[i + 1]
        if fa == 0.0:
            out.append((a, "transverse"))
            continue
        if fa * fb < 0:
            for _ in range(200):
                mid = 0.5 * (a + b)
                fm = f(mid)
                if fm == 0.0 or b - a < tol:
                    break
                if fa * fm < 0:
                    b, fb = mid, fm
                else:
                    a, fa = mid, fm
            out.append((0.5 * (a + b), "transverse"))
        elif min(abs(fa), abs(fb)) < tol:
            # near-tangency without sign change: flag the closer endpoint
            out.append((a if abs(fa) <= abs(fb) else b, "tangency-suspect"))
    last = xs[-1]
    if vals[-1] == 0.0:
        out.append((last, "transverse"))
    return out


def _dedup(found, tol):
    pts, flags = [], []
    for p, fl in found:
        if pts and abs(p - pts[-1]) <= max(tol, 1e-9):
            if fl == "transverse" and flags[-1] != "transverse":
                flags[-1] = "transverse"
            continue
        pts.append(float(p))
        flags.append(fl)
    return pts, flags


def apply_letters(letters: Sequence[Tuple[DiffeoExpr, int]], x):
    """Apply the letters ``[(expr, sign), ...]`` to ``x`` (a float or an
    array), right to left, on lifts for the circle: ``_raw`` for a positive
    sign, ``_inv_raw`` for a negative one."""
    for e, s in reversed(letters):
        x = e._raw(x) if s > 0 else e._inv_raw(x)
    return x


# values one letter is applied to at a time: this bounds the working arrays
# of a monotone inversion, which run faster while they stay in cache
_APPLY_ELEMENTS = 1 << 13


def _walk(levels: Sequence[Tuple[Optional[np.ndarray], List[int], Sequence[int]]],
          exprs: Sequence[DiffeoExpr], xs: np.ndarray):
    """Yield, level by level, the values at the points ``xs`` of the words of
    ``levels``, each given as the ``parent`` array and the ``bounds`` list of
    a ``synthesis._Level`` and a ``tail`` of letters: one row of ``xs.size``
    values per word.  A ``parent`` of None stands for each word of the level
    below, in order.

    ``value(l w) = l(value(w))``: letter i is ``exprs[i // 2]``, inverted
    for odd i, applied once per level to the values of all the words it
    precedes, as flat arrays of at most ``_APPLY_ELEMENTS`` values (or one
    word).  The letters of a level's ``tail``, only ever given to a level of
    one word, then apply to that word in order.  The float operations of
    each element are those of ``apply_letters``, so every value is bitwise
    its result.
    """
    width, vals = xs.size, xs.reshape(1, -1)
    step = max(1, _APPLY_ELEMENTS // width)
    for parent, bounds, tail in levels:
        parts = []
        for i, (lo, hi) in enumerate(zip(bounds, bounds[1:])):
            for start in range(lo, hi, step):
                rows = slice(start, min(start + step, hi))
                v = (vals[rows] if parent is None else np.take(vals, parent[rows], 0)).ravel()
                parts.append(exprs[i // 2]._inv_raw(v) if i % 2 else exprs[i // 2]._raw(v))
        v = np.concatenate(parts) if len(parts) > 1 else parts[0]
        for i in tail:
            v = exprs[i // 2]._inv_raw(v) if i % 2 else exprs[i // 2]._raw(v)
        vals = v.reshape(-1, width)
        yield vals


_WALK_ELEMENTS = 1 << 20  # grid values held per level of one grid-sup walk


def _trie(seqs: Sequence[Sequence[int]], n_letters: int):
    """The radix trie of the letter sequences ``seqs``, each in the order
    its letters apply: for each level, its (parent, bounds, tail) as in
    ``_walk``, and the sequences that end there with their words.

    Level L of the plain trie holds the distinct prefixes of L + 1 letters,
    as the words ``l w`` of a last letter l over a prefix w of level L - 1,
    numbered by l, then w.  A level of one word over a level of one word at
    which no sequence ends is merged into that level, its letter appended to
    the ``tail``: a chain of one-word levels is walked as one level.
    """
    tables: List[Dict[Tuple[int, int], int]] = [{} for _ in range(max(map(len, seqs)))]
    ends: List[Tuple[List[int], List[int]]] = [([], []) for _ in tables]
    for k, seq in enumerate(seqs):
        w = 0  # words are numbered in order of insertion until renumbered below
        for table, letter in zip(tables, seq):
            w = table.setdefault((letter, w), len(table))
        ends[len(seq) - 1][0].append(k)
        ends[len(seq) - 1][1].append(w)
    levels, level_ends, ids = [], [], [0]
    for table, end in zip(tables, ends):
        if len(table) == 1 and len(ids) == 1 and levels and not level_ends[-1][0]:
            # its one word is the one word below extended by one letter: each
            # word ending here is word 0, as numbered
            ((letter, _),) = table
            levels[-1][2].append(letter)
            level_ends[-1] = end
            continue
        words = sorted((letter, ids[w], v) for (letter, w), v in table.items())
        below, ids, counts = len(ids), [0] * len(words), [0] * (n_letters + 1)
        for j, (letter, _, v) in enumerate(words):
            ids[v] = j
            counts[letter + 1] += 1
        end[1][:] = [ids[v] for v in end[1]]
        parent = [w for _, w, _ in words]
        # a level extending each word below once, in order, is a path: None
        levels.append((None if parent == list(range(below)) else np.array(parent),
                       list(accumulate(counts)), []))
        level_ends.append(end)
    return levels, level_ends


def grid_sups(exprs: Sequence[DiffeoExpr], grid_n: int = DEFAULT_GRID,
              domain=None) -> List[Tuple[float, float]]:
    """(x, r) for each expression e: the first grid point maximizing
    r = dist(e(x), x), circle distances being lifted angular distances.

    Each expression is its letter sequence, taken in the order its letters
    apply; the distinct leaves, in order of first use, index them as in
    ``_walk``, equal leaves being one even as separate objects (read from
    separate documents, say).  The sequences share their first letters
    across expressions, so all of them are one radix trie (``_trie``),
    walked over the grid, and each value is bitwise
    ``apply_letters(e.letters, xs)``.  A level holds
    at most one word per sequence, so the expressions are walked in runs of
    as many as keep a level within ``_WALK_ELEMENTS`` values.  An
    expression without letters is the identity: (xs[0], 0.0).
    """
    if not exprs:
        return []
    tags = {e.manifold for e in exprs}
    if len(tags) != 1:
        raise TagMismatchError(f"mixed manifold tags: {tags}")
    m = exprs[0].manifold
    xs = _grid(m, grid_n, domain)
    # a perturbed map's hash covers its bumps: each leaf object is hashed
    # once, and each letter finds its index by its object
    objects = {id(leaf): leaf for e in exprs for leaf, _ in reversed(e.letters)}
    index: Dict[DiffeoExpr, int] = {}
    by_id = {k: index.setdefault(leaf, len(index)) for k, leaf in objects.items()}
    seqs = [[2 * by_id[id(leaf)] + (s < 0) for leaf, s in reversed(e.letters)] for e in exprs]
    leaf_exprs = list(index)
    sups = [(float(xs[0]), 0.0)] * len(seqs)
    walked = [k for k, seq in enumerate(seqs) if seq]
    run = max(1, _WALK_ELEMENTS // xs.size)
    for start in range(0, len(walked), run):
        ks = walked[start:start + run]
        levels, ends = _trie([seqs[k] for k in ks], 2 * len(leaf_exprs))
        for vals, (done, words) in zip(_walk(levels, leaf_exprs, xs), ends):
            if done:
                d = point_distance(m, vals[words], xs)
                i = np.argmax(d, axis=1)
                for k, x, r in zip(done, xs[i].tolist(), d[np.arange(i.size), i].tolist()):
                    sups[ks[k]] = (x, r)
    return sups


def commutator(a: DiffeoExpr, b: DiffeoExpr) -> Compose:
    """[a, b] = a b a^-1 b^-1."""
    return Compose((a, b, Inverse(a), Inverse(b)))


def commutator_residual(
    e1: DiffeoExpr,
    e2: DiffeoExpr,
    grid_n: int = DEFAULT_GRID,
    domain=None,
) -> float:
    """Grid sup of |[e1, e2](x) - x| with [e1, e2] = e1 e2 e1^-1 e2^-1.

    Zero at working precision iff the two maps commute; circle residuals are
    lifted angular distances.  A ``grid_sups`` call of one commutator.
    """
    return commutator_witness(e1, e2, grid_n, domain)[1]


def commutator_witness(
    e1: DiffeoExpr,
    e2: DiffeoExpr,
    grid_n: int = DEFAULT_GRID,
    domain=None,
) -> Tuple[float, float]:
    """(x, residual) maximizing the commutator residual over the grid."""
    return grid_sups([commutator(e1, e2)], grid_n, domain)[0]


Word = Sequence[Tuple[str, int]]


def word_evaluate(word: Word, assignment: Mapping[str, DiffeoExpr], x: float) -> float:
    """Apply a word over named generators to ``x``, right to left.

    ``word`` is a sequence of (name, exponent) pairs, assumed freely reduced.
    Negative exponents invert in closed form for Möbius, rotation and
    translation maps, and by monotone root search for perturbed maps.
    """
    if not word:
        return x
    for name, _ in word:
        if name not in assignment:
            raise KeyError(f"unassigned generator name {name!r}")
    return evaluate(Compose(tuple(Power(assignment[name], k) for name, k in word)), x)
