"""Constructive embeddings: alpha sequences, word schedules, the perturbation
recursion building f, generator assembly h_{i,n} = f^i g_n f^-i, and the
verification of a finished assignment.

The recursion walks the word schedule in order; each stage either certifies
that the current word already moves the basepoint (zero bump) or adds one
small polynomial bump chosen so that the sup/derivative budgets of the stage
hold on a verification grid.  Tolerances eps_m are derived from an explicit
Lipschitz bound and protect all earlier margins against later bumps.  The
schedule is held as per-level arrays (``_Schedule``) and the stages between
two bumps are settled in one numpy pass.  The level walk of
``diffeo._walk`` evaluates the schedule's words at the basepoint;
verification takes the grid sups of its commutators from
``diffeo.grid_sups``, the same walk over the trie of their letter sequences.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import partial
from itertools import chain, compress
from typing import ClassVar, Dict, List, NamedTuple, Optional, Sequence, Tuple, Union

import numpy as np

from .diffeo import (
    DEFAULT_GRID,
    BumpPoly,
    BumpTrig,
    Compose,
    DiffeoExpr,
    Identity,
    Manifold,
    MobiusI,
    PerturbedF,
    PerturbedLiftS1,
    Power,
    RotationS1,
    _grid,
    _walk,
    apply_letters,
    commutator,
    # not called here: perfbench's spans hook both names in this module
    commutator_residual,
    commutator_witness,
    grid_sups,
    point_distance,
)
from .graphs import (
    CliqueForest,
    MissingEdgeWitness,
    SimpleGraph,
    is_clique_forest,
    is_component_partition,
)
from .raag import (
    NotApplicableError,
    # not called here: perfbench's spans hook this name in this module
    normal_form,
)
from . import serialize

# word letters: (sym, sign) with sym 0 = f and sym n >= 1 = g_n; sign is +-1
Letter = Tuple[int, int]
FreeWord = Tuple[Letter, ...]

DEFAULT_BASEPOINT = 0.70710678
DEFAULT_WORD_LEN = 6
DEFAULT_ALPHA_K = 5
_RELATION_TOL = 1e-9
_RELATION_CHECK_LIMIT = 5_000_000
_EPS_FLOOR = 1e-300  # a stage tolerance at or below this is an underflow


class SynthesisError(RuntimeError):
    """A recursion stage could not be completed."""


class NotEmbeddableError(ValueError):
    def __init__(self, witness: MissingEdgeWitness):
        self.witness = witness
        super().__init__(
            f"graph is not a clique forest: vertices {witness.u} and {witness.v} "
            f"share a component but no edge"
        )


# ---------------------------------------------------------------------------
# alpha sequence


@dataclass(frozen=True)
class AlphaSequence:
    """Multiplier parameters in (1, pi) with a height-bounded relation check.

    ``min_relation`` is the minimum of |sum k_i log(alpha_i)| over all integer
    vectors with 0 < max|k_i| <= k_bound; it certifies rational independence
    of the logs up to that height (full independence is not decidable
    numerically).
    """

    alphas: Tuple[float, ...]
    k_bound: int
    min_relation: float

    FIELDS = (("alphas", serialize.DECIMALS), ("k_bound", serialize.INTEGER),
              ("min_relation", serialize.DECIMAL))
    to_dict = serialize.encode
    from_dict = serialize.loader("alpha sequence")


def _first_primes(n: int) -> List[int]:
    primes: List[int] = []
    cand = 2
    while len(primes) < n:
        if all(cand % p for p in primes):
            primes.append(cand)
        cand += 1
    return primes


def choose_alphas(n: int, k: int = DEFAULT_ALPHA_K) -> AlphaSequence:
    """alpha_i = exp(sqrt(p_i)/C) for the first n primes, scaled into (1, pi).

    The logs are proportional to square roots of distinct primes, hence
    rationally independent; the height-k relation minimum is computed by
    ``_min_relation`` (a meet-in-the-middle search, bitwise the minimum over
    every relation vector) and recorded.
    """
    if n < 1 or k < 1:
        raise ValueError("need n >= 1 and k >= 1")
    primes = _first_primes(n)
    c = math.sqrt(primes[-1]) / 1.1  # log(alpha_i) <= 1.1 < log(pi)
    logs = [math.sqrt(p) / c for p in primes]
    alphas = tuple(math.exp(v) for v in logs)
    if not all(1.0 < a < math.pi for a in alphas):
        raise SynthesisError(f"alpha values escaped (1, pi): {alphas}")
    if (2 * k + 1) ** n - 1 > _RELATION_CHECK_LIMIT:
        raise ValueError("relation check too large; lower n or k")
    best = _min_relation(logs, k)
    if best <= _RELATION_TOL:
        raise SynthesisError(
            f"alpha relation check failed: minimum {best} at height {k}"
        )
    return AlphaSequence(alphas, k, best)


def _min_relation(logs: Sequence[float], k: int) -> float:
    """min |sum_i k_i logs[i]| over nonzero integer vectors with max|k_i| <= k,
    each sum accumulated left to right over the coordinates from 0.0, the
    products k_i * logs[i] rounded first.  Callers pass k >= 1 and at least
    one log, every log finite.

    Meet in the middle (Horowitz and Sahni, J. ACM 21, 1974): H runs over
    the sums of the first n // 2 coordinates and T over those of the others
    (both left to right, so H is the full sum's own prefix), T sorted.  A
    full sum S and its split sum H + T differ by at most
    2 gamma_{n-1} sum_i |k_i logs[i]| (the bound of recursive summation,
    Higham, Accuracy and Stability of Numerical Algorithms, 2002, 4.2).  So
    a minimiser, whose |S| is at most the |S| = U of any nonzero vector, has
    |H + T| <= U + E, with E = 4 n u k sum_i |logs[i]| covering that bound
    and the rounding of the search window.  U is taken from the nearest
    nonzero pair (H, T), and every pair within U + E of zero is summed
    again in the order above: the zero vector excluded, the smallest |S|
    among them is the minimum, bit for bit that of summing every vector.
    """
    ks = np.arange(-k, k + 1, dtype=float)
    base, n, m = ks.size, len(logs), len(logs) // 2

    def sums(part):
        s = np.zeros(1)
        for lg in part:
            s = (s[:, None] + ks * lg).ravel()
        return s

    head, tail = sums(logs[:m]), sums(logs[m:])
    order = tail.argsort(kind="stable")
    t = tail[order]
    zero_h, zero_t = (base ** m - 1) // 2, (base ** (n - m) - 1) // 2  # every k_i = 0

    def full(h, j):
        """|S| of head rows h with tail rows j (rows of ``tail``, unsorted)."""
        s = head[h]
        for q, lg in enumerate(logs[m:]):  # digit q of j, the first the highest
            s = s + ks[j // base ** (n - m - 1 - q) % base] * lg
        return np.abs(s)

    # the nearest T on either side of -H, and the one after
    near = np.maximum(t.searchsorted(-head)[:, None] + np.arange(-1, 2), 0)
    np.minimum(near, t.size - 1, out=near)
    gap = np.abs(head[:, None] + t[near])
    gap[zero_h, order[near[zero_h]] == zero_t] = math.inf
    at = int(gap.argmin())
    upper = float(full(at // 3, order[near.flat[at]]))
    if upper == 0.0:  # no |S| is smaller; exact ties would all be rechecked
        return upper
    err = 4 * n * 2.0 ** -53 * k * sum(map(abs, logs)) + 2.0 ** -1074
    lo = t.searchsorted(-head - (upper + err), "left")
    count = t.searchsorted(-head + (upper + err), "right") - lo
    h = np.arange(head.size).repeat(count)
    j = order[np.arange(h.size) - (count.cumsum() - count - lo).repeat(count)]
    s = full(h, j)
    s[(h == zero_h) & (j == zero_t)] = math.inf  # the zero vector is no relation
    return float(s.min())


# ---------------------------------------------------------------------------
# word enumeration


def letter_str(let: Letter) -> str:
    sym, sign = let
    name = "f" if sym == 0 else f"g{sym}"
    return name if sign > 0 else f"{name}^-1"


def word_str(word: FreeWord) -> str:
    return " ".join(letter_str(l) for l in word) if word else "1"


def _letters(num_g: int) -> List[Letter]:
    """The letters in schedule order f, f^-1, g_1, g_1^-1, ...: letter i is
    sym i // 2, inverted when i is odd."""
    return [(s, sgn) for s in range(num_g + 1) for sgn in (1, -1)]


class _Level(NamedTuple):
    parent: np.ndarray  # index in the level below of the suffix w of each word l w
    first: np.ndarray  # letter index i of l
    has_f: np.ndarray  # the word contains f or f^-1
    bounds: np.ndarray  # the words with first letter i are bounds[i]:bounds[i + 1]


class _Schedule:
    """The freely reduced words of length 1..max_len over f, g_1..g_num_g and
    inverses, held as the levels of their suffix tree.

    Level L lists the words ``l w`` of length L letter by letter, in the
    order of ``_letters``, each letter over the level L-1 words w it may
    precede.  The scheduled words are those containing f or f^-1, level by
    level: the order of ``enumerate_words``.  A word tuple is built only to
    name a word (``word``).
    """

    def __init__(self, num_g: int, max_len: int):
        if num_g < 1:
            raise ValueError("need at least one g generator")
        if max_len < 1:
            raise ValueError("max_len must be >= 1")
        self.num_g, self.max_len = num_g, max_len
        n_letters = 2 * num_g + 2
        letter_ids = np.arange(n_letters, dtype=np.min_scalar_type(n_letters))
        first, has_f = np.array([-1]), np.array([False])
        self.levels: List[_Level] = []
        for _ in range(max_len):
            # a letter never precedes its inverse
            blocks = [np.flatnonzero(first != (i ^ 1)) for i in range(n_letters)]
            sizes = [b.size for b in blocks]
            parent = np.concatenate(blocks)
            first = np.repeat(letter_ids, sizes)
            has_f = has_f[parent] | (first < 2)
            self.levels.append(_Level(parent, first, has_f, np.cumsum([0] + sizes)))
        counts = [int(np.count_nonzero(lv.has_f)) for lv in self.levels]
        self._ends = np.cumsum(counts)
        self.lengths = np.repeat(np.arange(1, max_len + 1), counts)  # of the scheduled words
        self.word_count = int(self._ends[-1])

    def word(self, k: int) -> FreeWord:
        """The scheduled word of index k (stage k + 1)."""
        top = int(np.searchsorted(self._ends, k, side="right"))
        before = int(self._ends[top - 1]) if top else 0
        idx = int(np.flatnonzero(self.levels[top].has_f)[k - before])
        letters, word = _letters(self.num_g), []
        for lv in reversed(self.levels[:top + 1]):
            word.append(letters[lv.first[idx]])
            idx = lv.parent[idx]
        return tuple(word)

    def trivial(self) -> np.ndarray:
        """Mask of the scheduled words that are trivial in
        <f> * <g_1, ..., g_num_g abelian>.

        The free-product normal form is carried through the levels as a
        persistent syllable stack.  Node 0 is the empty form (kind -1); node
        j > 0 is a head syllable, of kind ``kind[j]`` (0 for f, 1 for g) and
        exponent vector ``head[j]`` over f, g_1..g_num_g, above the node
        ``tail[j]``.
        Prepending a letter adds it to the head when the kinds match, and
        leaves the tail when the head becomes zero; otherwise it pushes a new
        head.  Adjacent syllables differ in kind, so nothing else cancels.
        """
        size = 1 + sum(lv.parent.size for lv in self.levels)
        kind = np.full(size, -1, np.int8)
        head = np.zeros((size, self.num_g + 1), np.min_scalar_type(-self.max_len))
        tail = np.zeros(size, np.intp)
        node, used, out = np.zeros(1, np.intp), 1, []
        for lv in self.levels:
            below = node[lv.parent]
            k = (lv.first >= 2).astype(np.int8)
            same = kind[below] == k
            # the letter adds to a head of its kind, or starts one from zero
            h = np.take(head, below, axis=0)
            np.multiply(h, same[:, None], out=h)
            for i, (lo, hi) in enumerate(zip(lv.bounds[:-1], lv.bounds[1:])):
                h[lo:hi, i // 2] += -1 if i % 2 else 1
            new = ~same  # a pushed head, or a merged head that stays nonzero
            for column in h.T:
                new |= column != 0
            node = np.where(same, tail[below], below)  # the tail under the new head
            fresh = slice(used, used + np.count_nonzero(new))
            kind[fresh], tail[fresh] = k[new], node[new]
            head[fresh] = np.compress(new, h, axis=0)
            node[new] = np.arange(fresh.start, fresh.stop)
            used = fresh.stop
            out.append(node[lv.has_f] == 0)
        return np.concatenate(out)


def enumerate_words(num_g: int, max_len: int, require_f: bool = True) -> List[FreeWord]:
    """All freely reduced words of length <= max_len over f, g_1..g_num_g and
    inverses, ordered by length then lexicographically.

    The words are built from the levels of ``_Schedule``: level L prepends
    each letter, in the order of ``_letters``, to the level L-1 words it may
    precede.  With ``require_f`` (the default) only words containing f or
    f^-1 are kept, matching the schedule the recursion needs.
    """
    schedule, letters = _Schedule(num_g, max_len), _letters(num_g)
    level: List[FreeWord] = [()]
    words: List[FreeWord] = []
    for lv in schedule.levels:
        level = [(letters[i],) + level[j] for i, j in zip(lv.first.tolist(), lv.parent.tolist())]
        words.extend(compress(level, lv.has_f.tolist()) if require_f else level)
    return words


# ---------------------------------------------------------------------------
# synthesis state


@dataclass(frozen=True)
class SynthesisOptions:
    word_len: int = DEFAULT_WORD_LEN
    grid_n: int = DEFAULT_GRID
    basepoint: float = DEFAULT_BASEPOINT
    alpha_k: int = DEFAULT_ALPHA_K
    # tried in this order after ``basepoint`` when a stage fails
    fallback_basepoints: ClassVar[Tuple[float, ...]] = (0.58113883, 0.41421356, 0.8660254)


@dataclass(frozen=True)
class SynthesisState:
    """Audit trail of the recursion.

    ``margins[m-1]`` is D_m for the m-th scheduled word (None when the word is
    trivial in the free product and the stage is vacuous), ``eps[m-1]`` the
    tolerance after stage m.  Both are ``serialize.Decimals``: float64 arrays,
    the margins with a null mask, which read as sequences of floats (and
    Nones) and compare and hash as tuples do; the constructor also takes
    sequences.  Each writes its document list from a table of the texts of
    its distinct values, built from the values whether the list was computed
    or read back (a read list keeps no string of its document), which the
    report's margin column shares (``verify_assignment``).
    The words are ``enumerate_words(num_g, max_len)`` for num_g = len(gens)
    and max_len = the word length, never stored: the recursion holds them as
    the arrays of ``_Schedule(num_g, max_len)``.
    """

    manifold: Manifold
    p: float
    num_g: int
    max_len: int
    word_count: int
    margins: serialize.Decimals
    eps: serialize.Decimals
    bumps: Tuple[object, ...]  # BumpPoly on I, BumpTrig on S1
    lambda_est: float
    grid_n: int
    min_derivative: float
    deriv_lower_bound: float

    FIELDS = (("manifold", serialize.MANIFOLD), ("p", serialize.DECIMAL),
              ("num_g", serialize.INTEGER), ("max_len", serialize.INTEGER),
              ("word_count", serialize.INTEGER), ("margins", serialize.NULLABLE_DECIMAL_ARRAY),
              ("eps", serialize.DECIMAL_ARRAY), ("bumps", serialize.BUMPS),
              ("lambda_est", serialize.DECIMAL), ("grid_n", serialize.INTEGER),
              ("min_derivative", serialize.DECIMAL), ("deriv_lower_bound", serialize.DECIMAL))
    to_dict = serialize.encode
    from_dict = serialize.loader("synthesis state")

    def __post_init__(self):
        """A state covers its own schedule: one margin and one eps for each of
        the ``word_count`` scheduled words, which number the sum over
        L <= max_len of 2r(2r-1)^(L-1) - 2n(2n-1)^(L-1), n = num_g and
        r = n + 1 (the reduced words with f).  The sum stops once it passes
        ``word_count``, so a huge ``max_len`` fails fast.  No eps is null, and
        a state schedules at least one word: num_g and max_len are >= 1."""
        if min(self.num_g, self.max_len) < 1:
            raise ValueError(f"num_g {self.num_g} and max_len {self.max_len} must both be >= 1")
        for name in ("margins", "eps"):
            object.__setattr__(self, name, serialize.Decimals.of(getattr(self, name)))
        if self.eps.null is not None:
            raise ValueError("an eps is null")
        if not len(self.margins) == len(self.eps) == self.word_count:
            raise ValueError(f"{len(self.margins)} margins and {len(self.eps)} eps recorded "
                             f"for {self.word_count} scheduled words")
        n, r, count = self.num_g, self.num_g + 1, 0
        for length in range(1, self.max_len + 1):
            count += 2 * r * (2 * r - 1) ** (length - 1) - 2 * n * (2 * n - 1) ** (length - 1)
            if count > self.word_count:
                break
        if count != self.word_count:
            raise ValueError(f"word_count {self.word_count} is not the number of words "
                             f"scheduled up to length {self.max_len} over {n} g generators")


def _word_margin(word, f, gens, p, manifold) -> float:
    exprs = (f, *gens)
    x = apply_letters([(exprs[sym], sign) for sym, sign in word], p)
    return point_distance(manifold, x, p)


def _schedule_margins(f: DiffeoExpr, gens: Sequence[DiffeoExpr], p: float,
                      manifold: Manifold, schedule: _Schedule) -> np.ndarray:
    """Margins at p of the words of ``schedule`` (over ``len(gens)`` g
    generators), in schedule order: the walk of its levels from p."""
    levels = schedule.levels
    walk = _walk([(lv.parent, lv.bounds.tolist(), ()) for lv in levels], (f, *gens),
                 np.array([p]))
    return np.concatenate([point_distance(manifold, vals[lv.has_f, 0], p)
                           for lv, vals in zip(levels, walk)])


def _measure_lambda(f: DiffeoExpr, gens: Sequence[DiffeoExpr], grid_n: int) -> float:
    xs = _grid(f.manifold, grid_n)
    lam = 1.0
    for e in list(gens) + [f]:
        ds = e._draw(xs)
        dmin, dmax = float(np.min(ds)), float(np.max(ds))
        if dmin <= 0:
            raise SynthesisError(f"letter {e.KIND} has non-positive grid derivative")
        lam = max(lam, dmax, 1.0 / dmin)
    return lam


_POLY_SHAPES: Tuple[Tuple[int, Tuple[float, ...]], ...] = (
    (1, (1.0,)),          # x (1-x)
    (1, (0.0, 1.0)),      # x^2 (1-x)
    (1, (1.0, -1.0)),     # x (1-x)^2
)
_TRIG_PHASES: Tuple[float, ...] = (0.0, math.pi / 2, math.pi / 4)


def _candidate_bumps(manifold, stage, sup_budget, deriv_budget, grid_n):
    """Deterministic candidate list honouring the stage budgets strictly."""
    bounds = dict(stage=stage, sup_bound=sup_budget, deriv_bound=deriv_budget)
    if manifold is Manifold.INTERVAL:
        xs = _grid(manifold, grid_n)
        shapes = []  # (largest coefficient, bump constructor) per shape
        for k, t in _POLY_SHAPES:
            probe = BumpPoly(1.0, stage, k, t)
            s_sup = float(np.max(np.abs(probe.values(xs))))
            ds_sup = float(np.max(np.abs(probe.deriv_values(xs))))
            shapes.append((0.999 * min(sup_budget / s_sup, deriv_budget / ds_sup),
                           partial(BumpPoly, k=k, t_coeffs=t, **bounds)))
    else:
        cmax = 0.999 * min(sup_budget, deriv_budget / (2 * math.pi))
        shapes = [(cmax, partial(BumpTrig, phase=phase, **bounds)) for phase in _TRIG_PHASES]
    return [make(sign * cmax / frac)
            for cmax, make in shapes if cmax > 0 and math.isfinite(cmax)
            for frac in (2, 4, 8) for sign in (1.0, -1.0)]


def perturb_f(
    gens: Sequence[DiffeoExpr],
    p: float,
    opts: SynthesisOptions = SynthesisOptions(),
) -> Tuple[DiffeoExpr, SynthesisState]:
    """Run the recursion over ``enumerate_words(len(gens), opts.word_len)``
    on the manifold of ``gens`` and return (f, audit state).

    Stage m leaves f unchanged when the word already moves p by more than the
    stage's sup budget; otherwise it picks the budgeted bump maximizing the
    margin D_m.  The margin of every earlier word is protected by the eps
    chain.

    The schedule is held as arrays (``_Schedule``): no word tuple is built
    except to name a word or for the candidate trials of a bumped stage.
    The walk over its levels carries the free-product normal form, which
    marks the vacuous stages, and evaluates the margins of the whole
    schedule (``_schedule_margins``) at the start and after each bump.
    Between two bumps f is fixed, so the stages up to the next bump are one
    numpy pass: the eps chain is a running minimum, and the budgets and the
    stage decisions are bitwise those of a stage-by-stage loop.  Before
    returning, the margins are checked against the walk of the f that is
    returned: the last walk of the recursion.
    """
    for basepoint in (p,) + opts.fallback_basepoints:
        try:
            return _perturb_f_at(gens, basepoint, opts)
        except SynthesisError as exc:
            last_exc = exc
    raise SynthesisError(f"all basepoint retries failed; last: {last_exc}")


def _perturb_f_at(gens, p, opts):
    if not (0.0 < p < 1.0):
        raise ValueError("basepoint must lie in (0, 1)")
    manifold = gens[0].manifold
    grid_n, num_g, max_len = opts.grid_n, len(gens), opts.word_len
    schedule = _Schedule(num_g, max_len)
    n = schedule.word_count
    # words trivial in <f> * <g's abelian>: the paper's free-group schedule
    # includes such words but no basepoint displacement exists for them
    live = ~schedule.trivial()
    shift = -np.arange(2, n + 2)  # stage m's budgets carry the factor 2^-(m+1)
    margins, eps = np.empty(n), np.empty(n)
    bumps: List[object] = []
    perturbed = PerturbedF if manifold is Manifold.INTERVAL else PerturbedLiftS1
    f: DiffeoExpr = Identity(manifold)
    d = _schedule_margins(f, gens, p, manifold, schedule)
    start, eps_prev, decided = 0, 1.0, False
    while True:
        # f and lam stay fixed up to the next bump, so the stages from start on
        # are one pass: the eps chain is a running minimum (vacuous stages
        # carry it), the sup budget of a stage scales the eps before it, and
        # the first nonvacuous stage whose word moves p by no more than its
        # budget takes the next bump.  A stage already decided (the bumped
        # one) is not tested again.
        lam = _measure_lambda(f, gens, grid_n)
        # Lipschitz tolerance: a word of length L built from letters with grid
        # derivative sup <= lam moves by at most L lam^(L-1) times a sup-norm
        # perturbation of one letter; divide by a safety factor of 4
        lip = np.array([8.0 * length * lam ** (length - 1) for length in range(max_len + 1)])
        seg = slice(start, n)
        ratio = np.where(live[seg], d[seg] / lip[schedule.lengths[seg]], np.inf)
        # np.fmin, like min(eps, x), keeps eps over a NaN
        run = np.fmin.accumulate(np.concatenate(([eps_prev], ratio)))
        before, after = run[:-1], run[1:]  # eps before and after each stage
        moved = d[seg] > np.ldexp(before, shift[seg])
        moved[0] |= decided
        k = _first(live[seg] & ~moved, n - start)  # the next bump, counted from start
        low = _first(live[start:start + k] & ~(after[:k] > _EPS_FLOOR), None)
        if low is not None:
            raise SynthesisError(
                f"stage {start + low + 1}: tolerance underflow "
                f"(eps={float(after[low])!r}); margins too small"
            )
        stop = start + k
        margins[start:stop], eps[start:stop] = d[start:stop], after[:k]
        if stop == n:
            break
        m, eps_prev = stop + 1, float(before[k])
        word = schedule.word(stop)
        sup_budget = math.ldexp(eps_prev, -(m + 1))
        deriv_budget = math.ldexp(1.0, -(m + 1))
        best = None
        for bump in _candidate_bumps(manifold, m, sup_budget, deriv_budget, grid_n):
            cand_f = perturbed(tuple(bumps) + (bump,), grid_n)
            d_c = _word_margin(word, cand_f, gens, p, manifold)
            if best is None or d_c > best[0]:
                best = (d_c, bump, cand_f)
        if best is None or best[0] <= 0.0:
            raise SynthesisError(
                f"stage {m} ({word_str(word)}): no candidate bump moves the "
                f"basepoint {p} (budget {sup_budget:.3e})"
            )
        _, bump, f = best
        bumps.append(bump)
        # the walk gives the value of apply_letters: at the bumped stage it
        # is bitwise the candidate's margin
        d = _schedule_margins(f, gens, p, manifold, schedule)
        start, decided = stop, True

    # every margin re-verified against the walk of the f returned, the last
    # walk of the loop
    bad = _first(live & ~(d > margins / 2.0), None)
    if bad is not None:
        raise SynthesisError(
            f"stage {bad + 1} ({word_str(schedule.word(bad))}): final margin "
            f"{float(d[bad])} <= D/2 = {float(margins[bad]) / 2}"
        )

    xs = _grid(manifold, grid_n)
    min_deriv = float(np.min(f._draw(xs)))
    bound = 1.0 - sum(math.ldexp(1.0, -(b.stage + 1)) for b in bumps)
    state = SynthesisState(
        manifold=manifold,
        p=p,
        num_g=num_g,
        max_len=max_len,
        word_count=n,
        margins=serialize.Decimals(margins, ~live),
        eps=serialize.Decimals(eps),
        bumps=tuple(bumps),
        lambda_est=lam,
        grid_n=grid_n,
        min_derivative=min_deriv,
        deriv_lower_bound=bound,
    )
    return f, state


def _first(mask: np.ndarray, default):
    """Index of the first True entry of ``mask``, or ``default``."""
    i = int(np.argmax(mask)) if mask.size else 0
    return i if mask.size and mask[i] else default


# ---------------------------------------------------------------------------
# generator assignment


@dataclass(frozen=True)
class GeneratorAssignment:
    """Vertex -> diffeomorphism realizing the RAAG, h_{i,n} = f^i g_n f^-i."""

    graph: SimpleGraph
    manifold: Manifold
    forest: CliqueForest
    alphas: AlphaSequence
    layout: Tuple[Tuple[int, int, int], ...]  # (vertex, component index i, slot n)
    f: DiffeoExpr
    gens: Tuple[DiffeoExpr, ...]
    state: Optional[SynthesisState]

    FIELDS = (("graph", serialize.document(SimpleGraph)), ("manifold", serialize.MANIFOLD),
              ("clique_forest", serialize.document(CliqueForest, attr="forest")),
              ("alphas", serialize.document(AlphaSequence)),
              ("layout", serialize.rows(serialize.INTEGER, serialize.INTEGER, serialize.INTEGER)),
              ("f", serialize.NODE), ("gens", serialize.NODE_LIST),
              ("state", serialize.nullable(serialize.document(SynthesisState))))
    to_dict = serialize.encode

    def exprs(self) -> Dict[int, DiffeoExpr]:
        if isinstance(self.f, Identity):
            return {v: self.gens[n - 1] for v, _, n in self.layout}
        return {v: Compose((Power(self.f, i), self.gens[n - 1], Power(self.f, -i)))
                for v, i, n in self.layout}

    @classmethod
    def from_dict(cls, d: dict) -> "GeneratorAssignment":
        """Load a document; its clique forest must partition the graph's
        vertices into its connected components, and its layout must be the
        one the forest gives (``forest_layout``), with every slot among its
        generators."""
        asg = serialize.build(cls, d, cls.FIELDS, "assignment")
        if not is_component_partition(asg.forest, asg.graph):
            raise ValueError("clique forest components are not the connected components "
                             "of the graph, with each vertex in exactly one")
        if asg.layout != forest_layout(asg.forest):
            raise ValueError("layout differs from the one the clique forest gives")
        slots = max(asg.forest.sizes, default=0)
        if slots > len(asg.gens):
            raise ValueError(f"layout names slot {slots} of {len(asg.gens)} generators")
        return asg


def forest_layout(forest: CliqueForest) -> Tuple[Tuple[int, int, int], ...]:
    """(vertex, component index i, slot n) of every vertex, sorted: the n-th
    vertex of the i-th component, both counted from 1, gets h_{i,n}."""
    return tuple(sorted((v, i, n) for i, comp in enumerate(forest.components, 1)
                        for n, v in enumerate(comp, 1)))


def alpha_generators(manifold: Manifold, alphas: AlphaSequence) -> Tuple[DiffeoExpr, ...]:
    """The g generators of ``alphas``: Mobius maps on I, rotations on S1."""
    gen = MobiusI if manifold is Manifold.INTERVAL else RotationS1
    return tuple(map(gen, alphas.alphas))


def synthesize_embedding(
    g: SimpleGraph,
    manifold: Manifold = Manifold.INTERVAL,
    opts: SynthesisOptions = SynthesisOptions(),
) -> GeneratorAssignment:
    """Build an explicit embedding of the RAAG of ``g`` when it exists.

    Component i (1-based) receives h_{i,n} = f^i g_n f^-i for its n-th vertex.
    A single clique needs no f at all: its g's already form a free abelian
    group of the right rank.  The empty graph needs no g either.
    """
    if manifold is Manifold.LINE:
        raise NotApplicableError("synthesis covers I and S1 only")
    if opts.word_len < 1:
        raise ValueError("word_len must be >= 1")
    if opts.alpha_k < 1:
        raise ValueError("alpha_k must be >= 1")
    if not 0.0 < opts.basepoint < 1.0:
        raise ValueError("basepoint must lie in (0, 1)")
    forest = is_clique_forest(g)
    if isinstance(forest, MissingEdgeWitness):
        raise NotEmbeddableError(forest)
    alphas = AlphaSequence((), opts.alpha_k, math.inf)
    gens: Tuple[DiffeoExpr, ...] = ()
    f: DiffeoExpr = Identity(manifold)
    state = None
    if forest.components:
        # relation height must cover the largest exponent any scheduled pure-g
        # word can reach, i.e. the word length
        alphas = choose_alphas(max(forest.sizes), max(opts.alpha_k, opts.word_len))
        gens = alpha_generators(manifold, alphas)
    if len(forest.components) > 1:
        f, state = perturb_f(gens, opts.basepoint, opts)
    return GeneratorAssignment(g, manifold, forest, alphas, forest_layout(forest), f, gens, state)


# ---------------------------------------------------------------------------
# verification


@dataclass(frozen=True)
class VerificationReport:
    ok: bool
    manifold: Manifold
    grid_n: int
    tol: float
    word_len: int  # truncation: only words up to this length are certified
    edge_checks: Tuple[dict, ...]
    non_edge_checks: Tuple[dict, ...]
    # (word index, margin, D/2) rows: three columns from verify_assignment
    # (the D/2 column and maybe the margins serialize.Decimals), row tuples
    # when read back
    margin_checks: Union[serialize.Columns, Tuple[Tuple[int, float, float], ...]]
    margin_failures: Tuple[dict, ...]
    pure_g_checked: int
    pure_g_all_nontrivial: bool
    notes: Tuple[str, ...]

    FIELDS = (("ok", serialize.BOOLEAN), ("manifold", serialize.MANIFOLD),
              ("grid_n", serialize.INTEGER), ("tol", serialize.NUMBER),
              ("word_len", serialize.INTEGER),
              ("truncation_note", serialize.Codec(
                  lambda wl: f"certification covers words of length <= {wl} only", None,
                  {"type": "string"}, attr="word_len")),
              ("edge_checks", serialize.records("u", "v", "residual", "ok")),
              ("non_edge_checks", serialize.records("u", "v", "witness_x", "residual", "ok")),
              ("margins", replace(serialize.rows(serialize.INTEGER, serialize.DECIMAL,
                                                 serialize.DECIMAL), attr="margin_checks")),
              ("margin_failures", serialize.records("index", "word", "margin", "threshold")),
              ("pure_g_checked", serialize.INTEGER), ("pure_g_all_nontrivial", serialize.BOOLEAN),
              ("notes", serialize.STRINGS))
    to_dict = serialize.encode
    from_dict = serialize.loader("report")


def _relation_recomputed(alphas: AlphaSequence, notes: List[str]) -> bool:
    """Whether the height-k_bound relation minimum of the alphas' logs,
    recomputed, is above ``_RELATION_TOL``; if not, a note says why."""
    n, k = len(alphas.alphas), alphas.k_bound
    if k < 1:
        why = "a height below 1 has no relation vector"
    elif not all(0.0 < a < math.inf for a in alphas.alphas):
        why = "not every alpha has a finite log"
    elif (2 * k + 1) ** n - 1 > _RELATION_CHECK_LIMIT:
        why = f"{n} generators give more than {_RELATION_CHECK_LIMIT} vectors"
    else:
        best = _min_relation([math.log(a) for a in alphas.alphas], k)
        if best > _RELATION_TOL:
            return True
        notes.append(f"the alpha relation minimum recomputed at height {k} is {best!r}, "
                     f"at most {_RELATION_TOL!r}: the g generators may satisfy a relation")
        return False
    notes.append(f"the alpha relation minimum at height {k} was not recomputed: {why}")
    return False


def verify_assignment(
    assignment: GeneratorAssignment,
    word_len: Optional[int] = None,
    grid_n: int = DEFAULT_GRID,
    tol: float = 1e-9,
) -> VerificationReport:
    """Check edges (commutation), non-edges (a witness point moved by more
    than 10 tol), and the free-product margins of the synthesis state.

    Every checked commutator [h_u, h_v] is evaluated on the grid in one
    walk over the shared letter prefixes of all of them, in bounded memory
    (``grid_sups``); each residual and witness is that of
    ``commutator_residual`` and ``commutator_witness``.  Margin
    certification is truncated at ``word_len`` (the state's own schedule
    length by default); the report says so prominently.  The alpha record
    certifies the pure-g words only of generators that are the maps of its
    alphas (``alpha_generators``); any others fail that check, and so do
    words above its height.  Its relation minimum is recomputed from the
    alphas, not read: a minimum at most ``_RELATION_TOL``, an alpha without
    a finite log, or a height below 1 or past ``_RELATION_CHECK_LIMIT``
    fails the check too, with a note.  A single clique counts no pure-g word
    (``pure_g_checked`` 0): its claim rests on the alpha record alone, and
    the report notes it.  A state whose
    basepoint is not in (0, 1), or whose recorded margins are not all finite
    and positive, raises ``ValueError``.
    """
    state = assignment.state
    if state is not None:
        if state.num_g != len(assignment.gens):
            raise ValueError(f"synthesis state schedules {state.num_g} g generators, "
                             f"the assignment has {len(assignment.gens)}")
        # what _perturb_f_at guarantees when it records a state; a margin
        # D <= 0 would pass the check D > D/2 below for any displacement
        if not 0 < state.p < 1:
            raise ValueError(f"the state's basepoint {state.p!r} is not in (0, 1)")
        given, null = state.margins.values, state.margins.null  # NaN at the nulls
        if not np.all(((given > 0) & (given < math.inf)) | (False if null is None else null)):
            raise ValueError("the state's margins are not all finite and positive")
    if word_len is not None and word_len < 1:
        raise ValueError("word_len must be >= 1")
    g = assignment.graph
    notes = []
    edges = sorted(g.edges)
    non_edges = [(u, v) for u in range(g.n) for v in range(u + 1, g.n) if not g.has_edge(u, v)]
    exprs = assignment.exprs()
    sups = grid_sups([commutator(exprs[u], exprs[v]) for u, v in edges + non_edges], grid_n)
    edge_checks = [{"u": u, "v": v, "residual": r, "ok": r < tol}
                   for (u, v), (_, r) in zip(edges, sups)]
    non_edge_checks = [{"u": u, "v": v, "witness_x": x, "residual": r, "ok": r > 10 * tol}
                       for (u, v), (x, r) in zip(non_edges, sups[len(edges):])]
    ok = all(c["ok"] for c in chain(edge_checks, non_edge_checks))

    margin_checks = serialize.Columns((np.empty(0, np.int64), np.empty(0), np.empty(0)))
    margin_failures: List[dict] = []
    pure_g_checked = 0
    # the alpha record certifies pure-g words of the maps of its alphas only
    pure_g_ok = assignment.gens == alpha_generators(assignment.manifold, assignment.alphas)
    if not pure_g_ok:
        notes.append("the g generators are not the maps of the recorded alphas")
    if state is not None:
        wl = state.max_len if word_len is None else min(word_len, state.max_len)
        if word_len is not None and word_len > state.max_len:
            notes.append(
                f"requested word_len {word_len} exceeds the recorded schedule "
                f"({state.max_len}); certification truncated there"
            )
        # the schedule is length-major: these are its words of length <= wl
        schedule = _Schedule(state.num_g, wl)
        live = state.margins[:schedule.word_count].live()
        if not np.array_equal(np.flatnonzero(~schedule.trivial()), live):
            raise ValueError("the state's margins are not null exactly at the scheduled "
                             "words trivial in the free product")
        margins = _schedule_margins(assignment.f, assignment.gens, state.p,
                                    assignment.manifold, schedule)[live]
        # the recorded margins on the state's texts, and their halves on the
        # same index, each distinct half written once; margins bitwise equal
        # to the recorded ones are written with the state's texts too
        recorded = state.margins[live]
        half = recorded.halved()
        same = np.array_equal(margins.view(np.int64), recorded.values.view(np.int64))
        margin_checks = serialize.Columns((live + 1, recorded if same else margins, half))
        failing = ~(margins > half.values)
        margin_failures = [
            {"index": i, "word": word_str(schedule.word(i - 1)), "margin": m, "threshold": t}
            for i, m, t in zip(*(col[failing].tolist()
                                 for col in (live + 1, margins, half.values)))
        ]
        ok = ok and not failing.any()
        # pure-g words: nontrivial exactly when the exponent vector is nonzero;
        # the alpha independence record certifies the nonzero case as long as
        # the exponents stay within the checked height.  There are
        # 2n(2n-1)^(L-1) of length L, and g_1^wl reaches the highest exponent.
        n = state.num_g
        pure_g_checked = sum(2 * n * (2 * n - 1) ** (L - 1) for L in range(1, wl + 1))
    else:
        wl = word_len or 0
        notes.append("single-clique assignment: no f, free-product checks vacuous")
        if assignment.gens:
            notes.append(f"no pure-g word was enumerated: the claim rests on the alpha "
                         f"relation record up to height {assignment.alphas.k_bound}")
    if assignment.gens and pure_g_ok:
        pure_g_ok = _relation_recomputed(assignment.alphas, notes)
    if assignment.gens and wl > assignment.alphas.k_bound:
        pure_g_ok = False
        notes.append(f"pure-g words reach exponent height {wl} (g1^{wl}), above "
                     f"the checked alpha relation bound {assignment.alphas.k_bound}")
    ok = ok and pure_g_ok

    return VerificationReport(
        ok=ok,
        manifold=assignment.manifold,
        grid_n=grid_n,
        tol=tol,
        word_len=wl,
        edge_checks=tuple(edge_checks),
        non_edge_checks=tuple(non_edge_checks),
        margin_checks=margin_checks,
        margin_failures=tuple(margin_failures),
        pure_g_checked=pure_g_checked,
        pure_g_all_nontrivial=pure_g_ok,
        notes=tuple(notes),
    )
