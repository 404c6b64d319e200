"""Algebraic obstructions on concrete finite inputs.

A centralizer quadruple (g1, g2, h1, h2) with [g1,h1] = [g2,h1] = [g2,h2] = 1
but [g1,h2] != 1 makes the commutation graph connected and incomplete, which
rules out an embedding into the analytic diffeomorphisms of the interval.
The desk-scale witness is a ball in the integral Heisenberg group, in exact
integer arithmetic.  The sine-shear suite shows the transitivity failing on
the (non-compact) line.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import cached_property
from typing import Dict, NamedTuple, Optional, Sequence, Tuple

from . import serialize
from .diffeo import (
    DEFAULT_GRID,
    Power,
    SineShear,
    Translation,
    commutator,
    grid_sups,
)


@dataclass(frozen=True)
class UnipotentMatrix:
    """3x3 upper-triangular integer matrix with unit diagonal.

    Stored by its strictly-upper entries (a, b, c) at positions (1,2), (2,3),
    (1,3); the group law is exact integer matrix multiplication.
    """

    a: int
    b: int
    c: int

    def __mul__(self, other: "UnipotentMatrix") -> "UnipotentMatrix":
        return UnipotentMatrix(
            self.a + other.a, self.b + other.b, self.c + other.c + self.a * other.b
        )

    def inverse(self) -> "UnipotentMatrix":
        return UnipotentMatrix(-self.a, -self.b, self.a * self.b - self.c)

    def is_identity(self) -> bool:
        return self.a == 0 and self.b == 0 and self.c == 0

    def commutes_with(self, other: "UnipotentMatrix") -> bool:
        # [m, n] = 1 iff a1 b2 = a2 b1 for unipotent 3x3 matrices
        return self.a * other.b == other.a * self.b

    def rows(self) -> Tuple[Tuple[int, int, int], ...]:
        return ((1, self.a, self.c), (0, 1, self.b), (0, 0, 1))

    @staticmethod
    def from_rows(rows: Sequence[Sequence[int]]) -> "UnipotentMatrix":
        r = [list(map(int, row)) for row in rows]
        if len(r) != 3 or any(len(row) != 3 for row in r):
            raise ValueError("need a 3x3 matrix")
        if [r[0][0], r[1][1], r[2][2]] != [1, 1, 1] or any(
            r[i][j] != 0 for i in range(3) for j in range(3) if i > j
        ):
            raise ValueError("matrix is not upper-triangular unipotent")
        return UnipotentMatrix(r[0][1], r[1][2], r[0][2])


X = UnipotentMatrix(1, 0, 0)
Y = UnipotentMatrix(0, 1, 0)
Z = UnipotentMatrix(0, 0, 1)  # the central commutator [X, Y]


@dataclass(frozen=True)
class CommutationOracle:
    """Finite labelled element list with an exact commutation predicate."""

    labels: Tuple[str, ...]
    elements: Tuple[UnipotentMatrix, ...]

    def __post_init__(self):
        if len(self.labels) != len(self.elements):
            raise ValueError("labels and elements differ in length")
        if len(set(self.labels)) != len(self.labels):
            raise ValueError("duplicate labels")

    def element(self, label: str) -> UnipotentMatrix:
        return self.elements[self.labels.index(label)]

    def commute(self, la: str, lb: str) -> bool:
        return self.element(la).commutes_with(self.element(lb))

    @cached_property
    def commutation(self) -> Tuple[int, ...]:
        """Bitset rows of the commutation relation: bit j of row i is set
        when element i commutes with element j.  One ``commutes_with`` call
        per unordered pair; every element commutes with itself."""
        rows = [1 << i for i in range(len(self.elements))]
        for i, e in enumerate(self.elements):
            for j in range(i + 1, len(self.elements)):
                if e.commutes_with(self.elements[j]):
                    rows[i] |= 1 << j
                    rows[j] |= 1 << i
        return tuple(rows)

    @cached_property
    def non_identity(self) -> int:
        """Bitset of the indices of non-identity elements."""
        return sum(1 << i for i, e in enumerate(self.elements) if not e.is_identity())


def heisenberg_ball(radius: int) -> CommutationOracle:
    """All products of at most ``radius`` standard generators x, y, z and
    inverses, deduplicated by exact matrix equality."""
    if radius < 1:
        raise ValueError("radius must be >= 1")
    gens = [("x", X), ("x^-1", X.inverse()), ("y", Y), ("y^-1", Y.inverse()),
            ("z", Z), ("z^-1", Z.inverse())]
    seen: Dict[UnipotentMatrix, str] = {UnipotentMatrix(0, 0, 0): "id"}
    frontier = [UnipotentMatrix(0, 0, 0)]
    for _ in range(radius):
        nxt = []
        for m in frontier:
            base = seen[m]
            for gname, gm in gens:
                prod = m * gm
                if prod not in seen:
                    seen[prod] = gname if base == "id" else f"{base}.{gname}"
                    nxt.append(prod)
        frontier = nxt
    items = sorted(seen.items(), key=lambda kv: kv[1])
    labels = tuple(lbl for _, lbl in items)
    elems = tuple(m for m, _ in items)
    return CommutationOracle(labels, elems)


def parse_oracle(text: str) -> CommutationOracle:
    """One element per line: 'label a11 a12 a13 a21 a22 a23 a31 a32 a33'."""
    labels, elems = [], []
    for ln, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        if len(parts) != 10:
            raise ValueError(f"line {ln}: expected label plus 9 integers")
        try:
            nums = [int(p) for p in parts[1:]]
        except ValueError:
            raise ValueError(f"line {ln}: non-integer matrix entry")
        try:
            elems.append(UnipotentMatrix.from_rows([nums[0:3], nums[3:6], nums[6:9]]))
        except ValueError as exc:
            raise ValueError(f"line {ln}: {exc}")
        labels.append(parts[0])
    return CommutationOracle(tuple(labels), tuple(elems))


@dataclass(frozen=True)
class ObstructionCertificate:
    """Quadruple with three verified commutations and one non-commutation."""

    g1: str
    g2: str
    h1: str
    h2: str

    def facts(self) -> Tuple[Tuple[str, str, bool], ...]:
        return (
            (self.g1, self.h1, True),
            (self.g2, self.h1, True),
            (self.g2, self.h2, True),
            (self.g1, self.h2, False),
        )

    def reverify(self, oracle: CommutationOracle) -> bool:
        return all(oracle.commute(a, b) == want for a, b, want in self.facts())

    scope_note = "search was over this finite element list only"
    FIELDS = (("g1", serialize.STRING), ("g2", serialize.STRING),
              ("h1", serialize.STRING), ("h2", serialize.STRING),
              ("facts", serialize.Codec(
                  lambda facts: [{"pair": [a, b], "commute": want} for a, b, want in facts()],
                  None, {"type": "array", "items": serialize.object_schema(
                      (("pair", serialize.STRINGS), ("commute", serialize.BOOLEAN)))})),
              ("scope_note", replace(serialize.STRING, decode=None)))
    to_dict = serialize.encode


def _lowest_bit(mask: int) -> int:
    return (mask & -mask).bit_length() - 1


def find_centralizer_quadruple(oracle: CommutationOracle) -> Optional[ObstructionCertificate]:
    """Exhaustive deterministic search for a centralizer quadruple.

    The search is lexicographic over the non-identity labels, in list order,
    on the commutation bitsets: for each pair (g1, g2) the candidates are
    h1 in C[g1] & C[g2] and h2 in C[g2] - C[g1], and the first pair with
    both nonempty yields its lowest h1 and lowest h2 (h1 != h2 since only h1
    commutes with g1).  A None result means no quadruple exists within this
    element list, never a group-level conclusion.
    """
    rows, live = oracle.commutation, oracle.non_identity
    labels = oracle.labels
    idx = [i for i in range(len(labels)) if live >> i & 1]
    for g1 in idx:
        c1 = rows[g1]
        for g2 in idx:
            if g2 == g1:
                continue
            rest = live & ~(1 << g1 | 1 << g2)
            h2s = rows[g2] & ~c1 & rest
            h1s = rows[g2] & c1 & rest
            if h1s and h2s:
                cert = ObstructionCertificate(labels[g1], labels[g2],
                                              labels[_lowest_bit(h1s)], labels[_lowest_bit(h2s)])
                assert cert.reverify(oracle)
                return cert
    return None


@dataclass(frozen=True)
class CenterWitness:
    central: str
    noncommuting_pair: Tuple[str, str]

    FIELDS = (("central", serialize.STRING), ("noncommuting_pair", serialize.STRINGS))


def center_nonabelian_check(oracle: CommutationOracle) -> Tuple[bool, Optional[CenterWitness]]:
    """True with witnesses when some non-identity element commutes with every
    listed element while the list is not abelian."""
    rows, labels = oracle.commutation, oracle.labels
    full = (1 << len(labels)) - 1
    central = next((labels[i] for i, row in enumerate(rows)
                     if oracle.non_identity >> i & 1 and row == full), None)
    # commutation is symmetric, so the first incomplete row's lowest
    # missing bit lies above its own index
    pair = next(((labels[i], labels[_lowest_bit(full & ~row)])
                 for i, row in enumerate(rows) if row != full), None)
    if central is not None and pair is not None:
        return True, CenterWitness(central, pair)
    return False, None


@dataclass(frozen=True)
class ObstructionSearch:
    """The obstruct command's result on an element list: the first
    centralizer quadruple, if any, and the center witness, if any."""

    certificate: Optional[ObstructionCertificate]
    center_witness: Optional[CenterWitness]
    ball_size: int  # the number of elements searched

    @property
    def found(self) -> bool:
        return self.certificate is not None

    @property
    def center_nonabelian(self) -> bool:
        return self.center_witness is not None

    FIELDS = (("found", replace(serialize.BOOLEAN, decode=None)),
              ("certificate", serialize.nullable(serialize.document(ObstructionCertificate))),
              ("center_nonabelian", replace(serialize.BOOLEAN, decode=None)),
              ("center_witness", serialize.nullable(serialize.document(CenterWitness))),
              ("ball_size", serialize.INTEGER))
    to_dict = serialize.encode


# ---------------------------------------------------------------------------
# the line counterexample family


class PowerResidual(NamedTuple):
    n: int
    witness_x: float
    residual: float

    FIELDS = (("n", serialize.INTEGER), ("witness_x", serialize.NUMBER),
              ("residual", serialize.NUMBER))


@dataclass(frozen=True)
class CounterexampleReport:
    """Commutation residuals for the sine-shear family on the line.

    f_a commutes with its own period translation and translations commute
    with each other, yet suitable powers of f_a and f_b fail to commute:
    commutation is not transitive on the (non-compact) line.
    """

    a: float
    b: float
    n_max: int
    grid_n: int
    domain: Tuple[float, float]
    res_fa_ga: float
    res_ga_gb: float
    power_residuals: Tuple[PowerResidual, ...]

    FIELDS = (("a", serialize.NUMBER), ("b", serialize.NUMBER), ("n_max", serialize.INTEGER),
              ("grid_n", serialize.INTEGER), ("domain", serialize.NUMBERS),
              ("residual_fa_ga", replace(serialize.NUMBER, attr="res_fa_ga")),
              ("residual_ga_gb", replace(serialize.NUMBER, attr="res_ga_gb")),
              ("power_residuals", serialize.list_of(serialize.document(PowerResidual))))
    to_dict = serialize.encode


def remark_counterexample_suite(
    a: float,
    b: float,
    n_max: int = 1,
    grid_n: int = 2048,
    domain: Tuple[float, float] = (0.0, 4 * math.pi),
) -> CounterexampleReport:
    if a == 0 or b == 0 or a == b:
        raise ValueError("need distinct nonzero parameters")
    fa, fb = SineShear(a), SineShear(b)
    ga, gb = Translation(2 * math.pi / a), Translation(2 * math.pi / b)
    pairs = [(fa, ga), (ga, gb)] + [(Power(fa, n), Power(fb, n)) for n in range(1, n_max + 1)]
    (_, res_fa_ga), (_, res_ga_gb), *sups = grid_sups(
        [commutator(u, v) for u, v in pairs], grid_n, domain)
    powers = tuple(PowerResidual(n, *sup) for n, sup in enumerate(sups, 1))
    return CounterexampleReport(a, b, n_max, grid_n, domain, res_fa_ga, res_ga_gb, powers)
