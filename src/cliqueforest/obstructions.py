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
from collections import Counter
from dataclasses import dataclass, replace
from functools import cached_property
from typing import Dict, NamedTuple, Optional, Sequence, Tuple

from . import serialize
from .diffeo import Power, SineShear, Translation, commutator, grid_sups


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
        return UnipotentMatrix(self.a + other.a, self.b + other.b,
                               self.c + other.c + self.a * other.b)

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
    def classes(self) -> Tuple[Tuple[int, ...], Tuple[int, ...]]:
        """Each element's centralizer class id and each class's size: 0 for
        the center, a = b = 0, else its primitive direction (a, b)/gcd with
        the sign fixed, numbered by first appearance.  Two elements commute
        iff one is central or both share a class."""
        ids: Dict[Tuple[int, int], int] = {(0, 0): 0}
        of = []
        for e in self.elements:
            g = (math.gcd(e.a, e.b) or 1) * (-1 if (e.a, e.b) < (0, 0) else 1)
            of.append(ids.setdefault((e.a // g, e.b // g), len(ids)))
        sizes = Counter(of)
        return tuple(of), tuple(sizes[k] for k in range(len(ids)))


def heisenberg_ball(radius: int) -> CommutationOracle:
    """All products of at most ``radius`` standard generators x, y, z and
    inverses, deduplicated by exact matrix equality."""
    if radius < 1:
        raise ValueError("radius must be >= 1")
    # the (a, b, c) entries of x, x^-1, y, y^-1, z, z^-1; m * g adds a_m b_g to c
    gens = [("x", 1, 0, 0), ("x^-1", -1, 0, 0), ("y", 0, 1, 0), ("y^-1", 0, -1, 0),
            ("z", 0, 0, 1), ("z^-1", 0, 0, -1)]
    seen: Dict[Tuple[int, int, int], str] = {(0, 0, 0): "id"}
    frontier = [(0, 0, 0)]
    for _ in range(radius):
        nxt = []
        for m in frontier:
            base, (a, b, c) = seen[m], m
            for gname, ga, gb, gc in gens:
                prod = (a + ga, b + gb, c + gc + a * gb)
                if prod not in seen:
                    seen[prod] = gname if base == "id" else f"{base}.{gname}"
                    nxt.append(prod)
        frontier = nxt
    triples, labels = zip(*sorted(seen.items(), key=lambda kv: kv[1]))
    return CommutationOracle(labels, tuple(UnipotentMatrix(*m) for m in triples))


def parse_oracle(text: str) -> CommutationOracle:
    """One element per line: 'label a11 a12 a13 a21 a22 a23 a31 a32 a33'."""
    labels, elems = {}, []  # each label's line, in file order, and its element
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
        if parts[0] in labels:
            raise ValueError(f"line {ln}: duplicate label {parts[0]!r}")
        labels[parts[0]] = ln
    return CommutationOracle(tuple(labels), tuple(elems))


@dataclass(frozen=True)
class ObstructionCertificate:
    """Quadruple with three verified commutations and one non-commutation."""

    g1: str
    g2: str
    h1: str
    h2: str

    def facts(self) -> Tuple[Tuple[str, str, bool], ...]:
        return ((self.g1, self.h1, True), (self.g2, self.h1, True),
                (self.g2, self.h2, True), (self.g1, self.h2, False))

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


def find_centralizer_quadruple(oracle: CommutationOracle) -> Optional[ObstructionCertificate]:
    """Exhaustive deterministic search for a centralizer quadruple: the first
    pair (g1, g2) of non-identity labels, in list order, whose candidates h1
    in C[g1] & C[g2] and h2 in C[g2] - C[g1] (other than g1, g2 and
    identities) are nonempty, with its lowest h1 and lowest h2.

    The pair is read from the classes, not tried.  With Z the non-identity
    central elements, a central g1 has no h2; for g1 in class K, a central
    g2 works when another class exists and |K| + |Z| >= 3, and a g2 in
    another class K2 when Z is nonempty and |K2| >= 2; so every non-central
    g1 has a g2 or none has.  None means no quadruple exists within this
    element list, never a group-level conclusion.
    """
    (of, sizes), labels = oracle.classes, oracle.labels
    zero = [i for i, k in enumerate(of) if k == 0]
    center = [i for i in zero if not oracle.elements[i].is_identity()]
    if not center or len(sizes) < 3 or (max(sizes[1:]) < 2 and len(center) < 2):
        return None
    g1 = next(i for i, k in enumerate(of) if k)
    g2s = [next((j for j, k in enumerate(of) if k not in (0, of[g1]) and sizes[k] >= 2), len(of))]
    if sizes[of[g1]] + len(center) >= 3:
        g2s.append(center[0])
    g2 = min(g2s)
    # c2: the candidates (not g1, g2 or an identity) commuting with g2; g1 is
    # not central, so one commutes with g1 iff it is central or in g1's class
    skip, k1, k2 = {g1, g2} | (set(zero) - set(center)), of[g1], of[g2]
    c2 = [i for i, k in enumerate(of) if i not in skip and (k2 == 0 or k in (0, k2))]
    h1 = next(i for i in c2 if of[i] in (0, k1))
    h2 = next(i for i in c2 if of[i] not in (0, k1))
    cert = ObstructionCertificate(labels[g1], labels[g2], labels[h1], labels[h2])
    assert cert.reverify(oracle)
    return cert


@dataclass(frozen=True)
class CenterWitness:
    central: str
    noncommuting_pair: Tuple[str, str]

    FIELDS = (("central", serialize.STRING), ("noncommuting_pair", serialize.STRINGS))


def center_nonabelian_check(oracle: CommutationOracle) -> Tuple[bool, Optional[CenterWitness]]:
    """True with witnesses when some non-identity element commutes with every
    listed element while the list is not abelian.  An element commutes with
    every element iff its class and the center hold them all; the first that
    does not and the first element outside both are the first non-commuting pair."""
    (of, sizes), labels = oracle.classes, oracle.labels
    whole = [k == 0 or size + sizes[0] == len(of) for k, size in enumerate(sizes)]
    central = next((labels[i] for i, k in enumerate(of)
                    if whole[k] and not oracle.elements[i].is_identity()), None)
    i = next((i for i, k in enumerate(of) if not whole[k]), None)
    if central is None or i is None:
        return False, None
    j = next(j for j, k in enumerate(of) if k not in (0, of[i]))
    return True, CenterWitness(central, (labels[i], labels[j]))


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
