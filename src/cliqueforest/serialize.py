"""JSON formats: expression trees and the CLI documents.

``NODES`` is the one table of the expression format: for each node kind,
the expression class and its fields, each with a codec.  Each class of a
CLI document, or of a part of one, likewise declares its fields once, in
its ``FIELDS`` table.  The graph, clique forest, missing-edge witness,
decision, alpha sequence, synthesis state, assignment and report are also
read back; the fixed-point set (whose table is here), completeness report,
commutation graph, obstruction certificate, center witness, obstruction
search and line counterexample report are only written.  Encoding, decoding
and the published schemas (``schemas``) all derive from these tables.

Numeric fields are decimal strings with 17 significant digits (exact float
round trip), and only strings matching the schema's decimal pattern are read
back; integer fields are JSON integers, and the manifold tag sits at the
root.  A kind whose class fixes a manifold is accepted only under that tag.

``write`` puts a document's text on a file straight from its table, piece by
piece: every object field by field, and the lists and scalars in it,
through each codec's ``text`` writer, long lists in blocks of ``_BLOCK``
entries; a field whose codec has no writer (a number, a node, a list of
records) goes through one ``json.dumps`` of its encoded value.  The text is
exactly ``json.dumps(obj.to_dict(), sort_keys=True, indent=2)`` plus a
newline, without building the JSON tree.  Integer and decimal rows (a 2-D
array, or ``Columns`` of 1-D arrays) and integer lists held flat
(``Ragged``: a clique forest's components) are written one ``%`` of a
template per block, over the block's values taken from the arrays, with no
tuple and no Python function per entry.

Long decimal lists (a synthesis state's margins and eps, a report's margin
columns) are held as ``Decimals``, a float64 array with a null mask, and
written from one text table (``_Table``), held by reference, and an index
of each entry's row.  The table has one row per distinct value and, once
written, the bare text of each (``"%.17g"``, no quotes) with a ``null`` row
past them: ``_decimals_text`` quotes a block of texts with one join and
takes the quotes off its nulls, ``rows`` quotes them in its ``%`` template.
A list read from a document keeps only its values and nulls: each distinct
string is converted once, the strings are proved decimals a block at a
time by their characters, and the table rows are the distinct strings'
values in the order the read numbered them, so a document in other decimal
forms is written back in ``"%.17g"``.  A computed list takes the table of
its distinct bit patterns on first write, a slice or an index array of a
list its list's table and the sub-index, so a report's margin column
reuses the state's texts, and the halves of a list (``Decimals.halved``,
the report's D/2 column) a table of the halves of its list's values on
its list's index.  A list's first write formats the rows of its table
that it uses and no list formatted, ``_BLOCK`` values at a time.  The
``"%.17g"`` texts come from an exact numpy kernel (``_digits``: the 17
significant digits and the decimal exponent of a positive float64 alone,
by Dekker's error-free product) written by one ``%`` of an integer template
per layout; the values it does not prove (negative values, zeros,
infinities, NaN, magnitudes outside its range, values near a rounding tie
or a power of ten) and blocks of fewer than ``_KERNEL_MIN`` values take one
``%`` of ``"%.17g"``, into the same table.

A document nested beyond the interpreter's recursion limit is an
``ExprFormatError`` when decoded inside ``nesting_limit``.
"""
from __future__ import annotations

import contextlib
import json
import math
import re
import reprlib
import sys
from dataclasses import dataclass, replace
from itertools import chain, count
from json.encoder import encode_basestring_ascii
from typing import Callable, Dict, Iterable, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from .diffeo import (
    BumpPoly,
    BumpTrig,
    Compose,
    DiffeoExpr,
    FixedPointSet,
    Identity,
    Inverse,
    Manifold,
    MobiusI,
    PerturbedF,
    PerturbedLiftS1,
    Power,
    RotationS1,
    SineShear,
    Translation,
)


class ExprFormatError(ValueError):
    """Malformed expression document."""


def _fmt(x: float) -> str:
    return format(float(x), ".17g")


@dataclass(frozen=True)
class Codec:
    """How one field is written to JSON, read back and described in the schema.

    ``text(value, indent)``, when given, yields the pieces of the value's
    ``json.dumps(encode(value), sort_keys=True, indent=2)`` text, with each
    line after the first indented by ``indent`` (the indentation of the line
    the value starts on).  Without it the value is written as one such
    ``json.dumps`` call, re-indented (``_pieces``).
    """

    encode: Callable[[object], object]
    # (JSON value, document manifold) -> value; None for a field computed
    # from others, which is written but not read back
    decode: Optional[Callable[[object, Optional[Manifold]], object]]
    schema: dict
    optional: bool = False  # omitted from the document when None
    attr: Optional[str] = None  # the attribute and constructor argument, when not the key
    text: Optional[Callable[[object, str], Iterable[str]]] = None


def _pieces(codec: Codec, value, indent: str) -> Iterable[str]:
    """The ``json.dumps(..., sort_keys=True, indent=2)`` text of ``value`` by
    ``codec``, at ``indent``.  Without a writer of the codec's own: one
    ``json.dumps`` of the encoded value, its later lines indented (a JSON
    string holds no raw newline, so every newline starts a line)."""
    if codec.text is not None:
        return codec.text(value, indent)
    return (json.dumps(codec.encode(value), sort_keys=True, indent=2).replace("\n", "\n" + indent),)


_BLOCK = 4096  # entries of a long list written as one piece


def _list_pieces(count: int, block: Callable[[int, int, str], str], indent: str) -> Iterable[str]:
    """The text of a list of ``count`` entries, one piece per ``_BLOCK`` of
    them: ``block(lo, hi, inner)`` gives entries lo..hi-1, each at the
    list's inner indentation ``inner`` and joined by ``",\n" + inner``."""
    if not count:
        return ("[]",)
    inner = indent + "  "
    if count <= _BLOCK:
        return (f"[\n{inner}{block(0, count, inner)}\n{indent}]",)  # one copy of the block
    return _blocks(count, block, inner, "\n" + indent + "]")


def _blocks(count, block, inner, close):
    yield "[\n" + inner
    for lo in range(0, count, _BLOCK):
        if lo:
            yield ",\n" + inner
        yield block(lo, min(lo + _BLOCK, count), inner)
    yield close


def list_of(codec: Codec) -> Codec:
    """Codec of a JSON list, each entry by ``codec``; written entry by entry
    when ``codec`` has a writer.  Lists of integer lists held as arrays take
    ``INTEGER_LISTS`` instead, written one ``%`` per block."""
    def decode(vs, manifold):
        if not isinstance(vs, list):
            raise ExprFormatError(f"expected a list, got {reprlib.repr(vs)}")
        return tuple(codec.decode(v, manifold) for v in vs)

    def text(vs, indent):
        return _list_pieces(len(vs), lambda lo, hi, inner: (",\n" + inner).join(
            ["".join(codec.text(v, inner)) for v in vs[lo:hi]]), indent)
    return Codec(lambda vs: [codec.encode(v) for v in vs], decode,
                 {"type": "array", "items": codec.schema}, text=codec.text and text)


def _scalar_text(fmt: Callable[[object], str]):
    return lambda v, indent: (fmt(v),)


_QUOTED = '"%.17g"'  # the JSON text of a decimal: _fmt in quotes


def _same(v):
    return v


def _checked(ok: Callable[[object], bool], expected: str, convert: Callable = _same):
    """Decoder of the JSON values passing ``ok``, converted by ``convert``."""
    def decode(v, manifold):
        if not ok(v):
            raise ExprFormatError(f"expected {expected}, got {reprlib.repr(v)}")
        return convert(v)
    return decode


def _is_int(v) -> bool:
    return isinstance(v, int) and not isinstance(v, bool)


def _int_list(v) -> bool:
    return isinstance(v, list) and all(map(_is_int, v))


_DECIMAL_SCHEMA = {"type": "string", "pattern": r"^-?((\d+\.?\d*|\.\d+)([eE][+-]?\d+)?|inf)$"}
_DECIMAL_RE = re.compile(_DECIMAL_SCHEMA["pattern"], re.ASCII)
# the characters of a decimal and the separator: ``Decimals.parse`` deletes
# them from a joined block of strings, which leaves the others
_DECIMAL_CHARS = dict.fromkeys(map(ord, "0123456789.eE+-inf,"))
_NODE_REF = {"$ref": "#/$defs/node"}


DECIMAL = Codec(_fmt, _checked(lambda v: isinstance(v, str) and _DECIMAL_RE.fullmatch(v),
                               "a decimal string", float), _DECIMAL_SCHEMA,
                text=_scalar_text(_QUOTED.__mod__))
OPTIONAL_DECIMAL = replace(DECIMAL, optional=True)


class _Table:
    """The distinct values of a list of decimals, which its parts share, and,
    once written, their bare texts (``_texts``) with a ``null`` row past
    them, the row of a null entry; ``todo`` marks the rows not formatted."""

    __slots__ = ("values", "texts", "todo")

    def __init__(self, values: np.ndarray):
        self.values, self.texts, self.todo = values, None, np.ones(len(values), bool)

    def write(self, index: np.ndarray) -> None:
        """Format the rows ``index`` uses that are not formatted yet, in one call."""
        if self.texts is None or self.todo.any():
            used = np.zeros(len(self.values) + 1, bool)
            used[index] = True
            rows = np.flatnonzero(used[:-1] & self.todo)
            self.texts = _texts(self.values, rows, self.texts)
            self.todo[rows] = False


class Decimals:
    """A list of floats, None where ``null`` is set, held as one read-only
    float64 array ``values`` (NaN at the nulls) and a boolean mask ``null``
    (None when no entry is null).

    It reads as the sequence of its entries: an index gives a float or None,
    a slice or an index array another ``Decimals``, iteration and ``tolist``
    the floats and Nones; ``==`` and ``hash`` are those of the tuple of its
    entries.

    Its JSON texts come from one ``_Table`` (``table``), held by reference,
    and an index into it, each entry's row.  The table of a list read from
    a document (``parse``) has a row per distinct string, in the order the
    read numbered them; that of a list built from values a row per distinct
    bit pattern (so that -0.0 keeps its own text), taken on first write.  A
    slice or an index array takes its list's table and the sub-index on its
    first write, and ``halved`` a table of the halves of its list's values
    on its list's index.  The first write of a list formats the rows of its
    table that it uses and no list formatted before (``_Table.write``).
    """

    __slots__ = ("values", "null", "_table", "_index", "_of", "_written")

    def __init__(self, values, null=None):
        values = np.array(values, np.float64)
        if values.ndim != 1:
            raise ValueError("decimals are a 1-D array")
        if null is not None:
            null = np.array(null, bool)
            if null.shape != values.shape:
                raise ValueError(f"{null.size} null flags for {values.size} decimals")
            if null.any():
                values[null] = np.nan
                null.flags.writeable = False
            else:
                null = None
        values.flags.writeable = False
        self.values, self.null = values, null
        # (list, key): a part of the list (key a slice or an index array) or
        # its halves (key None), until the table is taken on first write
        self._table = self._index = self._of = None
        self._written = False  # whether the rows it uses are formatted

    @classmethod
    def of(cls, entries) -> "Decimals":
        """The decimals of a float array, or of a sequence of floats and Nones."""
        if isinstance(entries, Decimals):
            return entries
        if isinstance(entries, np.ndarray):
            return cls(entries)
        entries = list(entries)
        return cls([math.nan if v is None else v for v in entries], [v is None for v in entries])

    @classmethod
    def parse(cls, vs, nullable: bool) -> "Decimals":
        """The decimals of a JSON list of decimal strings (and nulls, when
        ``nullable``); its table rows are the distinct strings' values, in
        the order the read numbered them, written on first use.

        One ``dict.setdefault`` pass numbers each entry by the place of its
        first occurrence (a null past the end), and each distinct string is
        converted once, by ``float()``; a rank array over those first places
        turns the numbering into table rows, with no sort.  The strings are
        proved decimals ``_BLOCK`` at a time, joined: a string that
        ``float()`` converts, whose characters are all ``0-9 . e E + - i n f``
        and that does not start with ``+`` matches the decimal pattern.  A
        list with an entry that is no decimal string raises on the first
        such entry."""
        if not isinstance(vs, list):
            raise ExprFormatError(f"expected a list, got {reprlib.repr(vs)}")
        rows = {None: len(vs)} if nullable else {}
        try:  # TypeError: an entry unhashable or no string; ValueError: no decimal
            index = np.fromiter(map(rows.setdefault, vs, count()), np.uint32, len(vs))
            firsts = np.fromiter(rows.values(), np.int64, len(rows))[nullable:]
            strings = list(rows)[nullable:]
            del rows  # freed before the conversion's arrays are made
            for lo in range(0, len(strings), _BLOCK):
                text = "," + ",".join(strings[lo:lo + _BLOCK])
                if ",+" in text or text.translate(_DECIMAL_CHARS):
                    raise ValueError("not a decimal string")
            distinct = np.fromiter(map(float, strings), np.float64, len(strings))
        except (TypeError, ValueError):
            _first_non_decimal(vs, nullable)
            raise
        # the table holds no reference to the strings
        rank = np.empty(len(vs) + 1, np.min_scalar_type(len(distinct)))
        rank[firsts] = np.arange(len(distinct))
        rank[-1] = len(distinct)  # a null's row, past the table
        index = rank[index]
        decimals = cls(np.append(distinct, math.nan)[index],
                       index == len(distinct) if nullable else None)
        decimals._table, decimals._index = _Table(distinct), index
        return decimals

    def live(self) -> np.ndarray:
        """The indices of the entries that are not null."""
        n = len(self.values)
        return np.arange(n) if self.null is None else np.flatnonzero(~self.null)

    def table(self) -> Tuple[_Table, np.ndarray]:
        """(table, index): the entry k that is not null is
        ``table.values[index[k]]``, bitwise, and a null entry's row is the
        last (``index`` of the smallest unsigned type that holds it).  Taken
        on first use: for a list built from values, the distinct bit patterns
        of its live values (np.unique of the values would merge -0.0 into
        0.0); for a part, its list's table and index; for the halves, a table
        of its list's values / 2.0 (so each entry is bitwise its own half,
        where a subnormal half rounds too) on its list's index."""
        if self._index is None:
            if self._of is None:
                live = self.live()
                keys, inverse = np.unique(self.values[live].view(np.int64), return_inverse=True)
                table = _Table(keys.view(np.float64))
                index = np.full(len(self.values), len(keys), np.min_scalar_type(len(keys)))
                index[live] = inverse
            else:
                (of, k), self._of = self._of, None
                table, index = of.table()
                table, index = ((_Table(table.values / 2.0), index) if k is None
                                else (table, index[k]))
            self._table, self._index = table, index
        return self._table, self._index

    def halved(self) -> "Decimals":
        """The entries halved, on this list's index (``table``)."""
        half = Decimals(self.values / 2.0, self.null)
        half._of = (self, None)
        return half

    def block_texts(self, lo: int, hi: int) -> list:
        """The bare texts of the entries lo..hi-1, ``null`` at a null entry."""
        table, index = self.table()
        if not self._written:
            table.write(index)
            self._written = True
        return table.texts[index[lo:hi]].tolist()

    def tolist(self) -> list:
        vs = self.values.tolist()
        if self.null is not None:
            for i in np.flatnonzero(self.null).tolist():
                vs[i] = None
        return vs

    def __len__(self):
        return len(self.values)

    def __iter__(self):
        return iter(self.tolist())

    def __getitem__(self, k):
        """An entry for an index; for a slice or an index array, the entries
        on this list's table."""
        if not isinstance(k, (slice, np.ndarray)):
            return None if self.null is not None and self.null[k] else float(self.values[k])
        part = Decimals(self.values[k], None if self.null is None else self.null[k])
        # a part and ``halved`` take their tables when first written, not
        # here: taken at once, the report's index arrays and halves' texts
        # were held before they were needed, and the peak of a word-length-6
        # ``verify`` rose from 62.8 to 64.3 MB
        part._of = (self, k)
        return part

    def __eq__(self, other):
        if not isinstance(other, Decimals):
            return NotImplemented
        live = self.live()
        return (np.array_equal(live, other.live()) and len(self) == len(other)
                and np.array_equal(self.values[live], other.values[live]))

    def __hash__(self):
        return hash(tuple(self.tolist()))

    def __repr__(self):
        return f"Decimals({self.tolist()!r})"


def _first_non_decimal(vs: list, nullable: bool) -> None:
    """Raise on the first entry of ``vs`` that is no decimal string (nor a
    null, when ``nullable``)."""
    for v in vs:
        if not (nullable and v is None):
            DECIMAL.decode(v, None)


_KERNEL_MIN = 512  # distinct values below which a block costs less through ``%``
_KERNEL_RANGE = (1e-280, 1e280)  # the magnitudes the kernel takes
_SPLIT = 134217729.0  # 2**27 + 1, Veltkamp's constant: a double into two 26-bit halves
_TIE_BAND = 2.0 ** -46  # the deferral band, above the error of the scaled value
_POW10 = np.array([10 ** j for j in range(18)], np.int64)
# the layouts of "%.17g" of a positive value by row: integer, fixed with a
# fraction, exponent without and with a fraction, then "0." and 0 to 3 zeros
# before the digits (-5 < k < 0); each row's template and its integers out
# of (integer part, fraction width, fraction, exponent); templates with the
# leading zeros as arguments wrote 67,179 margins in 30 ms instead of 20 ms
_TEMPLATES = (("%d", (0,)), ("%d.%0*d", (0, 1, 2)), ("%de%+03d", (0, 3)),
              ("%d.%0*de%+03d", (0, 1, 2, 3)), *((f"0.{'0' * j}%d", (2,)) for j in range(4)))


def _pow10_parts(p: int) -> Tuple[float, float, float, float]:
    """10**p as hi + lo: hi the double nearest 10**p, lo the double nearest
    10**p - hi, from exact integers (int to float and int true division both
    round correctly); with the Veltkamp halves of hi, as (hi, its high half,
    its low half, lo)."""
    if p >= 0:
        hi = float(10 ** p)
        lo = float(10 ** p - int(hi))
    else:
        scale = 10 ** -p
        hi = 1 / scale
        num, den = hi.as_integer_ratio()
        lo = (den - num * scale) / (den * scale)
    c = hi * _SPLIT
    high = c - (c - hi)
    return hi, high, hi - high, lo


def _digits(x: np.ndarray) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(proved, n, k): the indices of the values of ``x`` whose ``"%.17g"``
    this kernel proves, and for each the 17 significant digits n (10**16 <=
    n < 10**17) and the decimal exponent k: x rounded to 17 significant
    digits is n * 10**(k - 16).  Only positive values are proved: every long
    list the program writes (margins, eps, their halves) is positive.

    With k0 = floor(log10 x), which may miss the decade near a power of
    ten, and p = 16 - k0, the scaled value S = x 10**p is taken as hi + s
    in float64 alone, no FMA, each operation its own ufunc call:
    10**p = P_hi + P_lo (``_pow10_parts``); hi + lo = x P_hi exactly
    (Dekker's product over the Veltkamp halves); t = RN(x P_lo) and
    s = RN(lo + t).  With u = 2**-53, |10**p - P_hi - P_lo| <= u**2 10**p,
    |t - x P_lo| <= (1 + u) u**2 S and |s - lo - t| <= u (|lo| + |t|) <=
    2 (1 + u)**2 u**2 S, so |S - hi - s| < 4.01 u**2 S + 2**-140 (underflow
    in P_lo or t) < 2**-46.9 wherever S <= 2**57.

    Where n = int(hi) + rint(s) >= 10**16, hi >= 2**53 is an integer, so n
    and f = s - rint(s) are exact.  A value is proved when |f| < 1/2 - 2**-46
    (``_TIE_BAND``: S is not within the error of a tie, so n = round(S)),
    n <= 10**17 and n - 10**16 + f >= 2**-46 (10**16 < S < 10**17 + 1/2, so
    k0 is the decade, and n = 10**17, the carry to 10**16 at k0 + 1, is right
    for S >= 10**17 too).  The rest are deferred: exact and near ties, and
    products outside the decade, which the exact powers 1 ... 1e16 and
    values within a few ulps of a power of ten can give.  1e-280 <= x <
    1e280 keeps x, P_hi and their splits finite and every partial product
    normal; negative values, zeros, infinities, NaN and other magnitudes are
    not proved."""
    proved = np.flatnonzero((x >= _KERNEL_RANGE[0]) & (x < _KERNEL_RANGE[1]))
    a = x[proved]
    if not len(a):
        return proved, proved, proved
    k = np.floor(np.log10(a)).astype(np.int64)
    p = 16 - k
    low = int(p.min())
    parts = np.array([_pow10_parts(j) for j in range(low, int(p.max()) + 1)])
    b, b_h, b_l, b_lo = parts.take(p - low, 0).T
    c = a * _SPLIT
    a_h = c - (c - a)
    a_l = a - a_h
    hi = a * b
    s = a_h * b_h  # Dekker: lo = ((a_h b_h - hi) + a_h b_l + a_l b_h) + a_l b_l
    s -= hi
    s += a_h * b_l
    s += a_l * b_h
    s += a_l * b_l
    s += a * b_lo
    r = np.rint(s)
    s -= r
    n = hi.astype(np.int64)
    n += r.astype(np.int64)
    ok = np.abs(s) < 0.5 - _TIE_BAND
    ok &= n <= 10 ** 17
    ok &= (n - 10 ** 16) + s >= _TIE_BAND
    n, k = n[ok], k[ok]
    carry = n == 10 ** 17
    n -= carry * (9 * 10 ** 16)
    k += carry
    return proved[ok], n, k


def _digit_texts(n: np.ndarray, k: np.ndarray) -> Sequence[str]:
    """The texts ``"%.17g" % v`` of the positive values v of digits n and
    exponent k (``_digits``), a list or an object array: the digits lose the
    trailing zeros after the point (all 16 at most), are split at the point
    into an integer part and a fraction with its width, and each layout's
    values are written by one ``%`` of its integer template."""
    fixed = (k >= -4) & (k <= 16)
    width = np.where(fixed, 16 - k, 16)  # digits after the point, trailing zeros too
    m = n.copy()
    tens = np.flatnonzero(n % 10 == 0)
    if len(tens):
        t, zeros = m[tens], np.zeros(len(tens), np.int64)
        for d in (16, 8, 4, 2, 1):
            q, rem = np.divmod(t, _POW10[d])
            strip = rem == 0
            t = np.where(strip, q, t)
            zeros += strip * d
        zeros = np.minimum(zeros, width[tens], out=zeros)  # an integer part keeps its zeros
        width[tens] -= zeros
        m[tens] //= _POW10[zeros]
    scale = _POW10[np.minimum(width, 17)]
    whole = m // scale
    m -= whole * scale
    row = np.where(fixed, np.where(k < 0, 2 - k, 0), 2)
    row += width > 0
    columns = (whole, width, m, k)
    rows = np.flatnonzero(np.bincount(row)).tolist()
    if len(rows) == 1:
        return _layout_texts(rows[0], columns)
    texts = np.empty(len(n), object)
    for r in rows:
        at = np.flatnonzero(row == r)
        texts[at] = _layout_texts(r, [c[at] for c in columns])
    return texts


def _layout_texts(row: int, columns) -> list:
    """The texts of one layout, by one ``%`` of its template."""
    template, used = _TEMPLATES[row]
    args = [columns[j] for j in used]
    args = args[0] if len(args) == 1 else np.stack(args, 1).ravel()
    return ("\n".join([template] * len(columns[0])) % tuple(args.tolist())).split("\n")


def _percent(x: np.ndarray) -> list:
    """``"%.17g" % v`` for each value v of ``x``, by one ``%``."""
    vs = x.tolist()
    return ("\n".join(["%.17g"] * len(vs)) % tuple(vs)).split("\n")


def _texts(x: np.ndarray, rows: np.ndarray, texts: Optional[np.ndarray] = None) -> np.ndarray:
    """The bare texts of a table of the values ``x``, an object array, or
    ``texts`` when given: ``"%.17g" % x[r]`` for each index r of ``rows``
    and, in a new array, None at the others and a last entry ``null``.  The
    rows are written ``_BLOCK`` at a time: the values ``_digits`` proves by
    ``_digit_texts``, the others (and every value of a block of fewer than
    ``_KERNEL_MIN``) by ``_percent``."""
    # the kernel holds over a dozen temporaries of the values' size: over
    # the whole array at once they raised the peak of a word-length-6
    # ``verify`` from 62.8 to 72.6 MB
    if texts is None:
        texts = np.empty(len(x) + 1, object)
        texts[-1] = "null"
    for lo in range(0, len(rows), _BLOCK):
        at = rows[lo:lo + _BLOCK]
        block = x[at]
        proved, n, k = _digits(block) if len(block) >= _KERNEL_MIN else (np.arange(0),) * 3
        rest = np.ones(len(block), bool)
        rest[proved] = False
        if rest.any():
            texts[at[rest]] = _percent(block[rest])
        if len(proved):
            texts[at[proved]] = _digit_texts(n, k)
    return texts


def _decimals_text(vs, indent: str) -> Iterable[str]:
    """The text of a list of decimals (and nulls), a block at a time: the
    block's table texts quoted by one join, and, in a block with a null,
    the quotes taken off each ``null`` (no decimal text holds an ``l``)."""
    d = Decimals.of(vs)

    def block(lo, hi, inner):
        texts = d.block_texts(lo, hi)
        texts[0] = '"' + texts[0]  # the quotes go on the ends, so the join is the one copy
        texts[-1] += '"'
        text = ('",\n' + inner + '"').join(texts)
        return text if d.null is None or not d.null[lo:hi].any() else text.replace('"null"', "null")
    return _list_pieces(len(d), block, indent)


def _decimal_array(nullable: bool) -> Codec:
    """Codec of a list of decimals held as ``Decimals``; nulls when
    ``nullable``."""
    item = {"anyOf": [{"type": "null"}, _DECIMAL_SCHEMA]} if nullable else _DECIMAL_SCHEMA
    return Codec(lambda vs: [None if v is None else _fmt(v) for v in vs],
                 lambda vs, m: Decimals.parse(vs, nullable), {"type": "array", "items": item},
                 text=_decimals_text)


DECIMAL_ARRAY = _decimal_array(False)
NULLABLE_DECIMAL_ARRAY = _decimal_array(True)
INTEGER = Codec(_same, _checked(_is_int, "an integer"), {"type": "integer"},
                text=_scalar_text(int.__repr__))
# a few decimals held as a tuple (alphas, a bump's coefficients)
DECIMALS = list_of(DECIMAL)
INTEGERS = list_of(INTEGER)


class Ragged(NamedTuple):
    """Integer lists held flat: list k is ``values[bounds[k - 1]:bounds[k]]``
    (from 0 for k = 0), ``values`` and ``bounds`` being 1-D integer arrays."""

    values: np.ndarray
    bounds: np.ndarray

    @classmethod
    def of(cls, lists) -> "Ragged":
        """The lists of a sequence of integer sequences.  Integers beyond
        int64, which only a document can hold, go into an object array."""
        lists = [tuple(c) for c in lists]
        flat = [v for c in lists for v in c]
        try:
            values = np.array(flat, np.int64)
        except OverflowError:
            values = np.array(flat, object)
        return cls(values, np.cumsum([len(c) for c in lists], dtype=np.int64))

    def lists(self) -> list:
        """The lists, as lists of Python integers."""
        vs, ends = self.values.tolist(), self.bounds.tolist()
        return [vs[a:b] for a, b in zip([0] + ends, ends)]


def _ragged_text(r: Ragged, indent: str) -> Iterable[str]:
    """The text of the lists of ``r``, each block of ``_BLOCK`` of them one
    ``%`` of a template over its values, joined from one template per list
    length."""
    templates = {0: "[]"}
    ends = np.concatenate(([0], r.bounds))

    def block(lo, hi, inner):
        at = ",\n" + inner + "  "
        b = ends[lo:hi + 1]
        sizes = (b[1:] - b[:-1]).tolist()
        for k in set(sizes).difference(templates):
            templates[k] = "[" + at[1:] + at.join(["%d"] * k) + "\n" + inner + "]"
        return (",\n" + inner).join(map(templates.__getitem__, sizes)) % tuple(
            r.values[b[0]:b[-1]].tolist())
    return _list_pieces(len(r.bounds), block, indent)


INTEGER_LISTS = Codec(Ragged.lists,
                      _checked(lambda v: isinstance(v, list) and all(map(_int_list, v)),
                               "lists of integers", Ragged.of),
                      {"type": "array", "items": INTEGERS.schema}, text=_ragged_text)
BOOLEAN = Codec(_same, _checked(lambda v: isinstance(v, bool), "a boolean"), {"type": "boolean"},
                text=_scalar_text(lambda v: "true" if v else "false"))
NUMBER = Codec(_same, _checked(lambda v: _is_int(v) or isinstance(v, float), "a number"),
               {"type": "number"})
STRING = Codec(_same, _checked(lambda v: isinstance(v, str), "a string"), {"type": "string"},
               text=_scalar_text(encode_basestring_ascii))


class Columns(tuple):
    """Rows held as one 1-D array per column, for ``rows``: the k-th row is
    the k-th entry of every column."""


def _row_values(rs, columns: Sequence[Codec]) -> Tuple[Callable[[int, int], list], list]:
    """The values of rows lo..hi-1 of ``rs``, row after row, as one list, and
    the ``%`` cell of each column: ``rs`` is ``Columns``, a 2-D array or a
    sequence of rows.  A decimal column of ``Columns`` gives the bare texts of
    its ``Decimals`` table, through the quoted cell ``"%s"``."""
    width = len(columns)
    if isinstance(rs, Columns):
        cols = [Decimals.of(col) if c is DECIMAL else col for c, col in zip(columns, rs)]

        def values(lo, hi):
            flat = [None] * ((hi - lo) * width)
            for k, col in enumerate(cols):
                flat[k::width] = (col.block_texts(lo, hi) if isinstance(col, Decimals)
                                  else col[lo:hi].tolist())
            return flat
        return values, ["%d" if c is INTEGER else '"%s"' for c in columns]
    cells = ["%d" if c is INTEGER else _QUOTED for c in columns]
    if isinstance(rs, np.ndarray):
        return lambda lo, hi: rs[lo:hi].ravel().tolist(), cells
    return lambda lo, hi: list(chain.from_iterable(rs[lo:hi])), cells


def rows(*columns: Codec) -> Codec:
    """Codec of a list of rows of ``len(columns)`` scalars, the k-th entry of
    each by the k-th codec.  A value is a sequence of rows, a 2-D array or
    ``Columns``; ``decode`` gives a tuple of row tuples.  ``encode`` goes a
    column at a time, which beats row by row.  When every column is an
    integer or a decimal, ``text`` writes each block of ``_BLOCK`` rows with
    one ``%`` of a template over the block's values, taken from the arrays
    without a tuple per row (a decimal column of ``Columns``: the bare texts
    of its ``Decimals`` table, which the template quotes); other rows go
    through ``json.dumps``."""
    width = len(columns)

    def text(rs, indent):
        (values, cells), templates = _row_values(rs, columns), {}

        def block(lo, hi, inner):
            k = hi - lo
            if k not in templates:
                at = ",\n" + inner + "  "
                row = "[" + at[1:] + at.join(cells) + "\n" + inner + "]"
                templates[k] = (",\n" + inner).join([row] * k)
            return templates[k] % tuple(values(lo, hi))
        return _list_pieces(len(rs[0]) if isinstance(rs, Columns) else len(rs), block, indent)

    def encode(rs):
        cols = [col.tolist() for col in rs] if isinstance(rs, Columns) else zip(*rs)
        return [list(r) for r in zip(*[list(map(c.encode, col)) for c, col in zip(columns, cols)])]

    return Codec(
        encode,
        _checked(lambda v: isinstance(v, list) and all(
            isinstance(r, list) and len(r) == width for r in v), f"rows of {width} entries",
            lambda v: tuple(tuple(c.decode(x, None) for c, x in zip(columns, r)) for r in v)),
        {"type": "array", "items": {"type": "array", "prefixItems": [c.schema for c in columns],
                                    "items": False, "minItems": width}},
        text=text if all(c is INTEGER or c is DECIMAL for c in columns) else None)


def _manifolds(*tags: str) -> Codec:
    return Codec(lambda m: m.value,
                 _checked(lambda v: v in tags, f"manifold {' or '.join(tags)}", Manifold),
                 {"enum": list(tags)},
                 text=_scalar_text(lambda m: encode_basestring_ascii(m.value)))


NUMBERS = list_of(NUMBER)
STRINGS = list_of(STRING)
MANIFOLD = _manifolds("I", "S1")  # the manifolds of the decision theorem
ANY_MANIFOLD = _manifolds(*(m.value for m in Manifold))  # the line too
NODE = Codec(lambda e: expr_to_node(e), lambda v, m: node_to_expr(v, m), _NODE_REF)
NODE_LIST = list_of(NODE)
# the bumps of a perturbed map: polynomial on I, trigonometric on S1
_BUMP_CLASS = {Manifold.INTERVAL: BumpPoly, Manifold.CIRCLE: BumpTrig}
BUMPS = Codec(lambda bs: [encode(b, BUMP_FIELDS[type(b)]) for b in bs],
              lambda vs, m: tuple(build(_BUMP_CLASS[m], v, BUMP_FIELDS[_BUMP_CLASS[m]], "bump", m)
                                  for v in vs),
              {"type": "array", "items": {"$ref": "#/$defs/bump"}})


def records(*keys: str) -> Codec:
    """Codec of a list of JSON objects, each with ``keys`` among its own."""
    return Codec(list, _checked(lambda v: isinstance(v, list) and all(
        isinstance(r, dict) and r.keys() >= set(keys) for r in v),
        f"a list of objects with {', '.join(keys)}", tuple),
        {"type": "array", "items": {"type": "object", "required": list(keys)}})


Fields = Tuple[Tuple[str, Codec], ...]

BUMP_FIELDS: Dict[type, Fields] = {
    BumpPoly: (("c", DECIMAL), ("stage", INTEGER), ("k", INTEGER), ("t_coeffs", DECIMALS),
               ("sup_bound", OPTIONAL_DECIMAL), ("deriv_bound", OPTIONAL_DECIMAL)),
    BumpTrig: (("c", DECIMAL), ("stage", INTEGER), ("phase", DECIMAL),
               ("sup_bound", OPTIONAL_DECIMAL), ("deriv_bound", OPTIONAL_DECIMAL)),
}

NODES: Dict[str, Tuple[type, Fields]] = {cls.KIND: (cls, fields) for cls, fields in (
    (Identity, ()),
    (MobiusI, (("alpha", DECIMAL),)),
    (RotationS1, (("theta", DECIMAL),)),
    (SineShear, (("a", DECIMAL),)),
    (Translation, (("c", DECIMAL),)),
    (PerturbedF, (("bumps", BUMPS),)),
    (PerturbedLiftS1, (("bumps", BUMPS),)),
    (Compose, (("parts", NODE_LIST),)),
    (Inverse, (("inner", NODE),)),
    (Power, (("inner", NODE), ("exponent", INTEGER))),
)}


def encode(obj, fields: Optional[Fields] = None) -> dict:
    """The JSON object of ``obj`` by ``fields``, by default the ``FIELDS``
    table of its class: a document class takes this as its ``to_dict``."""
    doc = {}
    for name, codec in type(obj).FIELDS if fields is None else fields:
        v = getattr(obj, codec.attr or name)
        if not (codec.optional and v is None):
            doc[name] = codec.encode(v)
    return doc


class _ObjectError(ExprFormatError):
    """A decoding error that names its object, as ``build``'s do."""


def build(cls: Callable, d: dict, fields: Fields, what: str, manifold: Optional[Manifold] = None):
    """Decode the fields of ``d`` and pass them to ``cls`` by attribute name;
    ``what`` names the object in errors, followed by the key of the field
    whose value failed.  The node and bump fields take ``manifold``, which a
    document gives by its own tag."""
    try:
        if manifold is None and "manifold" in d:
            manifold = MANIFOLD.decode(d["manifold"], None)
        values = {}
        for name, codec in fields:
            if codec.decode and not (codec.optional and name not in d):
                values[codec.attr or name] = _field(name, codec.decode, d[name], manifold)
        return cls(**values)
    except (KeyError, TypeError, ValueError) as exc:
        raise _ObjectError(f"bad {what}: {exc}") from exc


def _field(name: str, decode: Callable, value, manifold: Optional[Manifold]):
    """``decode(value, manifold)``; an error that names no object of its own
    (a nested document's does) takes the field's key."""
    try:
        return decode(value, manifold)
    except _ObjectError:
        raise
    except (KeyError, TypeError, ValueError) as exc:
        raise ExprFormatError(f"{name}: {exc}") from exc


# ---------------------------------------------------------------------------
# documents: a class with a ``FIELDS`` table takes ``to_dict`` (``encode``) and,
# when its documents are read back, ``from_dict`` from here, and ``schemas``
# publishes ``object_schema`` of its table


def loader(what: str) -> classmethod:
    """A ``from_dict`` that builds the class from its ``FIELDS`` table."""
    return classmethod(lambda cls, d: build(cls, d, cls.FIELDS, what))


def object_schema(fields: Fields) -> dict:
    return {"type": "object",
            "required": [name for name, codec in fields if not codec.optional],
            "properties": {name: codec.schema for name, codec in fields}}


def _object_text(fields: Fields):
    """Text writer of an object by ``fields``, field by field in sorted key
    order."""
    order = [(encode_basestring_ascii(name) + ": ", codec.attr or name, codec)
             for name, codec in sorted(fields, key=lambda f: f[0])]

    def text(obj, indent):
        inner = indent + "  "
        opened = False
        for key, attr, codec in order:
            v = getattr(obj, attr)
            if not (codec.optional and v is None):
                yield (",\n" if opened else "{\n") + inner + key
                yield from _pieces(codec, v, inner)
                opened = True
        yield "\n" + indent + "}" if opened else "{}"
    return text


def write(obj, fh) -> None:
    """Write the document of ``obj``, by the ``FIELDS`` table of its class,
    to the text file ``fh``: ``json.dumps(obj.to_dict(), sort_keys=True,
    indent=2)`` and a newline, in pieces."""
    fh.writelines(_object_text(type(obj).FIELDS)(obj, ""))
    fh.write("\n")


def document(cls: type, **kw) -> Codec:
    """Codec of a document nested in another, by the ``FIELDS`` table of its
    class; ``kw`` sets ``optional`` or ``attr``."""
    return Codec(encode, lambda v, m: cls.from_dict(v), object_schema(cls.FIELDS),
                 text=_object_text(cls.FIELDS), **kw)


def nullable(codec: Codec) -> Codec:
    """``codec``, with None written as JSON null."""
    return replace(codec, encode=lambda v: None if v is None else codec.encode(v),
                   decode=lambda v, m: None if v is None else codec.decode(v, m),
                   schema={"anyOf": [{"type": "null"}, codec.schema]},
                   text=codec.text and (lambda v, indent: ("null",) if v is None
                                        else codec.text(v, indent)))


# diffeo cannot import this module, so the table of its fixed-point set is here
FixedPointSet.FIELDS = (
    ("points", NUMBERS),
    ("flags", replace(STRINGS, schema={"type": "array",
                                       "items": {"enum": ["transverse", "tangency-suspect"]}})),
    ("residual_tol", NUMBER), ("interval_signs", INTEGERS), ("degenerate", BOOLEAN),
    ("grid_n", INTEGER))
FixedPointSet.to_dict = encode


def expr_to_node(e: DiffeoExpr) -> dict:
    return {"kind": e.KIND, **encode(e, NODES[e.KIND][1])}


def node_to_expr(node: dict, manifold: Manifold) -> DiffeoExpr:
    try:
        kind = node["kind"]
    except (TypeError, KeyError):
        raise ExprFormatError("node without a 'kind' field")
    if not isinstance(kind, str) or kind not in NODES:
        raise ExprFormatError(f"unknown node kind {kind!r}")
    cls, fields = NODES[kind]
    want = getattr(cls, "manifold", None)  # the manifold the class fixes, if any
    if isinstance(want, Manifold) and want is not manifold:
        raise ExprFormatError(f"{kind!r} node requires manifold {want.value}, got {manifold.value}")
    if cls is Identity:
        return Identity(manifold)
    return build(cls, node, fields, f"{kind!r} node", manifold)


def expr_to_dict(e: DiffeoExpr) -> dict:
    return {"manifold": e.manifold.value, "expr": expr_to_node(e)}


def dict_to_expr(d: dict) -> DiffeoExpr:
    try:
        m = Manifold(d["manifold"])
    except (KeyError, TypeError, ValueError):
        raise ExprFormatError("document lacks a valid 'manifold' tag")
    return node_to_expr(d["expr"], m)


def dumps_expr(e: DiffeoExpr) -> str:
    return json.dumps(expr_to_dict(e), sort_keys=True, indent=2)


@contextlib.contextmanager
def nesting_limit():
    """Decode a document inside: the JSON parser and the decoders recurse
    once per nesting level, so a document nested beyond the interpreter's
    recursion limit raises ``ExprFormatError`` instead of RecursionError."""
    try:
        yield
    except RecursionError:
        raise ExprFormatError(
            "document nested too deeply: decoding it exceeds the recursion limit "
            f"of {sys.getrecursionlimit()} frames") from None


def loads_expr(text: str) -> DiffeoExpr:
    with nesting_limit():
        try:
            d = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ExprFormatError(f"invalid JSON: {exc}") from exc
        return dict_to_expr(d)
