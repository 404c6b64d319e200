"""Command-line front end.

Exit codes: 0 success/pass, 1 finding (not embeddable, obstruction found,
verification failure), 2 input error (an unreadable input or an unwritable
output included), 3 synthesis stage failure.  All output is deterministic for
a fixed configuration; every document is written by ``serialize.write``.
"""
from __future__ import annotations

import argparse
import contextlib
import json
import math
import os
import sys
from typing import Optional

from . import serialize
from .diffeo import (
    DEFAULT_GRID,
    DiffeoExpr,
    InvariantBreach,
    Manifold,
    fixed_points,
)
from .graphs import parse_graph, to_dot
from .obstructions import (
    ObstructionSearch,
    center_nonabelian_check,
    find_centralizer_quadruple,
    heisenberg_ball,
    parse_oracle,
)
from .raag import EmbeddabilityDecision, commutation_graph, embeddable_raag
from .synthesis import (
    GeneratorAssignment,
    NotEmbeddableError,
    SynthesisError,
    SynthesisOptions,
    synthesize_embedding,
    verify_assignment,
)

EXIT_OK = 0
EXIT_FINDING = 1
EXIT_INPUT = 2
EXIT_SYNTH = 3


class OutputError(Exception):
    """An output file, or stdout, could not be opened or written."""


def _discard_stdout() -> None:
    """Point the stdout file descriptor at the null device, so that the flush
    at interpreter exit does not fail again on a closed pipe."""
    try:
        fd = sys.stdout.fileno()
    except (AttributeError, OSError, ValueError):  # not a file: nothing is flushed at exit
        return
    null = os.open(os.devnull, os.O_WRONLY)
    os.dup2(null, fd)
    os.close(null)


@contextlib.contextmanager
def _output(path: Optional[str]):
    """The file ``path`` opened for writing, or stdout; an OSError while
    opening or writing it is raised as an OutputError."""
    try:
        if path:
            with open(path, "w") as fh:
                yield fh
        else:
            yield sys.stdout
            sys.stdout.flush()  # a closed pipe fails here rather than at exit
    except OSError as exc:
        if not path and isinstance(exc, BrokenPipeError):
            _discard_stdout()
        raise OutputError(f"{path or 'stdout'}: {exc.strerror or exc}") from exc


def _write(doc, out: Optional[str]):
    """Write the document of ``doc``, an object with a ``FIELDS`` table, to
    the file ``out`` or to stdout."""
    with _output(out) as fh:
        serialize.write(doc, fh)


def _read(path: str) -> str:
    with open(path) as fh:
        return fh.read()


def _load_graph(path: str):
    return parse_graph(_read(path))


def _load_expr(path: str) -> DiffeoExpr:
    return serialize.loads_expr(_read(path))


def _manifold(arg: str) -> Manifold:
    try:
        return Manifold({"I": "I", "S1": "S1", "R": "R"}[arg])
    except KeyError:
        raise argparse.ArgumentTypeError(f"unknown manifold {arg!r} (use I or S1)")


def _grid(arg: str) -> int:
    n = int(arg)
    if n < 2:
        raise argparse.ArgumentTypeError(f"grid must be at least 2, got {n}")
    return n


def _word_len(arg: str) -> int:
    n = int(arg)
    if n < 1:
        raise argparse.ArgumentTypeError(f"word length must be at least 1, got {n}")
    return n


def _tol(arg: str) -> float:
    t = float(arg)
    if not (math.isfinite(t) and t > 0):
        raise argparse.ArgumentTypeError(f"tol must be finite and positive, got {arg}")
    return t


def _add_common(p: argparse.ArgumentParser):
    p.add_argument("--tol", type=_tol, default=1e-9)
    p.add_argument("--grid", type=_grid, default=DEFAULT_GRID)
    p.add_argument("--out", help="output file (default: stdout)")


def cmd_decide(args) -> int:
    # the graph is not kept alive while the decision is written
    decision = embeddable_raag(_load_graph(args.graph), args.manifold)
    _write(decision, args.out)
    return EXIT_OK if decision.embeddable else EXIT_FINDING


def cmd_synthesize(args) -> int:
    g = _load_graph(args.graph)
    opts = SynthesisOptions(
        word_len=args.word_len,
        grid_n=args.grid,
        basepoint=args.basepoint,
        alpha_k=args.alpha_k,
    )
    try:
        assignment = synthesize_embedding(g, args.manifold, opts)
    except NotEmbeddableError as exc:
        _write(EmbeddabilityDecision(False, args.manifold, missing_edge=exc.witness), args.out)
        return EXIT_FINDING
    except SynthesisError as exc:
        print(f"synthesis failed: {exc}", file=sys.stderr)
        return EXIT_SYNTH
    _write(assignment, args.out)
    report = verify_assignment(assignment, args.word_len, args.grid, args.tol)
    _write(report, args.report)
    return EXIT_OK if report.ok else EXIT_FINDING


def cmd_verify(args) -> int:
    assignment = GeneratorAssignment.from_dict(json.loads(_read(args.assignment)))
    report = verify_assignment(assignment, args.word_len, args.grid, args.tol)
    _write(report, args.out)
    return EXIT_OK if report.ok else EXIT_FINDING


def cmd_fixpoints(args) -> int:
    e = _load_expr(args.expr)
    domain = (args.lo, args.hi) if e.manifold is Manifold.LINE else None
    fps = fixed_points(e, args.grid, args.tol, domain)
    _write(fps, args.out)
    return EXIT_FINDING if fps.degenerate else EXIT_OK


def cmd_commgraph(args) -> int:
    exprs = [_load_expr(p) for p in args.exprs]
    domain = (args.lo, args.hi) if exprs and exprs[0].manifold is Manifold.LINE else None
    result = commutation_graph(exprs, args.tol, args.power_bound, args.grid, domain)
    if args.dot:
        with _output(args.dot) as fh:
            fh.write(to_dot(result.graph))
    _write(result, args.out)
    return EXIT_OK if result.completeness.ok else EXIT_FINDING


def cmd_obstruct(args) -> int:
    if args.elements:
        oracle = parse_oracle(_read(args.elements))
    else:
        oracle = heisenberg_ball(args.radius)
    cert = find_centralizer_quadruple(oracle)
    _, witness = center_nonabelian_check(oracle)
    result = ObstructionSearch(cert, witness, len(oracle.labels))
    _write(result, args.out)
    return EXIT_FINDING if result.found else EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="cliqueforest",
        description=(
            "Decide which right-angled Artin groups act faithfully by analytic "
            "diffeomorphisms of the interval or circle, build explicit "
            "embeddings, and detect centralizer obstructions."
        ),
    )
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("decide", help="clique-forest embeddability decision")
    p.add_argument("graph", help="edge-list or DOT file")
    p.add_argument("--manifold", type=_manifold, default=Manifold.INTERVAL)
    p.add_argument("--out", help="output file (default: stdout)")
    p.set_defaults(func=cmd_decide)

    p = sub.add_parser("synthesize", help="build and verify an explicit embedding")
    p.add_argument("graph")
    p.add_argument("--manifold", type=_manifold, default=Manifold.INTERVAL)
    p.add_argument("--word-len", type=_word_len, default=6)
    p.add_argument("--basepoint", type=float, default=SynthesisOptions().basepoint)
    p.add_argument("--alpha-k", type=int, default=SynthesisOptions().alpha_k)
    p.add_argument("--report", help="verification report file (default: stdout)")
    _add_common(p)
    p.set_defaults(func=cmd_synthesize)

    p = sub.add_parser("verify", help="re-verify a serialized assignment")
    p.add_argument("assignment")
    p.add_argument("--word-len", type=_word_len, default=None)
    _add_common(p)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("fixpoints", help="fixed points of a serialized expression")
    p.add_argument("expr")
    p.add_argument("--lo", type=float, default=0.0, help="line domain lower bound")
    p.add_argument("--hi", type=float, default=4 * math.pi, help="line domain upper bound")
    _add_common(p)
    p.set_defaults(func=cmd_fixpoints)

    p = sub.add_parser("commgraph", help="empirical commutation graph of expressions")
    p.add_argument("exprs", nargs="+")
    p.add_argument("--power-bound", type=int, default=12)
    p.add_argument("--dot", help="also write the graph as DOT to this file")
    p.add_argument("--lo", type=float, default=0.0)
    p.add_argument("--hi", type=float, default=4 * math.pi)
    _add_common(p)
    p.set_defaults(func=cmd_commgraph)

    p = sub.add_parser("obstruct", help="centralizer-quadruple search")
    p.add_argument("--radius", type=int, default=2, help="Heisenberg ball radius")
    p.add_argument("--elements", help="file of labelled unipotent matrices")
    p.add_argument("--out", help="output file (default: stdout)")
    p.set_defaults(func=cmd_obstruct)
    return ap


_PARSER: Optional[argparse.ArgumentParser] = None  # built on the first call


def main(argv=None) -> int:
    global _PARSER
    if _PARSER is None:
        _PARSER = build_parser()
    args = _PARSER.parse_args(argv)
    try:
        return args.func(args)
    except OutputError as exc:
        print(f"output error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except (ValueError, KeyError, OSError) as exc:
        # graph, expression and JSON format errors, DomainError,
        # TagMismatchError and NotApplicableError are all ValueErrors; an
        # OSError here comes from opening or reading an input file
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except InvariantBreach as exc:
        print(f"invariant breach: {exc}", file=sys.stderr)
        return EXIT_SYNTH
    except MemoryError:
        print(f"input error: {args.command} input too large for memory", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
