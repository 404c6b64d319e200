"""cliqueforest benchmark: drives ``cliqueforest.cli.main`` in one process.

    python3 perfbench/run.py --workload deep-schedule --seed 1 --seconds 20 --trace 0

Run from the repository root.  The seed fixes every input file.  Each pass
runs the workload's commands, times them, then checks every output against
the answer the input generator kept.  Passes repeat while the next one is
expected to end within ``--seconds`` (at least one pass).  ``--trace 0``
prints the end-to-end metrics; ``--trace 1`` runs one untraced pass, then
traced passes, and prints the per-layer metrics.  ``--smoke`` runs the same
code at tiny sizes.  The last line of standard output is one JSON object.
"""
from __future__ import annotations

import os

# the benchmark's own process and its children: one BLAS/OpenMP thread, so
# numpy cannot oversubscribe the cores the single-threaded CLI runs on
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import json
import platform
import random
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(HERE, "_work")

import checks  # noqa: E402  (sibling modules of this script)
import inputs  # noqa: E402
import spans  # noqa: E402
import speed  # noqa: E402
from checks import Result  # noqa: E402

WORKLOADS = ("deep-schedule", "wide-forest", "decide-obstruct")
SETUP_REPEATS = 3
SIDE_REPS = 60  # repetitions per pass of a workload's small side commands
SIDE_REPS_DECIDE_OBSTRUCT = 9  # synthesize and verify of K1+K1 there
OBSTRUCT_REPS = 3  # repetitions of the quadruple searches on decide-obstruct
KINDS = ("decide", "synthesize", "verify", "obstruct")

_clock = time.perf_counter


# ---------------------------------------------------------------------------
# workloads


@dataclass
class Op:
    argv: List[str]
    check: Callable[[Optional[int]], Result]
    probe: str = ""  # non-empty: a known defect, checked and reported apart


@dataclass
class Group:
    """Commands of one kind, repeated ``reps`` times per pass."""

    kind: str
    ops: List[Op]
    reps: int = 1


def _decide_op(files, name: str, g: inputs.Graph, text: str, manifold: str = "I") -> Op:
    src, out = files.write(name, text), files.out(name + ".json")
    return Op(["decide", src, "--manifold", manifold, "--out", out],
              lambda rc: checks.check_decide(rc, out, g, manifold))


def _synth_groups(files, g: inputs.Graph, manifold: str, word_len: int,
                  reps: int) -> List[Group]:
    """synthesize one clique forest, then verify the written assignment."""
    src = files.write("synth.txt", inputs.edge_list_text(g))
    asg, rep, ver = (files.out(f"synth.{s}.json") for s in ("asg", "report", "verify"))
    wl = str(word_len)
    synth = Op(["synthesize", src, "--manifold", manifold, "--word-len", wl,
                "--out", asg, "--report", rep],
               lambda rc: checks.check_synthesize(rc, asg, rep, g, manifold, word_len))
    verify = Op(["verify", asg, "--word-len", wl, "--out", ver],
                lambda rc: checks.check_verify(rc, ver, g, manifold, word_len))
    return [Group("synthesize", [synth], reps), Group("verify", [verify], reps)]


def _ball_op(files, radius: int) -> Op:
    out = files.out(f"ball{radius}.json")
    return Op(["obstruct", "--radius", str(radius), "--out", out],
              lambda rc: checks.check_obstruct_ball(rc, out, radius))


def _bursts(groups: List[Group], side: List[Group]) -> List[Group]:
    """Split the side groups into bursts before, between and after the main
    groups, so that their samples span the pass instead of a fraction of a
    second of it (the host's speed drifts over seconds)."""
    burst = [Group(g.kind, g.ops, max(1, g.reps // (len(groups) + 1))) for g in side]
    out = list(burst)
    for g in groups:
        out += [g] + burst
    return out


def plan_synthesis(files, rng, smoke: bool, sizes, manifold: str,
                   word_len: int) -> List[Group]:
    """deep-schedule and wide-forest: one synthesize and one verify per pass.
    The decision on the same graph and a radius-2 obstruction run as small
    side commands, so that every command's metric exists."""
    if smoke:
        sizes, word_len = (2, 1), 2
    g = inputs.clique_forest(sizes, rng)
    side = [
        Group("decide", [_decide_op(files, "forest.txt", g, inputs.edge_list_text(g),
                                    manifold)], SIDE_REPS),
        Group("obstruct", [_ball_op(files, 2)], SIDE_REPS),
    ]
    return _bursts(_synth_groups(files, g, manifold, word_len, 1), side)


def plan_decide_obstruct(files, rng, smoke: bool) -> List[Group]:
    """Large decisions and exhaustive quadruple searches.  Synthesize and
    verify run only on K1+K1 at word length 2, as small side commands."""
    n_forest, n_elements, radius = (100, 10, 2) if smoke else (200_000, 40, 4)
    big = inputs.random_forest(n_forest, rng)
    cut = inputs.drop_one_edge(big, rng)
    small = inputs.random_forest(30, rng)
    path = inputs.path_graph(6, rng)
    one_line = inputs.Graph(3, [(0, 1), (1, 2)], [(0, 1, 2)], forest=False, missing=(0, 2))
    probe = _decide_op(files, "oneline.dot", one_line, inputs.ONE_LINE_DOT)
    probe.probe = "decide on a one-line DOT document (parse_dot ignores the brace body)"
    decide = [
        _decide_op(files, "forest.txt", big, inputs.edge_list_text(big)),
        _decide_op(files, "cut.txt", cut, inputs.edge_list_text(cut)),
        _decide_op(files, "small.dot", small, inputs.dot_text(small)),
        _decide_op(files, "path.dot", path, inputs.dot_text(path)),
        probe,
    ]
    el = inputs.two_commuting_families(n_elements, rng)
    el_src, el_out = files.write("elements.txt", el.text()), files.out("elements.json")
    obstruct = [
        _ball_op(files, radius),
        Op(["obstruct", "--elements", el_src, "--out", el_out],
           lambda rc: checks.check_obstruct_elements(rc, el_out, el)),
    ]
    side = _synth_groups(files, inputs.clique_forest((1, 1), rng), "I", 2,
                         SIDE_REPS_DECIDE_OBSTRUCT)
    return _bursts([Group("decide", decide), Group("obstruct", obstruct, OBSTRUCT_REPS)],
                   side)


def make_plan(workload: str, seed: int, root: str, smoke: bool) -> List[Group]:
    rng = random.Random(f"{workload}:{seed}")
    files = inputs.InputSet(root)
    if workload == "deep-schedule":
        return plan_synthesis(files, rng, smoke, (2, 3), "I", 6)
    if workload == "wide-forest":
        return plan_synthesis(files, rng, smoke, (6, 2, 2, 2), "S1", 4)
    return plan_decide_obstruct(files, rng, smoke)


# ---------------------------------------------------------------------------
# one pass


@dataclass
class PassResult:
    wall: float = 0.0  # including the benchmark's checks
    op_time: float = 0.0  # CLI calls only; scaled seconds when probed
    samples: Dict[str, List[float]] = field(default_factory=dict)  # kind -> rep times
    raw: Dict[str, List[float]] = field(default_factory=dict)  # kind -> unscaled rep times
    counters: Dict[str, int] = field(default_factory=dict)
    words: int = 0  # scheduled words of one synthesize
    health: List[float] = field(default_factory=list)
    attempted: int = 0
    failures: List[str] = field(default_factory=list)
    probe_failures: List[str] = field(default_factory=list)
    checks: Dict[str, int] = field(default_factory=dict)  # kind -> checks run


def call_cli(main, argv, tracer: Optional[spans.Tracer]):
    """Exit code of one CLI call, or the exception it raised."""
    try:
        if tracer is None:
            return main(argv), None
        return tracer.span("cli.main", main, argv), None
    except SystemExit as exc:  # argparse rejects its arguments this way
        return exc.code, None
    except Exception as exc:  # a crash is a failed op, not a benchmark error
        return None, f"{type(exc).__name__}: {exc}"


def timed_call(main, argv, tracer, probed: bool):
    """(exit code, crash message, scaled seconds, wall seconds) of one call;
    unprobed calls report wall seconds for both."""
    if not probed:
        t0 = _clock()
        rc, crash = call_cli(main, argv, tracer)
        dt = _clock() - t0
        return rc, crash, dt, dt
    with speed.Probe() as probe:
        rc, crash = call_cli(main, argv, tracer)
    return rc, crash, probe.scaled, probe.wall


def run_pass(groups: List[Group], main, tracer=None, probed=False) -> PassResult:
    res = PassResult()
    t_pass = _clock()
    for grp in groups:
        first: List[Optional[dict]] = [None] * len(grp.ops)
        for _ in range(grp.reps):
            rep_time = rep_raw = 0.0
            for i, op in enumerate(grp.ops):
                rc, crash, dt, wall = timed_call(main, op.argv, tracer, probed)
                rep_time += dt
                rep_raw += wall
                if crash is None:
                    try:
                        r = op.check(rc)
                    except (OSError, ValueError, KeyError, TypeError) as exc:
                        r = Result(False, f"unreadable output: {exc!r}")
                else:
                    r = Result(False, crash)
                res.checks[grp.kind] = res.checks.get(grp.kind, 0) + 1
                label = f"{op.argv[0]} {os.path.basename(op.argv[1])}"
                if op.probe:
                    if not r.ok:
                        res.probe_failures.append(f"{op.probe}: {r.why}")
                    continue
                res.attempted += 1
                if not r.ok:
                    res.failures.append(f"{label}: {r.why}")
                    continue
                if first[i] is None:
                    first[i] = r.counters
                elif r.counters != first[i]:
                    res.failures.append(f"{label}: counters differ between repetitions")
                if r.health is not None:
                    res.health.append(r.health)
                if grp.kind == "synthesize":
                    res.words = r.counters["words_scheduled"]
                for k, v in r.counters.items():
                    res.counters[k] = res.counters.get(k, 0) + v
            res.samples.setdefault(grp.kind, []).append(rep_time)
            res.raw.setdefault(grp.kind, []).append(rep_raw)
            res.op_time += rep_time
    res.wall = _clock() - t_pass
    return res


def run_passes(groups, main, seconds: float, tracer=None,
               probed=False) -> List[PassResult]:
    """Passes while the next one is expected to end within ``seconds``."""
    out, t0 = [], _clock()
    while True:
        out.append(run_pass(groups, main, tracer, probed))
        if _clock() - t0 + out[-1].wall > seconds:
            return out


# ---------------------------------------------------------------------------
# set-up


def import_cli_fresh() -> None:
    """Import the CLI in a fresh interpreter, as every user's run does."""
    env = dict(os.environ, PYTHONPATH=SRC)
    subprocess.run([sys.executable, "-c", "import cliqueforest.cli"], env=env,
                   cwd=ROOT, capture_output=True, timeout=120, check=True)


def setup(workload: str, seed: int, smoke: bool, work: str):
    """Import plus input generation, repeated; returns (median seconds,
    plan built by the last repetition)."""
    times, groups = [], None
    for i in range(SETUP_REPEATS):
        root = os.path.join(work, f"inputs{i}")
        os.makedirs(root)
        with speed.Probe() as probe:
            import_cli_fresh()
            groups = make_plan(workload, seed, root, smoke)
        times.append(probe.scaled)
    return statistics.median(times), groups


# ---------------------------------------------------------------------------
# metrics


def _metric(value, unit: str) -> dict:
    return {"value": value, "unit": unit}


def end_to_end(passes: List[PassResult], setup_s: float) -> Dict[str, dict]:
    samples: Dict[str, List[float]] = {}
    for p in passes:
        for k, v in p.samples.items():
            samples.setdefault(k, []).extend(v)
    m = {"setup_s": _metric(setup_s, "s"),
         "run_s": _metric(statistics.median(p.op_time for p in passes), "s")}
    for kind in KINDS:
        m[f"{kind}_s"] = _metric(statistics.median(samples[kind]), "s")
    m["words_per_s"] = _metric(passes[0].words / m["synthesize_s"]["value"], "1/s")
    m["peak_rss_mb"] = _metric(
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB")
    health = [h for p in passes for h in p.health]
    m["margin_health"] = _metric(min(health) if health else None, "ratio")
    return m


VERIFY = "synthesis.verify_assignment"
# per-layer metric -> (unit, how it is read).  Span references are a name or
# (name, parent); "exact" metrics are counters read from the outputs.
LAYER = {
    "diffeo.root_searches": ("count", "count", ["diffeo._solve_increasing"]),
    "diffeo.root_search_s": ("s", "time", ["diffeo._solve_increasing"]),
    "synthesis.margin_evals": ("count", "count", ["synthesis._word_margin"]),
    "synthesis.perturb_f_s": ("s", "time", ["synthesis.perturb_f"]),
    "synthesis.stages_vacuous": ("count", "exact", "stages_vacuous"),
    "synthesis.stages_kept": ("count", "exact", "stages_kept"),
    "synthesis.stages_bumped": ("count", "exact", "stages_bumped"),
    "synthesis.basepoint_retries": ("count", "exact", "basepoint_retries"),
    "synthesis.words_scheduled": ("count", "exact", "words_scheduled"),
    "raag.normal_form_calls": ("count", "count", ["raag.normal_form"]),
    "raag.normal_form_s": ("s", "time", ["raag.normal_form"]),
    "synthesis.enumerate_calls": ("count", "count", [
        "synthesis.enumerate_words", "synthesis.enumerate_words.pure_g"]),
    "synthesis.enumerate_s": ("s", "time", [
        "synthesis.enumerate_words", "synthesis.enumerate_words.pure_g"]),
    "synthesis.choose_alphas_s": ("s", "time", ["synthesis.choose_alphas"]),
    "synthesis.relation_vectors": ("count", "exact", "relation_vectors"),
    "diffeo.commutator_calls": ("count", "count", [
        "diffeo.commutator_residual", "diffeo.commutator_witness"]),
    "diffeo.commutator_s": ("s", "time", [
        "diffeo.commutator_residual", "diffeo.commutator_witness"]),
    "diffeo.grid_points": ("count", "exact", "grid_points"),
    "synthesis.verify.edges_s": ("s", "time", [("diffeo.commutator_residual", VERIFY)]),
    "synthesis.verify.non_edges_s": ("s", "time", [("diffeo.commutator_witness", VERIFY)]),
    "synthesis.verify.margins_s": ("s", "time", [("synthesis._word_margin", VERIFY)]),
    "synthesis.verify.pure_g_s": ("s", "time", [
        ("synthesis.enumerate_words.pure_g", VERIFY), ("raag.normal_form", VERIFY)]),
    "synthesis.verify_s": ("s", "time", [VERIFY]),
    "synthesis.margin_checks": ("count", "exact", "margin_checks"),
    "synthesis.pure_g_checked": ("count", "exact", "pure_g_checked"),
    "serialize.dump_s": ("s", "time", ["serialize.to_dict", "cli._write"]),
    "serialize.load_s": ("s", "time", ["serialize.json_loads", "serialize.from_dict"]),
    "serialize.bytes_out": ("bytes", "exact", "bytes_out"),
    "cli.read_s": ("s", "time", ["cli._read"]),
    "graphs.parse_s": ("s", "time", ["graphs.parse_graph"]),
    "graphs.clique_forest_s": ("s", "time", ["graphs.is_clique_forest"]),
    "raag.embeddable_s": ("s", "time", ["raag.embeddable_raag"]),
    "graphs.vertices": ("count", "exact", "vertices"),
    "graphs.edges": ("count", "exact", "edges"),
    "obstructions.ball_s": ("s", "time", ["obstructions.heisenberg_ball"]),
    "obstructions.quadruple_s": ("s", "time", ["obstructions.find_centralizer_quadruple"]),
    "obstructions.commute_tests": ("count", "count", ["obstructions.commutes_with"]),
    "obstructions.center_s": ("s", "time", ["obstructions.center_nonabelian_check"]),
    "obstructions.elements": ("count", "exact", "elements"),
    "cli.self_s": ("s", "self", ["cli.main"]),
}


def per_layer(tracer: spans.Tracer, missing: Dict[str, str], traced: List[PassResult],
              untraced: PassResult) -> Dict[str, dict]:
    """Per-pass values: span totals divided by the number of traced passes."""
    n = len(traced)
    counters = traced[-1].counters
    m = {}
    for name, (unit, how, ref) in LAYER.items():
        if how == "exact":
            m[name] = _metric(counters.get(ref, 0), unit)
            continue
        absent = [missing[r if isinstance(r, str) else r[0]] for r in ref
                  if (r if isinstance(r, str) else r[0]) in missing]
        if absent:
            m[name] = {"value": None, "unit": unit, "missing": "; ".join(absent)}
            continue
        total = 0
        for r in ref:
            span, parent = (r, None) if isinstance(r, str) else r
            if how == "count":
                total += tracer.count(span, parent)
            elif how == "time":
                total += tracer.total(span, parent)
            else:
                total += tracer.self_time(span)
        m[name] = _metric(total / n if how != "count" else total // n, unit)
    traced_wall = statistics.median(p.op_time for p in traced)
    m["trace.overhead"] = _metric(traced_wall / untraced.op_time, "ratio")
    every = [untraced] + traced
    attempted = sum(p.attempted for p in every)
    m["failed_frac"] = _metric(sum(len(p.failures) for p in every) / attempted, "ratio")
    m["decide.known_defect_fails"] = _metric(len(traced[-1].probe_failures), "count")
    return m


# ---------------------------------------------------------------------------
# run record


def _git_commit() -> Optional[str]:
    head = os.path.join(ROOT, ".git", "HEAD")
    try:
        with open(head) as fh:
            ref = fh.read().strip()
        if not ref.startswith("ref: "):
            return ref
        with open(os.path.join(ROOT, ".git", ref[5:])) as fh:
            return fh.read().strip()
    except OSError:
        return None  # not a git checkout, or a packed ref


def _cpu_model() -> Optional[str]:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def run_record(args, numpy_version: str, load: tuple) -> dict:
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "smoke": args.smoke,
        "python": platform.python_version(), "numpy": numpy_version,
        "nproc": os.cpu_count(), "cpu": _cpu_model(), "loadavg_start": list(load),
        "commit": _git_commit(),
    }


def _quartiles(xs: List[float]) -> str:
    if len(xs) < 2:
        return f"n={len(xs)}"
    q1, _, q3 = statistics.quantiles(xs, n=4)
    return f"n={len(xs)} q1={q1:.4g} q3={q3:.4g}"


# ---------------------------------------------------------------------------


def load_cli():
    """Import the CLI from this checkout's src/, or exit non-zero with a message."""
    sys.path.insert(0, SRC)
    try:
        import numpy
        import cliqueforest
        from cliqueforest.cli import main
    except ImportError as exc:
        sys.exit(f"cannot import cliqueforest from {SRC}: {exc}")
    if os.path.dirname(os.path.abspath(cliqueforest.__file__)) != os.path.join(SRC, "cliqueforest"):
        sys.exit(f"cliqueforest was imported from {cliqueforest.__file__}, not {SRC}")
    return main, numpy.__version__


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true", help="tiny sizes, same code path")
    return ap.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    load = os.getloadavg()
    cli_main, numpy_version = load_cli()
    os.makedirs(WORK, exist_ok=True)
    work = tempfile.mkdtemp(prefix="run-", dir=WORK)
    try:
        setup_s, groups = setup(args.workload, args.seed, args.smoke, work)
        record = run_record(args, numpy_version, load)
        if args.trace:
            untraced = run_pass(groups, cli_main)
            tracer = spans.Tracer()
            with spans.Hooks(tracer) as hooks:
                traced = run_passes(groups, cli_main, args.seconds, tracer)
            passes = [untraced] + traced
            metrics = per_layer(tracer, hooks.missing, traced, untraced)
            for (name, parent), a in sorted(tracer.aggs.items()):
                print(f"# span {name} <- {parent or '-'}: count={a.count} "
                      f"total={a.total:.4f}s self={a.self_time:.4f}s")
        else:
            passes = run_passes(groups, cli_main, args.seconds, probed=True)
            metrics = end_to_end(passes, setup_s)
            for kind in KINDS:
                scaled = [x for p in passes for x in p.samples[kind]]
                raw = [x for p in passes for x in p.raw[kind]]
                print(f"# {kind}_s scaled: median={statistics.median(scaled):.4g} "
                      f"{_quartiles(scaled)}; wall: median={statistics.median(raw):.4g} "
                      f"{_quartiles(raw)}")
    finally:
        shutil.rmtree(work, ignore_errors=True)

    unstable = [f"counters differ between passes {i} and 0"
                for i, p in enumerate(passes) if p.counters != passes[0].counters]
    failures = [f for p in passes for f in p.failures] + unstable
    attempted = sum(p.attempted for p in passes)
    checks_run: Dict[str, int] = {}
    for p in passes:
        for k, v in p.checks.items():
            checks_run[k] = checks_run.get(k, 0) + v
    record.update(
        passes=len(passes), ops_attempted=attempted,
        ops_failed=sum(len(p.failures) for p in passes),
        failed_frac=sum(len(p.failures) for p in passes) / attempted,
        failures=failures[:20], checks=checks_run,
        counters=passes[0].counters,
        known_defects=sorted({f for p in passes for f in p.probe_failures}),
    )
    print("# record " + json.dumps(record, sort_keys=True))
    for name, m in metrics.items():
        print(f"# {name} = {m['value']} {m['unit']}")
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": record["ops_failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
