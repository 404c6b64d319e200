"""End-to-end acceptance suite.

Each test covers one acceptance criterion and records a single PASS/FAIL
verdict line, echoed after the pytest summary via the conftest hook.
"""
import itertools
import json
import math
import random
import time

import conftest
import mpmath
import numpy as np

from cliqueforest import (
    CliqueForest,
    Compose,
    Inverse,
    Manifold,
    MobiusI,
    SimpleGraph,
    check_component_completeness,
    choose_alphas,
    commutation_graph,
    commutator_residual,
    derivative,
    enumerate_words,
    evaluate,
    find_centralizer_quadruple,
    center_nonabelian_check,
    heisenberg_ball,
    is_clique_forest,
    normal_form,
    remark_counterexample_suite,
    verify_assignment,
)
from cliqueforest.serialize import Decimals
from cliqueforest.synthesis import (
    GeneratorAssignment,
    _word_margin,
)
from conftest import word_is_nontrivial


def _report(criterion: int, ok: bool, detail: str):
    line = f"[criterion {criterion}] {'PASS' if ok else 'FAIL'}: {detail}"
    conftest.ACCEPTANCE_LINES.append(line)
    assert ok, line


# -- criterion 1: exhaustive clique-forest decision on <= 6 vertices ---------


def test_criterion_1_exhaustive_decision():
    n = 6
    pairs = list(itertools.combinations(range(n), 2))  # 15 possible edges
    t0 = time.perf_counter()
    disagreements = 0
    for mask in range(1 << len(pairs)):
        edges = [pairs[i] for i in range(len(pairs)) if mask >> i & 1]
        g = SimpleGraph.from_edges(n, edges)
        got = isinstance(is_clique_forest(g), CliqueForest)
        # definitional check, written independently of the library routine
        want = all(
            g.has_edge(u, v)
            for comp in conftest.ref_components(g)[0]
            for u, v in itertools.combinations(comp, 2)
        )
        if got != want:
            disagreements += 1
    elapsed = time.perf_counter() - t0
    _report(
        1,
        disagreements == 0 and elapsed < 30.0,
        f"decision matches brute force on all {1 << len(pairs)} six-vertex "
        f"graphs ({disagreements} disagreements, {elapsed:.1f}s)",
    )


# -- criterion 2: Mobius composition law -------------------------------------


def test_criterion_2_mobius_composition_law():
    rng = random.Random(20260826)
    xs = [i / 1023 for i in range(1024)]
    worst = 0.0
    for _ in range(100):
        a = rng.uniform(1.0 + 1e-9, math.pi - 1e-9)
        b = rng.uniform(1.0 + 1e-9, math.pi - 1e-9)
        comp = Compose((MobiusI(a), MobiusI(b)))
        prod = MobiusI(a * b)
        worst = max(
            worst, max(abs(evaluate(comp, x) - evaluate(prod, x)) for x in xs)
        )
    _report(
        2,
        worst < 1e-12,
        f"100 random pairs in (1, pi)^2: grid-sup |g_a o g_b - g_ab| = {worst:.3e} < 1e-12",
    )


# -- criterion 3: synthesis on K2 + K3, word length 6 ------------------------


def test_criterion_3_k2_k3_synthesis(k2_k3_assignment, k2_k3_synthesis_seconds):
    asg = k2_k3_assignment
    exprs = asg.exprs()

    worst_edge = max(
        commutator_residual(exprs[u], exprs[v], 1024) for u, v in sorted(asg.graph.edges)
    )
    cond_a = worst_edge < 1e-9

    state = asg.state
    words = enumerate_words(state.num_g, state.max_len)
    cond_b = True
    checked = 0
    for word, d_w in zip(words, state.margins):
        if d_w is None:
            # f-containing but trivial in <f> * <g's abelian>: no margin exists
            assert not word_is_nontrivial(word, state.num_g)
            continue
        checked += 1
        margin = _word_margin(word, asg.f, asg.gens, state.p, asg.manifold)
        if not (d_w > 0 and margin > d_w / 2):
            cond_b = False
            break

    xs = [i / 1024 for i in range(1025)]
    min_deriv = min(derivative(asg.f, x) for x in xs)
    cond_c = min_deriv > 0.4

    cond_t = k2_k3_synthesis_seconds < 120.0
    _report(
        3,
        cond_a and cond_b and cond_c and cond_t,
        f"K2+K3 word-length-6 run: max edge residual {worst_edge:.2e} < 1e-9; "
        f"{checked} word margins all > D/2 with D > 0 ({cond_b}); min f' = "
        f"{min_deriv:.3f} > 0.4; synthesis took {k2_k3_synthesis_seconds:.1f}s < 120s",
    )


# -- criterion 4: normal-form verdict vs rewriting oracle, length <= 8 -------

K2_K2 = CliqueForest(((0, 1), (2, 3)))
_COMP = (0, 0, 1, 1)  # component of generator g = letter >> 1
_MAXLEN = 8


def test_criterion_4_normal_form_oracle_equivalence():
    """DFS over every length <= 8 letter sequence over the K2 + K2 alphabet.

    Side A is an incremental mirror of the syllable-stack normal form with
    undo; side B is a confluent-rewriting canonical word (sort commuting
    adjacent letters, cancel inverse pairs).  Side A is additionally pinned
    to the library's normal_form on a deterministic subsample.
    """
    t0 = time.perf_counter()
    stack = []  # [component, exp_of_lower_vertex, exp_of_higher_vertex]
    word = []  # canonical letter list for the rewriting oracle
    prefix = []  # raw letters of the current DFS path, for spot checks
    counters = {"count": 0, "mismatch": 0, "spot": 0, "spot_bad": 0}

    def push_nf(let):
        g, e = let >> 1, (-1 if let & 1 else 1)
        c = _COMP[g]
        idx = g & 1
        if stack and stack[-1][0] == c:
            top = stack[-1]
            tok = (1, top[1], top[2])
            top[1 + idx] += e
            if top[1] == 0 and top[2] == 0:
                stack.pop()
                return (2, tok[1], tok[2], c)
            return tok
        ent = [c, 0, 0]
        ent[1 + idx] = e
        stack.append(ent)
        return (0,)

    def undo_nf(tok):
        if tok[0] == 0:
            stack.pop()
        elif tok[0] == 1:
            stack[-1][1], stack[-1][2] = tok[1], tok[2]
        else:
            stack.append([tok[3], tok[1], tok[2]])

    def push_oracle(let):
        w = word
        w.append(let)
        i = len(w) - 1
        while i > 0:
            prev = w[i - 1]
            if _COMP[prev >> 1] != _COMP[w[i] >> 1]:
                break
            if prev == w[i] ^ 1:
                del w[i - 1 : i + 1]
                i -= 1
                if i == 0 or i >= len(w):
                    break
                continue
            if prev > w[i]:
                w[i - 1], w[i] = w[i], w[i - 1]
                i -= 1
                continue
            break

    def visit(depth, wsnap):
        for let in range(8):
            tok = push_nf(let)
            push_oracle(let)
            prefix.append(let)
            counters["count"] += 1
            if (not stack) != (not word):
                counters["mismatch"] += 1
            if counters["count"] % 9973 == 0:
                # pin the incremental stack to the public normal_form
                counters["spot"] += 1
                w = tuple((l >> 1, -1 if l & 1 else 1) for l in prefix)
                if normal_form(w, K2_K2).trivial != (not stack):
                    counters["spot_bad"] += 1
            if depth + 1 < _MAXLEN:
                visit(depth + 1, word[:])
            prefix.pop()
            undo_nf(tok)
            word[:] = wsnap

    visit(0, [])
    elapsed = time.perf_counter() - t0
    _report(
        4,
        counters["mismatch"] == 0 and counters["spot_bad"] == 0,
        f"{counters['count']} words of length <= 8 over K2+K2: "
        f"{counters['mismatch']} verdict mismatches against the rewriting "
        f"oracle, {counters['spot_bad']}/{counters['spot']} normal_form spot "
        f"checks failed ({elapsed:.0f}s)",
    )


# -- criterion 5: empirical commutation graphs -------------------------------


def test_criterion_5_commutation_graphs(k2_k3_assignment):
    asg = k2_k3_assignment
    g2, g3 = asg.gens[1], asg.gens[2]
    conj = Compose((asg.f, g2, Inverse(asg.f)))
    res = commutation_graph([g2, g3, conj])
    rep = check_component_completeness(res.graph)
    # g2 and g3 commute; the f-conjugate must land in its own component
    cond_a = rep.ok and res.graph.edges == {(0, 1)}

    alphas = choose_alphas(8, 2).alphas
    res8 = commutation_graph([MobiusI(a) for a in alphas])
    rep8 = check_component_completeness(res8.graph)
    cond_b = rep8.ok and len(res8.graph.edges) == 28  # complete on 8 vertices
    _report(
        5,
        cond_a and cond_b,
        "commutation graph of {g2, g3, f g2 f^-1} is component-complete "
        f"(components {[list(c.vertices) for c in rep.components]}); "
        "8-element Mobius family gives the complete graph",
    )


# -- criterion 6: the sine-shear suite on the line ---------------------------


def _mp_commutator_displacement(a, b, x):
    """[f_a, f_b](x) - x at 50 digits; inverses via mpmath root finding."""
    with mpmath.workdps(50):
        fa = lambda t: mpmath.sin(a * t) / 2 + t
        fb = lambda t: mpmath.sin(b * t) / 2 + t
        inv = lambda f, y: mpmath.findroot(lambda t: f(t) - y, y)
        y = fa(fb(inv(fa, inv(fb, mpmath.mpf(x)))))
        return float(abs(y - x))


def test_criterion_6_line_counterexample_suite():
    rep = remark_counterexample_suite(1.0, 2.0, n_max=1, grid_n=2048,
                                      domain=(0.0, 4 * math.pi))
    cond_a = rep.res_fa_ga < 1e-12 and rep.res_ga_gb < 1e-12
    n, wx, r = rep.power_residuals[0]
    cond_b = r > 1e-3
    # independent high-precision confirmation of the recorded value
    hp = _mp_commutator_displacement(1.0, 2.0, wx)
    cond_c = abs(hp - r) < 1e-9
    _report(
        6,
        cond_a and cond_b and cond_c,
        f"[f_1, g_1] residual {rep.res_fa_ga:.2e} and [g_1, g_2] residual "
        f"{rep.res_ga_gb:.2e} < 1e-12; |[f_1, f_2]({wx:.4f}) - x| = {r:.6f} "
        f"> 1e-3, high-precision value {hp:.6f} agrees",
    )


# -- criterion 7: Heisenberg obstruction detection ---------------------------


def test_criterion_7_heisenberg_obstruction():
    t0 = time.perf_counter()
    ball = heisenberg_ball(2)
    cert = find_centralizer_quadruple(ball)
    elapsed = time.perf_counter() - t0
    found = cert is not None

    facts_ok = False
    if found:
        # re-verify the four facts with exact integer arithmetic, bypassing
        # the oracle's own commute method
        checks = []
        for la, lb, want in cert.facts():
            m, nn = ball.element(la), ball.element(lb)
            checks.append((m * nn == nn * m) is want)
        facts_ok = all(checks)

    nonab, witness = center_nonabelian_check(ball)
    _report(
        7,
        found and facts_ok and nonab and elapsed < 5.0,
        f"radius-2 ball ({len(ball.labels)} elements): quadruple "
        f"({cert.g1}, {cert.g2}, {cert.h1}, {cert.h2}) re-verified exactly in "
        f"{elapsed:.2f}s < 5s; center witness {witness.central!r} agrees",
    )


# -- criterion 8: serialization round-trip stability -------------------------


def test_criterion_8_round_trip_residuals(k2_k3_assignment):
    asg = k2_k3_assignment
    back = GeneratorAssignment.from_dict(json.loads(json.dumps(asg.to_dict())))
    r1 = verify_assignment(asg, word_len=6)
    r2 = verify_assignment(back, word_len=6)

    diffs = []
    for c1, c2 in zip(r1.edge_checks + r1.non_edge_checks,
                      r2.edge_checks + r2.non_edge_checks):
        diffs.append(abs(c1["residual"] - c2["residual"]))
    (i1, m1, t1), (i2, m2, t2) = r1.margin_checks, r2.margin_checks  # columns
    assert np.array_equal(i1, i2) and np.array_equal(t1, t2)
    m1, m2 = Decimals.of(m1).values, Decimals.of(m2).values  # the state's, when equal
    diffs.extend(np.abs(m1 - m2).tolist())
    worst = max(diffs)
    _report(
        8,
        r2.ok and worst <= 1e-12,
        f"deserialized assignment reproduces all {len(diffs)} verification "
        f"residuals (max deviation {worst:.1e} <= 1e-12)",
    )
