import dataclasses
import itertools
import json
import math

import pytest

from cliqueforest import (
    BumpPoly,
    BumpTrig,
    Compose,
    Identity,
    Manifold,
    MobiusI,
    NotApplicableError,
    NotEmbeddableError,
    PerturbedF,
    PerturbedLiftS1,
    Power,
    RotationS1,
    SimpleGraph,
    choose_alphas,
    commutator_residual,
    commutator_witness,
    enumerate_words,
    evaluate,
    perturb_f,
    synthesize_embedding,
    verify_assignment,
)
from cliqueforest import diffeo, synthesis
from cliqueforest.synthesis import (
    DEFAULT_BASEPOINT,
    AlphaSequence,
    GeneratorAssignment,
    SynthesisError,
    SynthesisOptions,
    SynthesisState,
    _measure_lambda,
    _min_relation,
    _relation_recomputed,
    _Schedule,
    _schedule_margins,
    _word_margin,
    alpha_generators,
    word_str,
)
from conftest import word_is_nontrivial


def brute_force_words(num_g, max_len, require_f=True):
    """Oracle: generate-and-filter over all letter tuples."""
    letters = [(s, sgn) for s in range(num_g + 1) for sgn in (1, -1)]
    rank = {l: i for i, l in enumerate(letters)}  # f, f^-1, g1, g1^-1, ...
    out = []
    for n in range(1, max_len + 1):
        batch = []
        for w in itertools.product(letters, repeat=n):
            if any(w[i] == (w[i + 1][0], -w[i + 1][1]) for i in range(n - 1)):
                continue  # not freely reduced
            if require_f and not any(sym == 0 for sym, _ in w):
                continue
            batch.append(w)
        batch.sort(key=lambda w: [rank[l] for l in w])
        out.extend(batch)
    return out


class TestChooseAlphas:
    def test_range(self):
        seq = choose_alphas(4, 3)
        assert all(1.0 < a < math.pi for a in seq.alphas)
        assert len(seq.alphas) == 4

    def test_relation_minimum_positive(self):
        seq = choose_alphas(3, 5)
        assert seq.min_relation > 1e-9
        assert seq.k_bound == 5

    def test_log_ratios_are_sqrt_prime_ratios(self):
        # independent characterization of the construction
        seq = choose_alphas(3, 2)
        logs = [math.log(a) for a in seq.alphas]
        for (la, p), (lb, q) in itertools.combinations(zip(logs, (2, 3, 5)), 2):
            assert la / lb == pytest.approx(math.sqrt(p / q), rel=1e-12)

    def test_relation_minimum_matches_brute_force(self):
        seq = choose_alphas(2, 4)
        logs = [math.log(a) for a in seq.alphas]
        best = min(
            abs(k1 * logs[0] + k2 * logs[1])
            for k1 in range(-4, 5)
            for k2 in range(-4, 5)
            if (k1, k2) != (0, 0)
        )
        assert seq.min_relation == pytest.approx(best, rel=1e-9)

    @staticmethod
    def _reference_min_relation(logs, k):
        """Reference: the exhaustive loop over all relation vectors, each sum
        accumulated left to right (as sum() does before Python 3.12)."""
        best = math.inf
        for ks in itertools.product(range(-k, k + 1), repeat=len(logs)):
            if not any(ks):
                continue
            acc = 0
            for kv, lg in zip(ks, logs):
                acc += kv * lg
            best = min(best, abs(acc))
        return best

    @pytest.mark.parametrize("n, k", [(1, 5), (3, 6), (6, 5)])
    def test_relation_minimum_matches_exhaustive_loop(self, n, k):
        primes = [2, 3, 5, 7, 11, 13][:n]
        c = math.sqrt(primes[-1]) / 1.1
        logs = [math.sqrt(p) / c for p in primes]
        got = choose_alphas(n, k).min_relation
        assert got == self._reference_min_relation(logs, k)
        assert _min_relation(logs, k) == got
        if (n, k) == (6, 5):
            assert got == 6.273708170301262e-06

    def test_relation_minimum_masks_only_the_zero_vector(self):
        # an exact relation (2 * 0.5 - 1 * 1.0 = 0) must be found, not masked
        assert _min_relation([0.5, 1.0, 0.25], 2) == 0.0
        assert _min_relation([0.5, 1.0], 1) == 0.5

    def test_bad_args(self):
        with pytest.raises(ValueError):
            choose_alphas(0, 5)
        with pytest.raises(ValueError):
            choose_alphas(30, 30)  # relation check too large

    def test_round_trip(self):
        seq = choose_alphas(2, 3)
        from cliqueforest import AlphaSequence

        back = AlphaSequence.from_dict(json.loads(json.dumps(seq.to_dict())))
        assert back.alphas == seq.alphas
        assert back.min_relation == seq.min_relation


class TestEnumerateWords:
    def test_counts_against_oracle(self):
        for num_g, max_len, require_f in [(1, 2, True), (1, 3, True), (2, 3, True),
                                          (2, 2, False), (3, 2, True)]:
            assert enumerate_words(num_g, max_len, require_f) == brute_force_words(
                num_g, max_len, require_f
            )

    def test_one_g_len_two_count(self):
        # 4 reduced length-2 words per f-letter pairing plus f, f^-1 alone
        assert len(enumerate_words(1, 2)) == 12

    def test_length_major_order(self):
        ws = enumerate_words(2, 4)
        lens = [len(w) for w in ws]
        assert lens == sorted(lens)

    def test_all_reduced(self):
        for w in enumerate_words(2, 3):
            assert not any(
                w[i] == (w[i + 1][0], -w[i + 1][1]) for i in range(len(w) - 1)
            )

    def test_require_f(self):
        assert all(any(s == 0 for s, _ in w) for w in enumerate_words(2, 3))

    def test_bad_args(self):
        with pytest.raises(ValueError):
            enumerate_words(0, 3)
        with pytest.raises(ValueError):
            enumerate_words(2, 0)


class TestWordNontriviality:
    def test_f_conjugated_g_commutator_is_trivial(self):
        # g1 g2 g1^-1 g2^-1 dies once the g's commute, so its f-conjugate does too
        w = ((0, 1), (1, 1), (2, 1), (1, -1), (2, -1), (0, -1))
        assert not word_is_nontrivial(w, 2)

    def test_basic_nontrivial(self):
        assert word_is_nontrivial(((0, 1), (1, 1)), 2)
        assert word_is_nontrivial(((0, 1),), 2)

    def test_free_reduction_not_enough(self):
        # freely reduced but trivial in the free product
        w = ((1, 1), (2, 1), (1, -1), (2, -1))
        assert not word_is_nontrivial(w, 2)


class TestPerturbF:
    def test_small_interval_run(self):
        gens = (MobiusI(2.0), MobiusI(2.5))
        words = enumerate_words(2, 3)
        f, state = perturb_f(gens, SynthesisOptions(word_len=3))
        assert state.word_count == len(words)
        # margins: positive for nontrivial words, None for free-product-trivial
        for w, m in zip(words, state.margins):
            if word_is_nontrivial(w, 2):
                assert m is not None and m > 0
            else:
                assert m is None
        # the state records no eps; the derived chain is nonincreasing and positive
        assert state.eps is None
        eps = synthesis._derived_eps(state, gens, state.schedule).tolist()
        assert all(a >= b for a, b in zip(eps, eps[1:]))
        assert eps[-1] > 0
        assert state.min_derivative > 0
        xs = [i / state.grid_n for i in range(state.grid_n + 1)]
        assert state.min_derivative == min(f._draw(x) for x in xs)

    @pytest.mark.parametrize("f, gens", [
        (Identity(Manifold.INTERVAL), (MobiusI(2.0), MobiusI(2.5))),
        (PerturbedF((BumpPoly(0.124875, 1),)), (MobiusI(2.0), MobiusI(2.5))),
        (PerturbedLiftS1((BumpTrig(0.02, 1, 0.5), BumpTrig(-0.004, 2))),
         (RotationS1(1.3), RotationS1(2.2))),
    ])
    def test_lambda_matches_scalar_scan(self, f, gens):
        xs = [i / 256 for i in range(257)]
        lam = 1.0
        for e in gens + (f,):
            ds = [e._draw(x) for x in xs]
            lam = max(lam, max(ds), 1.0 / min(ds))
        assert _measure_lambda(f, gens, 256) == lam

    def test_margins_survive_final_map(self):
        gens = (MobiusI(2.0), MobiusI(2.5))
        words = enumerate_words(2, 3)
        f, state = perturb_f(gens, SynthesisOptions(word_len=3))
        for w, m in zip(words, state.margins):
            if m is not None:
                assert _word_margin(w, f, gens, state.p, Manifold.INTERVAL) > m / 2

    def test_state_round_trip_exact(self):
        gens = (MobiusI(2.0), MobiusI(2.5))
        f, state = perturb_f(gens, SynthesisOptions(word_len=3))
        back = SynthesisState.from_dict(json.loads(json.dumps(state.to_dict())))
        assert back == state

    def test_bad_basepoint(self):
        # checked before the schedule, which word length 0 would refuse
        for word_len in (1, 0):
            with pytest.raises(ValueError, match=r"^basepoint must lie in \(0, 1\)$"):
                perturb_f((MobiusI(2.0),), SynthesisOptions(word_len=word_len, basepoint=1.5))

    def test_all_basepoint_retries_fail(self, monkeypatch):
        tried = []

        def fail(gens, p, opts, schedule):
            tried.append(p)
            raise SynthesisError(f"stage 1 at {p}")

        monkeypatch.setattr(synthesis, "_perturb_f_at", fail)
        with pytest.raises(SynthesisError) as info:
            perturb_f((MobiusI(2.0),), SynthesisOptions(word_len=1, basepoint=0.6))
        assert str(info.value) == "all basepoint retries failed; last: stage 1 at 0.8660254"
        assert tried == [0.6, 0.58113883, 0.41421356, 0.8660254]


class TestScheduleValues:
    """The level-by-level array pass reproduces the per-word path bit for bit."""

    def _check(self, f, gens, manifold):
        got = _schedule_margins(f, gens, DEFAULT_BASEPOINT, manifold, _Schedule(3, 4)).tolist()
        ref = [_word_margin(w, f, gens, DEFAULT_BASEPOINT, manifold)
               for w in enumerate_words(3, 4)]
        assert [m.hex() for m in got] == [m.hex() for m in ref]

    def test_interval_bumped_f(self):
        gens = tuple(MobiusI(a) for a in choose_alphas(3).alphas)
        self._check(PerturbedF((BumpPoly(0.124875, 1),)), gens, Manifold.INTERVAL)

    def test_circle_bumped_lift(self):
        gens = tuple(RotationS1(a) for a in choose_alphas(3).alphas)
        self._check(PerturbedLiftS1((BumpTrig(0.02, 1, 0.5),)), gens, Manifold.CIRCLE)

    @pytest.mark.parametrize("apply", [1, 7, 100])
    def test_letters_applied_in_slices(self, monkeypatch, apply):
        # a letter applied to a few words at a time gives the same bits
        monkeypatch.setattr(diffeo, "_APPLY_ELEMENTS", apply)
        gens = tuple(MobiusI(a) for a in choose_alphas(3).alphas)
        self._check(PerturbedF((BumpPoly(0.124875, 1),)), gens, Manifold.INTERVAL)


class TestSynthesizeEmbedding:
    def test_single_clique_needs_no_f(self):
        g = SimpleGraph.from_edges(3, [(0, 1), (0, 2), (1, 2)])
        asg = synthesize_embedding(g)
        assert isinstance(asg.f, Identity)
        assert asg.state is None
        assert len(asg.gens) == 3
        rep = verify_assignment(asg)
        assert rep.ok
        assert rep.non_edge_checks == ()

    @pytest.mark.parametrize("manifold", [Manifold.INTERVAL, Manifold.CIRCLE], ids=["I", "S1"])
    def test_single_clique_pure_g_claim_rests_on_the_alpha_record(self, manifold):
        g = SimpleGraph.from_edges(3, [(0, 1), (0, 2), (1, 2)])
        asg = synthesize_embedding(g, manifold, SynthesisOptions(word_len=3, alpha_k=2))
        assert asg.alphas.k_bound == 3
        note = ("no pure-g word was enumerated: the claim rests on the alpha relation "
                "record up to height 3")
        for word_len in (None, 1, 3):
            rep = verify_assignment(asg, word_len=word_len)
            assert rep.ok and rep.pure_g_all_nontrivial and rep.pure_g_checked == 0
            assert rep.notes[1:] == (note,)
        # the same note as a schedule above the alpha height (see
        # test_alpha_height_below_word_len_fails)
        rep = verify_assignment(asg, word_len=4)
        assert not rep.ok and not rep.pure_g_all_nontrivial and rep.pure_g_checked == 0
        assert rep.notes[1:] == (note, "pure-g words reach exponent height 4 (g1^4), above "
                                 "the checked alpha relation bound 3")

    @pytest.mark.parametrize("n, edges", [(0, []), (3, [(0, 1), (0, 2), (1, 2)])],
                             ids=["empty", "K3"])
    def test_stateless_assignment_records_its_word_len(self, n, edges):
        asg = synthesize_embedding(SimpleGraph.from_edges(n, edges),
                                   opts=SynthesisOptions(word_len=3))
        assert asg.state is None and asg.word_len == 3
        assert asg.to_dict()["word_len"] == 3
        assert GeneratorAssignment.from_dict(json.loads(json.dumps(asg.to_dict()))) == asg
        assert verify_assignment(asg).word_len == 3
        assert verify_assignment(asg, word_len=2).word_len == 2
        # a document written without it reads as before: length 0
        doc = asg.to_dict()
        del doc["word_len"]
        assert verify_assignment(GeneratorAssignment.from_dict(doc)).word_len == 0

    def test_word_len_recorded_beside_a_state_or_below_one_rejected(self):
        asg = synthesize_embedding(SimpleGraph.from_edges(2, []),
                                   opts=SynthesisOptions(word_len=2))
        assert asg.word_len is None and "word_len" not in asg.to_dict()
        with pytest.raises(ValueError, match="records its word length there"):
            GeneratorAssignment.from_dict({**asg.to_dict(), "word_len": 2})
        clique = synthesize_embedding(SimpleGraph.from_edges(2, [(0, 1)]))
        for word_len in (0, -1):
            with pytest.raises(ValueError, match=f"word_len {word_len} is below 1"):
                GeneratorAssignment.from_dict({**clique.to_dict(), "word_len": word_len})

    def test_empty_graph_makes_no_pure_g_claim(self):
        # no generator, so no pure-g word: the claim holds at any word length
        asg = synthesize_embedding(SimpleGraph.from_edges(0, []),
                                   opts=SynthesisOptions(word_len=2, alpha_k=1))
        rep = verify_assignment(asg, word_len=9)
        assert rep.ok and rep.pure_g_all_nontrivial and rep.pure_g_checked == 0
        assert rep.notes == ("single-clique assignment: no f, free-product checks vacuous",)

    def test_not_embeddable(self):
        g = SimpleGraph.from_edges(3, [(0, 1), (1, 2)])
        with pytest.raises(NotEmbeddableError) as ei:
            synthesize_embedding(g)
        assert (ei.value.witness.u, ei.value.witness.v) == (0, 2)

    def test_line_rejected(self):
        with pytest.raises(NotApplicableError):
            synthesize_embedding(SimpleGraph.from_edges(2, [(0, 1)]), Manifold.LINE)

    @pytest.mark.parametrize("n, edges", [(2, [(0, 1)]), (5, [(0, 1), (2, 3), (2, 4), (3, 4)])],
                             ids=["K2", "K2+K3"])
    def test_word_len_below_one_rejected(self, n, edges):
        # a single clique has no schedule, but its report states a word length
        g = SimpleGraph.from_edges(n, edges)
        with pytest.raises(ValueError, match="word_len must be >= 1"):
            synthesize_embedding(g, opts=SynthesisOptions(word_len=0))
        asg = synthesize_embedding(g, opts=SynthesisOptions(word_len=2))
        for word_len in (0, -3):
            with pytest.raises(ValueError, match="word_len must be >= 1"):
                verify_assignment(asg, word_len=word_len)

    @pytest.mark.parametrize("alpha_k", [0, -7])
    @pytest.mark.parametrize("n, edges", [(0, []), (2, [(0, 1)]),
                                          (5, [(0, 1), (2, 3), (2, 4), (3, 4)])],
                             ids=["empty", "K2", "K2+K3"])
    def test_alpha_k_below_one_rejected(self, n, edges, alpha_k):
        # rejected up front: neither raised to the word length nor, on the
        # empty graph, stored as the k_bound
        g = SimpleGraph.from_edges(n, edges)
        with pytest.raises(ValueError, match="alpha_k must be >= 1"):
            synthesize_embedding(g, opts=SynthesisOptions(word_len=2, alpha_k=alpha_k))

    @pytest.mark.parametrize("basepoint", [0.0, 1.0, 1.5, math.nan])
    @pytest.mark.parametrize("n, edges", [(3, [(0, 1), (0, 2), (1, 2)]), (0, []),
                                          (3, [(0, 1), (1, 2)])],
                             ids=["K3", "empty", "path"])
    def test_basepoint_outside_unit_interval_rejected(self, n, edges, basepoint):
        # rejected up front on every graph, though only a forest of two or
        # more cliques runs the recursion that uses the basepoint
        g = SimpleGraph.from_edges(n, edges)
        with pytest.raises(ValueError, match=r"basepoint must lie in \(0, 1\)"):
            synthesize_embedding(g, opts=SynthesisOptions(word_len=2, basepoint=basepoint))

    def test_empty_graph(self):
        asg = synthesize_embedding(SimpleGraph.from_edges(0, []))
        assert asg.layout == ()
        assert verify_assignment(asg).ok

    def test_two_cliques_interval(self):
        g = SimpleGraph.from_edges(4, [(0, 1), (2, 3)])
        asg = synthesize_embedding(g, opts=SynthesisOptions(word_len=4))
        rep = verify_assignment(asg, word_len=4)
        assert rep.ok
        # edges commute, non-edges visibly do not
        assert all(c["residual"] < 1e-9 for c in rep.edge_checks)
        assert all(c["residual"] > 1e-8 for c in rep.non_edge_checks)

    def test_two_cliques_circle(self):
        g = SimpleGraph.from_edges(4, [(0, 1), (2, 3)])
        asg = synthesize_embedding(g, Manifold.CIRCLE, SynthesisOptions(word_len=4))
        rep = verify_assignment(asg, word_len=4)
        assert rep.ok

    def test_layout_respects_components(self):
        g = SimpleGraph.from_edges(4, [(0, 1), (2, 3)])
        asg = synthesize_embedding(g, opts=SynthesisOptions(word_len=4))
        assert asg.layout == ((0, 1, 1), (1, 1, 2), (2, 2, 1), (3, 2, 2))
        # conjugation depth varies with the component, not the slot
        for v, i, n in asg.layout:
            e = asg.exprs()[v]
            if not isinstance(asg.f, Identity):
                assert e.parts[0].exponent == i

    def test_exprs_follow_layout(self):
        """``exprs`` gives h_{i,n} = f^i g_n f^-i in layout order."""
        g = SimpleGraph.from_edges(5, [(0, 1), (2, 3), (2, 4), (3, 4)])
        asg = synthesize_embedding(g, opts=SynthesisOptions(word_len=3))
        assert not isinstance(asg.f, Identity)
        exprs = asg.exprs()
        assert list(exprs) == [v for v, _, _ in asg.layout]
        for v, i, n in asg.layout:
            want = Compose((Power(asg.f, i), asg.gens[n - 1], Power(asg.f, -i)))
            assert exprs[v] == want
        ident = dataclasses.replace(asg, f=Identity(asg.manifold))
        assert ident.exprs() == {v: asg.gens[n - 1] for v, _, n in asg.layout}

    def test_alpha_height_covers_word_len(self):
        g = SimpleGraph.from_edges(4, [(0, 1), (2, 3)])
        asg = synthesize_embedding(g, opts=SynthesisOptions(word_len=6))
        assert asg.alphas.k_bound >= 6


class TestVerifyAssignment:
    def test_round_trip_preserves_residuals(self):
        g = SimpleGraph.from_edges(4, [(0, 1), (2, 3)])
        asg = synthesize_embedding(g, opts=SynthesisOptions(word_len=4))
        back = GeneratorAssignment.from_dict(json.loads(json.dumps(asg.to_dict())))
        r1 = verify_assignment(asg, word_len=4)
        r2 = verify_assignment(back, word_len=4)
        assert r1.to_dict() == r2.to_dict()

    def test_truncation_note(self):
        g = SimpleGraph.from_edges(4, [(0, 1), (2, 3)])
        asg = synthesize_embedding(g, opts=SynthesisOptions(word_len=4))
        rep = verify_assignment(asg, word_len=9)
        assert any("truncated" in n for n in rep.notes)
        assert rep.word_len == 4
        assert "length <= 4" in rep.to_dict()["truncation_note"]

    def test_doctored_assignment_fails(self):
        # replace one generator with a non-commuting impostor: the edge check
        # must catch it
        g = SimpleGraph.from_edges(2, [(0, 1)])
        asg = synthesize_embedding(g)
        from cliqueforest import BumpPoly, PerturbedF

        bad = PerturbedF((BumpPoly(0.05, 1),))
        doctored = GeneratorAssignment(
            asg.graph, asg.manifold, asg.forest, asg.alphas, asg.layout,
            asg.f, (asg.gens[0], bad), asg.state,
        )
        rep = verify_assignment(doctored)
        assert not rep.ok
        assert not all(c["ok"] for c in rep.edge_checks)

    def test_inflated_margins_fail_and_name_their_words(self):
        g = SimpleGraph.from_edges(5, [(0, 1), (2, 3), (2, 4), (3, 4)])
        asg = synthesize_embedding(g, opts=SynthesisOptions(word_len=3))
        margins = list(asg.state.margins)
        picks = [i for i, m in enumerate(margins) if m is not None][5::40]
        for i in picks:
            margins[i] *= 4.0  # the recorded D/2 now exceeds the actual margin
        state = dataclasses.replace(asg.state, margins=tuple(margins))
        rep = verify_assignment(dataclasses.replace(asg, state=state), word_len=3)
        words = enumerate_words(3, 3)
        assert not rep.ok
        assert [(f["index"], f["word"]) for f in rep.margin_failures] == [
            (i + 1, word_str(words[i])) for i in picks]

    def test_alpha_height_below_word_len_fails(self):
        # g_1^4 reaches exponent height 4, which a height-3 relation check
        # does not cover
        g = SimpleGraph.from_edges(4, [(0, 1), (2, 3)])
        asg = synthesize_embedding(g, opts=SynthesisOptions(word_len=4))
        low = dataclasses.replace(asg.alphas, k_bound=3)
        rep = verify_assignment(dataclasses.replace(asg, alphas=low), word_len=4)
        assert not rep.ok
        assert not rep.pure_g_all_nontrivial
        assert rep.pure_g_checked == 4 + 12 + 36 + 108
        assert sum("exponent height 4" in n for n in rep.notes) == 1
        assert verify_assignment(asg, word_len=4).pure_g_all_nontrivial

    @pytest.mark.parametrize("edges", [[(0, 1), (0, 2), (1, 2)], [(0, 1), (2, 3), (2, 4), (3, 4)]],
                             ids=["K3", "K2+K3"])
    @pytest.mark.parametrize("manifold, alphas, k_bound, note", [
        # log 4 = 2 log 2: a relation of height 2, whatever the record says
        (Manifold.INTERVAL, (2.0, 4.0, 8.0), 5,
         "the alpha relation minimum recomputed at height 5 is 0.0, at most 1e-09: "
         "the g generators may satisfy a relation"),
        # rotations take any finite angle; a non-positive one has no log
        (Manifold.CIRCLE, (2.0, -1.5, 3.0), 5,
         "the alpha relation minimum at height 5 was not recomputed: "
         "not every alpha has a finite log"),
        (Manifold.CIRCLE, (2.0, 0.0, 3.0), 5,
         "the alpha relation minimum at height 5 was not recomputed: "
         "not every alpha has a finite log"),
        # 201^3 - 1 vectors
        (Manifold.INTERVAL, None, 100,
         "the alpha relation minimum at height 100 was not recomputed: "
         "3 generators give more than 5000000 vectors"),
        # the empty set of relation vectors certifies nothing
        (Manifold.INTERVAL, None, 0,
         "the alpha relation minimum at height 0 was not recomputed: "
         "a height below 1 has no relation vector"),
    ], ids=["relation", "negative", "zero", "past-limit", "height-0"])
    def test_alpha_relation_is_recomputed(self, edges, manifold, alphas, k_bound, note):
        """The record's own minimum stays as synthesized; verify recomputes
        it from the alphas, on a single clique and on a forest."""
        g = SimpleGraph.from_edges(max(map(max, edges)) + 1, edges)
        asg = synthesize_embedding(g, manifold, SynthesisOptions(word_len=3))
        assert verify_assignment(asg).pure_g_all_nontrivial
        record = AlphaSequence(alphas or asg.alphas.alphas, k_bound, asg.alphas.min_relation)
        forged = dataclasses.replace(asg, alphas=record,
                                     gens=alpha_generators(manifold, record))
        rep = verify_assignment(forged)
        assert not rep.ok and not rep.pure_g_all_nontrivial
        assert rep.notes.count(note) == 1
        assert rep.to_dict()["pure_g_all_nontrivial"] is False

    @pytest.mark.parametrize("n, k", [(2, 5), (3, 4), (4, 3), (7, 4), (9, 1)])
    def test_recorded_relation_minimum_agrees_within_its_rounding(self, n, k):
        """choose_alphas sums the logs the alphas are rounded from, verify
        the logs of the rounded alphas: here the two minima differ in their
        last bits, and the record still agrees; moved by 1e-12 it does not."""
        record = choose_alphas(n, k)
        assert _min_relation([math.log(a) for a in record.alphas], k) != record.min_relation
        notes = []
        assert _relation_recomputed(record, notes) and notes == []
        moved = dataclasses.replace(record, min_relation=record.min_relation + 1e-12)
        assert not _relation_recomputed(moved, notes)
        assert [note.split()[2] for note in notes] == ["min_relation"]


class TestAcceptanceScaleRun:
    def test_k2_k3_report_ok(self, k2_k3_assignment):
        rep = verify_assignment(k2_k3_assignment, word_len=6)
        assert rep.ok
        assert rep.pure_g_all_nontrivial
        # every reduced word of length <= 6 in g_1..g_3 and inverses
        assert rep.pure_g_checked == 23436

    def test_k2_k3_distinct_components_forced_apart(self, k2_k3_assignment):
        # vertices in different components genuinely fail to commute
        exprs = k2_k3_assignment.exprs()
        e0, e2 = exprs[0], exprs[2]
        _, r = commutator_witness(e0, e2, 256)
        assert r > 1e-8
