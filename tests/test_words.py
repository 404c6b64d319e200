from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cliqueforest import CliqueForest, Manifold, NotApplicableError, SimpleGraph
from cliqueforest.raag import (
    EmbeddabilityDecision,
    embeddable_raag,
    normal_form,
)

K2_K3 = CliqueForest(((0, 1), (2, 3, 4)))
FREE2 = CliqueForest(((0,), (1,)))


def word_inverse(word):
    """The inverse of a RAAG word of (vertex, exponent) pairs."""
    return tuple((v, -e) for v, e in reversed(word))


def word_concat(*words):
    return tuple(p for w in words for p in w)


def _comp_of(forest):
    out = {}
    for i, comp in enumerate(forest.components):
        for v in comp:
            out[v] = i
    return out


def rewrite_canonical(word, forest):
    """Independent oracle: confluent rewriting on single-letter sequences.

    Rules, applied to a fixpoint: delete adjacent inverse pairs, and sort
    adjacent same-component letters by vertex (the only relations in a free
    product of free abelian groups).
    """
    comp = _comp_of(forest)
    letters = []
    for v, e in word:
        s = 1 if e > 0 else -1
        letters.extend([(v, s)] * abs(e))
    changed = True
    while changed:
        changed = False
        i = 0
        while i + 1 < len(letters):
            (u, a), (v, b) = letters[i], letters[i + 1]
            if u == v and a == -b:
                del letters[i : i + 2]
                i = max(i - 1, 0)
                changed = True
                continue
            if comp[u] == comp[v] and u > v:
                letters[i], letters[i + 1] = letters[i + 1], letters[i]
                changed = True
            i += 1
    return tuple(letters)


def nf_letters(word, forest):
    """Flatten the syllable normal form to the same letter alphabet."""
    out = []
    for syl in normal_form(word, forest).syllables:
        for v, e in syl.exponents:
            s = 1 if e > 0 else -1
            out.extend([(v, s)] * abs(e))
    return tuple(out)


def words_up_to(vertices, max_len):
    letters = [(v, s) for v in vertices for s in (1, -1)]
    for n in range(max_len + 1):
        for combo in product(letters, repeat=n):
            yield combo


class TestNormalForm:
    def test_empty(self):
        assert normal_form((), K2_K3).trivial

    def test_single_letter(self):
        nf = normal_form(((0, 1),), K2_K3)
        assert not nf.trivial
        assert nf.syllables[0].exponents == ((0, 1),)

    def test_same_component_merges(self):
        nf = normal_form(((2, 1), (3, 2), (2, -1)), K2_K3)
        assert len(nf.syllables) == 1
        assert nf.syllables[0].exponents == ((3, 2),)

    def test_cross_component_does_not_merge(self):
        nf = normal_form(((0, 1), (2, 1), (0, -1)), K2_K3)
        assert len(nf.syllables) == 3

    def test_cancellation_remerges_neighbours(self):
        # x0 [x2 x2^-1] x0^-1 collapses entirely
        assert normal_form(((0, 1), (2, 1), (2, -1), (0, -1)), K2_K3).trivial

    def test_zero_exponent_skipped(self):
        assert normal_form(((0, 0),), K2_K3).trivial

    def test_unknown_vertex(self):
        with pytest.raises(KeyError):
            normal_form(((9, 1),), K2_K3)

    def test_str(self):
        assert str(normal_form((), K2_K3)) == "1"
        assert str(normal_form(((2, 1), (3, -2)), K2_K3)) == "[x2 x3^-2]"

    def test_exhaustive_against_rewriting_oracle(self):
        # every word of length <= 4 over the K2 + K3 alphabet
        for w in words_up_to(range(5), 4):
            assert nf_letters(w, K2_K3) == rewrite_canonical(w, K2_K3)

    def test_free_group_words_against_oracle(self):
        for w in words_up_to(range(2), 6):
            assert nf_letters(w, FREE2) == rewrite_canonical(w, FREE2)


raag_words = st.lists(
    st.tuples(st.integers(0, 4), st.integers(-3, 3).filter(bool)), max_size=12
).map(tuple)


class TestNormalFormProperties:
    @given(raag_words)
    @settings(max_examples=300, deadline=None)
    def test_matches_oracle(self, w):
        assert nf_letters(w, K2_K3) == rewrite_canonical(w, K2_K3)

    @given(raag_words)
    @settings(max_examples=200, deadline=None)
    def test_word_times_inverse_trivial(self, w):
        assert normal_form(word_concat(w, word_inverse(w)), K2_K3).trivial

    @given(raag_words)
    @settings(max_examples=200, deadline=None)
    def test_idempotent(self, w):
        nf = normal_form(w, K2_K3)
        flat = tuple(p for s in nf.syllables for p in s.exponents)
        assert normal_form(flat, K2_K3) == nf

    @given(raag_words, raag_words)
    @settings(max_examples=200, deadline=None)
    def test_congruence(self, a, b):
        # inserting a trivial word between two factors changes nothing
        trivial = word_concat(b, word_inverse(b))
        assert normal_form(word_concat(a, trivial), K2_K3) == normal_form(a, K2_K3)

    @given(raag_words)
    @settings(max_examples=100, deadline=None)
    def test_commuting_pair_insertion(self, w):
        # x2 x3 x2^-1 x3^-1 is trivial: 2 and 3 share a component
        comm = ((2, 1), (3, 1), (2, -1), (3, -1))
        assert normal_form(word_concat(comm, w), K2_K3) == normal_form(w, K2_K3)


class TestEmbeddabilityDecision:
    def test_clique_forest_accepted(self):
        g = SimpleGraph.from_edges(5, [(0, 1), (2, 3), (2, 4), (3, 4)])
        for m in (Manifold.INTERVAL, Manifold.CIRCLE):
            d = embeddable_raag(g, m)
            assert d.embeddable
            assert d.manifold is m
            assert d.to_dict()["clique_forest"]["components"] == [[0, 1], [2, 3, 4]]

    def test_path_rejected(self):
        g = SimpleGraph.from_edges(3, [(0, 1), (1, 2)])
        d = embeddable_raag(g, Manifold.INTERVAL)
        assert not d.embeddable
        assert d.to_dict()["missing_edge"] == {"u": 0, "v": 2, "path": [0, 1, 2]}

    @pytest.mark.parametrize("doc", [
        {"embeddable": True, "manifold": "I", "missing_edge": {"u": 0, "v": 2, "path": [0, 1, 2]}},
        {"embeddable": False, "manifold": "I", "clique_forest": {"components": [[0, 1]]}},
        {"embeddable": True, "manifold": "I"},
        {"embeddable": False, "manifold": "S1", "clique_forest": {"components": [[0, 1]]},
         "missing_edge": {"u": 0, "v": 2, "path": [0, 1, 2]}},
    ], ids=["forest-verdict-witness", "witness-verdict-forest", "none", "both"])
    def test_certificate_must_match_verdict(self, doc):
        with pytest.raises(ValueError, match="certificate of its verdict"):
            EmbeddabilityDecision.from_dict(doc)

    def test_line_out_of_scope(self):
        g = SimpleGraph.from_edges(2, [(0, 1)])
        with pytest.raises(NotApplicableError):
            embeddable_raag(g, Manifold.LINE)

    def test_same_verdict_interval_circle(self):
        for edges in ([], [(0, 1)], [(0, 1), (1, 2)], [(0, 1), (1, 2), (0, 2)]):
            g = SimpleGraph.from_edges(3, edges)
            di = embeddable_raag(g, Manifold.INTERVAL)
            dc = embeddable_raag(g, Manifold.CIRCLE)
            assert di.embeddable == dc.embeddable
