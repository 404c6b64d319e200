"""Timing spans around the calls between cliqueforest modules.

Wrappers are installed only for a traced pass and removed afterwards.  Each
wraps a name that one module looks up in another module's namespace at call
time (for example ``synthesis.normal_form``), so the program's own code is
not edited.  Spans are aggregated by (name, parent) into a call count, a
total time and a self time; at a million calls per pass, per-call records
would cost more than the work they describe.
"""
from __future__ import annotations

import functools
import importlib
import time
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple

_clock = time.perf_counter


@dataclass
class Agg:
    count: int = 0
    total: float = 0.0  # outermost calls only: a span nested in its own name adds nothing
    self_time: float = 0.0


class Tracer:
    """Aggregated span tree of the calls made while it is active."""

    def __init__(self):
        self.aggs: Dict[Tuple[str, str], Agg] = {}
        # one [name, child_time] frame per open span
        self._stack: List[list] = [["", 0.0]]

    def wrap(self, name: str, fn: Callable) -> Callable:
        aggs, stack = self.aggs, self._stack

        @functools.wraps(fn)
        def timed(*args, **kwargs):
            frame = [name, 0.0]
            stack.append(frame)
            t0 = _clock()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = _clock() - t0
                stack.pop()
                parent = stack[-1]
                key = (name, parent[0])
                agg = aggs.get(key)
                if agg is None:
                    agg = aggs[key] = Agg()
                agg.count += 1
                agg.self_time += dt - frame[1]
                if not any(f[0] == name for f in stack):
                    agg.total += dt
                parent[1] += dt

        return timed

    def counter(self, name: str, fn: Callable) -> Callable:
        """Count calls without timing them (for very cheap, very hot calls)."""
        aggs, stack = self.aggs, self._stack

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            key = (name, stack[-1][0])
            agg = aggs.get(key)
            if agg is None:
                agg = aggs[key] = Agg()
            agg.count += 1
            return fn(*args, **kwargs)

        return counted

    def span(self, name: str, fn: Callable, *args, **kwargs):
        """Call ``fn`` inside a span called ``name``."""
        return self.wrap(name, fn)(*args, **kwargs)

    # -- queries ------------------------------------------------------------

    def count(self, name: str, parent: Optional[str] = None) -> int:
        return sum(a.count for (n, p), a in self.aggs.items()
                   if n == name and (parent is None or p == parent))

    def total(self, name: str, parent: Optional[str] = None) -> float:
        return sum(a.total for (n, p), a in self.aggs.items()
                   if n == name and (parent is None or p == parent))

    def self_time(self, name: str) -> float:
        return sum(a.self_time for (n, _), a in self.aggs.items() if n == name)


class _Proxy:
    """Stands in for an object in a caller's namespace, overriding some of
    its attributes and passing every other lookup through."""

    def __init__(self, target, **overrides):
        self._target = target
        self.__dict__.update(overrides)

    def __getattr__(self, attr):
        return getattr(self._target, attr)


# (caller module, attribute, span name).  The span name is the callee's
# layer and function; the parent in the aggregate says who called it.
NAME_HOOKS = (
    ("cli", "parse_graph", "graphs.parse_graph"),
    ("cli", "embeddable_raag", "raag.embeddable_raag"),
    ("cli", "synthesize_embedding", "synthesis.synthesize_embedding"),
    ("cli", "verify_assignment", "synthesis.verify_assignment"),
    ("cli", "_read", "cli._read"),
    ("cli", "_write", "cli._write"),
    ("cli", "parse_oracle", "obstructions.parse_oracle"),
    ("cli", "heisenberg_ball", "obstructions.heisenberg_ball"),
    ("cli", "find_centralizer_quadruple", "obstructions.find_centralizer_quadruple"),
    ("cli", "center_nonabelian_check", "obstructions.center_nonabelian_check"),
    ("raag", "is_clique_forest", "graphs.is_clique_forest"),
    ("synthesis", "is_clique_forest", "graphs.is_clique_forest"),
    ("synthesis", "choose_alphas", "synthesis.choose_alphas"),
    ("synthesis", "perturb_f", "synthesis.perturb_f"),
    ("synthesis", "normal_form", "raag.normal_form"),
    ("synthesis", "_word_margin", "synthesis._word_margin"),
    ("synthesis", "commutator_residual", "diffeo.commutator_residual"),
    ("synthesis", "commutator_witness", "diffeo.commutator_witness"),
    ("diffeo", "_solve_increasing", "diffeo._solve_increasing"),
)

# (module, class, method, span name) wrapped on the class itself: the CLI
# reaches these through instances, not through a module namespace
METHOD_HOOKS = (
    ("synthesis", "GeneratorAssignment", "to_dict", "serialize.to_dict"),
    ("synthesis", "VerificationReport", "to_dict", "serialize.to_dict"),
    ("raag", "EmbeddabilityDecision", "to_dict", "serialize.to_dict"),
)

COUNTER_HOOKS = (
    ("obstructions", "UnipotentMatrix", "commutes_with", "obstructions.commutes_with"),
)


def _module(short: str):
    return importlib.import_module(f"cliqueforest.{short}")


class Hooks:
    """Installs the wrappers of one tracer and restores the originals."""

    def __init__(self, tracer: Tracer):
        self.tracer = tracer
        self._saved: List[Tuple[object, str, object]] = []
        self.missing: Dict[str, str] = {}  # span name -> why it is absent

    def _swap(self, owner, attr: str, new) -> None:
        self._saved.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, new)

    def install(self) -> "Hooks":
        t = self.tracer
        for mod, attr, span in NAME_HOOKS:
            m = _module(mod)
            if not callable(getattr(m, attr, None)):
                self.missing[span] = f"cliqueforest.{mod} has no {attr}"
                continue
            self._swap(m, attr, t.wrap(span, getattr(m, attr)))
        for mod, cls_name, meth, span in METHOD_HOOKS + COUNTER_HOOKS:
            cls = getattr(_module(mod), cls_name, None)
            if cls is None or meth not in vars(cls):
                self.missing[span] = f"cliqueforest.{mod}.{cls_name} has no {meth}"
                continue
            wrap = t.counter if (mod, cls_name, meth, span) in COUNTER_HOOKS else t.wrap
            self._swap(cls, meth, wrap(span, vars(cls)[meth]))
        self._install_proxies()
        self._install_enumerate()
        return self

    def _install_proxies(self) -> None:
        t, cli = self.tracer, _module("cli")
        json_mod = getattr(cli, "json", None)
        if json_mod is None or not callable(getattr(json_mod, "loads", None)):
            self.missing["serialize.json_loads"] = "cliqueforest.cli has no json.loads"
        else:
            self._swap(cli, "json", _Proxy(json_mod, loads=t.wrap(
                "serialize.json_loads", json_mod.loads)))
        ga = getattr(cli, "GeneratorAssignment", None)
        if ga is None or not callable(getattr(ga, "from_dict", None)):
            self.missing["serialize.from_dict"] = (
                "cliqueforest.cli has no GeneratorAssignment.from_dict")
        else:
            self._swap(cli, "GeneratorAssignment", _Proxy(ga, from_dict=t.wrap(
                "serialize.from_dict", ga.from_dict)))

    def _install_enumerate(self) -> None:
        # the schedule enumeration and the pure-g enumeration share one
        # function; the pure-g call is told apart by require_f=False
        syn = _module("synthesis")
        fn = getattr(syn, "enumerate_words", None)
        if not callable(fn):
            self.missing["synthesis.enumerate_words"] = (
                "cliqueforest.synthesis has no enumerate_words")
            return
        sched = self.tracer.wrap("synthesis.enumerate_words", fn)
        pure = self.tracer.wrap("synthesis.enumerate_words.pure_g", fn)

        @functools.wraps(fn)
        def enumerate_words(num_g, max_len, require_f=True):
            return (sched if require_f else pure)(num_g, max_len, require_f)

        self._swap(syn, "enumerate_words", enumerate_words)

    def remove(self) -> None:
        while self._saved:
            owner, attr, old = self._saved.pop()
            setattr(owner, attr, old)

    def __enter__(self):
        try:
            return self.install()
        except BaseException:
            self.remove()
            raise

    def __exit__(self, *exc):
        self.remove()
        return False
