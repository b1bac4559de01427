"""Weighted sampling from grammars and typo/variant modifiers.

Modifiers rewrite a token inside terminals into a new probabilistic
non-terminal whose alternatives are the original token plus variant forms,
so e.g. common misspellings enter the language at a configurable rate while
the original stays the most likely.
"""

from __future__ import annotations

import random
import re
import warnings
from dataclasses import dataclass

from .errors import TargetNotFoundWarning
from .grammar import (
    SPLIT_AUTO,
    Alternative,
    Grammar,
    NonTerminalRef,
    Rule,
    Terminal,
    check_budget,
    derive_once,
    language,
    refusal,
)

DEFAULT_ORIGINAL_WEIGHT = 8.0

# Deduplicated sampling of n strings gives up after this many draws per string.
DRAWS_PER_STRING = 50


@dataclass(frozen=True)
class SampleBatch:
    utterances: tuple[str, ...]


@dataclass(frozen=True)
class ModifierSpec:
    target: str
    variants: tuple[tuple[str, float], ...]
    original_weight: float = DEFAULT_ORIGINAL_WEIGHT

    def __post_init__(self):
        if not self.target or re.search(r"\s", self.target):
            raise ValueError("modifier target must be a single whitespace-free token")
        if not self.variants:
            raise ValueError("modifier needs at least one variant")
        for _, weight in self.variants:
            if weight <= 0:
                raise ValueError("variant weights must be positive")
            if self.original_weight <= weight:
                raise ValueError(
                    "original_weight must exceed every variant weight"
                )


def sample(
    g: Grammar,
    n: int,
    seed: int,
    dedup: bool = True,
) -> SampleBatch:
    """Draw ``n`` weighted samples from ``g``, deterministic per seed.

    With dedup, rejection-sample until ``n`` distinct strings are found or
    ``DRAWS_PER_STRING * n`` draws are spent. A language that provably holds
    fewer than ``n`` strings gives what was found, and drawing stops once it
    is all held; otherwise falling short raises InvalidInputError. The size
    is ``len(language(g))``, or the derivations when that is None: before
    drawing if ``n`` reaches the derivations, else once draws fall short.
    Before any draw, ``grammar.check_budget`` refuses a grammar whose longest
    string is over ``grammar.ENUMERATION_BUDGET`` characters.
    """
    if n < 1:
        raise ValueError("n must be at least 1")
    derivations, longest = g._figures[g.start_symbol]
    check_budget(g, "the longest string is", longest)
    rng = random.Random(seed)
    if not dedup:
        utterances = tuple(derive_once(g, rng) for _ in range(n))
    else:
        seen: dict[str, None] = {}
        # the language's size: no draw adds a string once that many are held
        size = _distinct(g, derivations) if n >= derivations else derivations
        wanted = min(n, size)
        for _ in range(DRAWS_PER_STRING * n):
            text = derive_once(g, rng)
            if text not in seen:
                seen[text] = None
                if len(seen) == wanted:
                    break
        if len(seen) < n < size:
            # short below the derivations: the strings may be fewer than n
            size = _distinct(g, size)
        if len(seen) < n <= size:
            raise refusal(g, f"found only {len(seen)} distinct strings while {n} were requested")
        utterances = tuple(seen)
    return SampleBatch(utterances)


def _distinct(g: Grammar, derivations: int) -> int:
    """How many distinct strings ``g`` derives, or its derivations when
    ``language`` does not hold them."""
    held = language(g)
    return derivations if held is None else len(held)


def _fresh_name(g: Grammar, spec: ModifierSpec) -> str:
    base = "Mod_" + re.sub(r"[^A-Za-z0-9_]", "_", spec.target)
    name = base
    counter = 2
    while name in g.rules:
        name = f"{base}{counter}"
        counter += 1
    return name


def _rewrite_terminal(text: str, target: str, ref_name: str) -> list:
    """Split a terminal around token-exact occurrences of ``target``."""
    pieces = re.split(rf"(?<!\S){re.escape(target)}(?!\S)", text)
    if len(pieces) == 1:
        return []
    symbols: list = []
    for i, piece in enumerate(pieces):
        if i:
            symbols.append(NonTerminalRef(ref_name))
        if piece:
            symbols.append(Terminal(piece))
    return symbols


def apply_modifier(g: Grammar, spec: ModifierSpec) -> Grammar:
    """Rewrite every terminal token equal to ``spec.target`` into a weighted
    choice between the original token and the variant forms.

    If the target occurs nowhere, the input grammar is returned unchanged and
    a TargetNotFoundWarning is emitted.
    """
    new_name = _fresh_name(g, spec)
    new_rules: dict[str, Rule] = {}
    found = False
    for rule in g.rules.values():
        alternatives = []
        for alt in rule.alternatives:
            symbols: list = []
            for sym in alt.symbols:
                if isinstance(sym, Terminal):
                    rewritten = _rewrite_terminal(sym.text, spec.target, new_name)
                    if rewritten:
                        found = True
                        symbols.extend(rewritten)
                    else:
                        symbols.append(sym)
                else:
                    symbols.append(sym)
            alternatives.append(Alternative(tuple(symbols), alt.weight))
        new_rules[rule.name] = Rule(rule.name, tuple(alternatives), rule.splittable)
    if not found:
        warnings.warn(
            f"modifier target {spec.target!r} matched no terminal token",
            TargetNotFoundWarning,
            stacklevel=2,
        )
        return g
    choice_alts = [Alternative((Terminal(spec.target),), spec.original_weight)]
    choice_alts.extend(
        Alternative((Terminal(variant),), weight) for variant, weight in spec.variants
    )
    new_rules[new_name] = Rule(new_name, tuple(choice_alts), SPLIT_AUTO)
    return Grammar(rules=new_rules, start_symbol=g.start_symbol)
