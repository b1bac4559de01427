"""Grammar membership.

A grammar is lowered once into an index-based form, then matched by
memoized end-position search: for each (rule, start offset) the matcher
records the set of offsets where a derivation of that rule can end.
"""

from __future__ import annotations

from functools import lru_cache

from .grammar import Grammar, Terminal


def lower_grammar(g: Grammar) -> tuple[list[list[list]], int]:
    """Flatten a Grammar into (rules, start_id) for the matcher."""
    index = {name: i for i, name in enumerate(g.rules)}
    rules = []
    for rule in g.rules.values():
        alts = []
        for alt in rule.alternatives:
            alts.append(
                [
                    sym.text if isinstance(sym, Terminal) else index[sym.name]
                    for sym in alt.symbols
                ]
            )
        rules.append(alts)
    return rules, index[g.start_symbol]


class PyMatcher:
    """Memoized matcher over a lowered grammar.

    ``rules`` is a list (indexed by rule id) of alternatives, each a list of
    symbols; a symbol is a terminal string or an int rule id. ``start`` is
    the start rule id.
    """

    def __init__(self, rules: list[list[list]], start: int):
        self._rules = rules
        self._start = start

    def accepts(self, text: str) -> bool:
        target = len(text)
        rules = self._rules
        memo: dict[tuple[int, int], set[int]] = {}

        def match(rule_id: int, i: int) -> set[int]:
            key = (rule_id, i)
            cached = memo.get(key)
            if cached is not None:
                return cached
            ends: set[int] = set()
            for alt in rules[rule_id]:
                positions = {i}
                for sym in alt:
                    if not positions:
                        break
                    nxt: set[int] = set()
                    if isinstance(sym, str):
                        width = len(sym)
                        for pos in positions:
                            if text.startswith(sym, pos):
                                nxt.add(pos + width)
                    else:
                        for pos in positions:
                            nxt |= match(sym, pos)
                    positions = nxt
                ends |= positions
            memo[key] = ends
            return ends

        return target in match(self._start, 0)


# Grammars hash by identity, so each distinct grammar object compiles once.
@lru_cache(maxsize=128)
def compile_matcher(g: Grammar) -> PyMatcher:
    """The matcher for ``g``, built once per grammar object."""
    return PyMatcher(*lower_grammar(g))


def member(g: Grammar, text: str) -> bool:
    """True iff ``text`` is in the language of ``g``."""
    return compile_matcher(g).accepts(text)
