"""Grammar membership.

Matches text against a grammar's lowered form (``Grammar._lowered``, shared
with the sampler) by memoized end-position search: for each (rule, start
offset) the matcher records the set of offsets where a derivation of that
rule can end. The memo lives for one call; the lowered form lives as long as
the grammar does.
"""

from __future__ import annotations

from .errors import GrammarError
from .grammar import Grammar


def member(g: Grammar, text: str) -> bool:
    """True iff ``text`` is in the language of ``g``."""
    rules, start = g._lowered
    memo: dict[tuple[int, int], set[int]] = {}

    def match(rule_id: int, i: int) -> set[int]:
        key = (rule_id, i)
        cached = memo.get(key)
        if cached is not None:
            return cached
        ends: set[int] = set()
        for alt in rules[rule_id][0]:
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

    # A stopgap until the matcher runs at any depth: the search recurses once
    # per nested rule, so a grammar nested past the interpreter's recursion
    # limit is refused instead of leaking RecursionError.
    try:
        return len(text) in match(start, 0)
    except RecursionError:
        exc = GrammarError("grammar nests too deeply for the matcher")
        exc.source = g.source
        raise exc from None
