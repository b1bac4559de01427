"""Weighted context-free grammars.

Defines the grammar object model, a small text DSL for reading and writing
grammars, structural validation (acyclicity, defined references), and exact
derivation counting / enumeration used both for generation and as the oracle
for the fast membership matcher.

DSL, one rule per logical line:

    Name -> "literal " Other | 2.5: "weighted alternative"
    Other @nosplit -> "a" | "b"

Terminals are double-quoted with backslash escapes; adjacent symbols
concatenate with no implicit space. ``#`` starts a comment. A line whose
content ends with a bare ``|`` continues on the next line. The first rule
is the start symbol. Weights default to 1.
"""

from __future__ import annotations

import functools
import itertools
import math
import random
import re
from dataclasses import dataclass, field

from .errors import (
    CycleDetectedError,
    DuplicateRuleError,
    GrammarError,
    GrammarSyntaxError,
    UndefinedNonTerminalError,
)
from .hashing import fnv1a_64

SPLIT_AUTO = "auto"
SPLIT_ALWAYS = "always"
SPLIT_NEVER = "never"

_NAME_RE = re.compile(r"[A-Za-z][A-Za-z0-9_]*")
_WEIGHT_RE = re.compile(r"(\d+(?:\.\d+)?(?:[eE][+-]?\d+)?)\s*:")
_RULE_HEAD_RE = re.compile(
    r"\s*([A-Za-z][A-Za-z0-9_]*)\s*(@split|@nosplit)?\s*->"
)


@dataclass(frozen=True)
class Terminal:
    text: str


@dataclass(frozen=True)
class NonTerminalRef:
    name: str


Symbol = Terminal | NonTerminalRef


@dataclass(frozen=True)
class Alternative:
    symbols: tuple[Symbol, ...]
    weight: float = 1.0


@dataclass(frozen=True)
class Rule:
    name: str
    alternatives: tuple[Alternative, ...]
    splittable: str = SPLIT_AUTO


# eq=False keeps identity hashing so matchers can be cached per grammar
# object.
@dataclass(eq=False)
class Grammar:
    rules: dict[str, Rule]
    start_symbol: str
    # every rule name after all the rules it references
    _postorder: tuple[str, ...] = field(init=False, repr=False)

    def __post_init__(self):
        self._postorder = validate_grammar(self)

    @functools.cached_property
    def _cum_weights(self) -> dict[str, list[float]]:
        """Per rule, the running totals of its alternatives' weights."""
        return {
            name: list(itertools.accumulate(alt.weight for alt in rule.alternatives))
            for name, rule in self.rules.items()
        }


def validate_grammar(g: Grammar) -> tuple[str, ...]:
    """Check structural invariants; raise a GrammarError subclass on failure.

    Returns the rule names in post-order: each after every rule it references.
    """
    if not g.rules:
        raise GrammarError("grammar defines no rules")
    if g.start_symbol not in g.rules:
        raise UndefinedNonTerminalError(g.start_symbol)
    for name, rule in g.rules.items():
        if name != rule.name:
            raise GrammarError(f"rule {rule.name!r} stored under key {name!r}")
        if rule.splittable not in (SPLIT_AUTO, SPLIT_ALWAYS, SPLIT_NEVER):
            raise GrammarError(
                f"rule {name!r} has invalid splittable state {rule.splittable!r}"
            )
        if not rule.alternatives:
            raise GrammarError(f"rule {name!r} has no alternatives")
        for alt in rule.alternatives:
            if not alt.symbols:
                raise GrammarError(f"rule {name!r} has an alternative with no symbols")
            if not (math.isfinite(alt.weight) and alt.weight > 0.0):
                raise GrammarError(f"rule {name!r} has a non-positive or non-finite weight")
            for sym in alt.symbols:
                if isinstance(sym, NonTerminalRef) and sym.name not in g.rules:
                    raise UndefinedNonTerminalError(sym.name)
    return _check_acyclic(g)


def _rule_refs(rule: Rule):
    for alt in rule.alternatives:
        for sym in alt.symbols:
            if isinstance(sym, NonTerminalRef):
                yield sym.name


def _check_acyclic(g: Grammar) -> tuple[str, ...]:
    # Iterative DFS; colors: 0 unvisited, 1 on stack, 2 done.
    color = dict.fromkeys(g.rules, 0)
    done: list[str] = []
    for root in g.rules:
        if color[root]:
            continue
        color[root] = 1
        stack = [(root, iter(_rule_refs(g.rules[root])))]
        path = [root]
        while stack:
            name, refs = stack[-1]
            advanced = False
            for ref in refs:
                state = color[ref]
                if state == 1:
                    cycle_start = path.index(ref)
                    raise CycleDetectedError(path[cycle_start:] + [ref])
                if state == 0:
                    color[ref] = 1
                    stack.append((ref, iter(_rule_refs(g.rules[ref]))))
                    path.append(ref)
                    advanced = True
                    break
            if not advanced:
                stack.pop()
                path.pop()
                color[name] = 2
                done.append(name)
    return tuple(done)


def normalized_weights(rule: Rule) -> list[float]:
    total = sum(alt.weight for alt in rule.alternatives)
    return [alt.weight / total for alt in rule.alternatives]


# ---------------------------------------------------------------------------
# DSL parsing


def _strip_comment(line: str, lineno: int) -> str:
    out = []
    in_string = False
    i = 0
    while i < len(line):
        ch = line[i]
        if in_string:
            if ch == "\\":
                if i + 1 >= len(line):
                    raise GrammarSyntaxError(
                        "backslash at end of line inside string", lineno, i + 1
                    )
                out.append(ch)
                out.append(line[i + 1])
                i += 2
                continue
            if ch == '"':
                in_string = False
            out.append(ch)
        else:
            if ch == "#":
                break
            if ch == '"':
                in_string = True
            out.append(ch)
        i += 1
    if in_string:
        raise GrammarSyntaxError("unterminated string literal", lineno, len(line))
    return "".join(out)


def _logical_lines(source_text: str):
    """Yield (first_lineno, text) with comments removed and continuations joined."""
    pending_lineno = None
    pending_parts: list[str] = []
    for lineno, raw in enumerate(source_text.splitlines(), start=1):
        stripped = _strip_comment(raw, lineno).strip()
        if not stripped:
            continue
        if pending_lineno is None:
            pending_lineno = lineno
        pending_parts.append(stripped)
        joined = " ".join(pending_parts)
        if not joined.endswith("|"):
            yield pending_lineno, joined
            pending_lineno = None
            pending_parts = []
    if pending_parts:
        # Trailing '|' with nothing after it: surface as an empty alternative.
        yield pending_lineno, " ".join(pending_parts)


def _parse_string_literal(text: str, i: int, lineno: int, base_col: int):
    # text[i] is the opening quote
    start = i
    i += 1
    out = []
    escapes = {"n": "\n", "t": "\t", '"': '"', "\\": "\\"}
    while i < len(text):
        ch = text[i]
        if ch == "\\":
            if i + 1 >= len(text) or text[i + 1] not in escapes:
                raise GrammarSyntaxError("unknown escape", lineno, base_col + i)
            out.append(escapes[text[i + 1]])
            i += 2
            continue
        if ch == '"':
            return "".join(out), i + 1
        out.append(ch)
        i += 1
    raise GrammarSyntaxError("unterminated string literal", lineno, base_col + start)


def _parse_alternatives(rhs: str, lineno: int, base_col: int) -> tuple[Alternative, ...]:
    alternatives: list[Alternative] = []
    symbols: list[Symbol] = []
    weight: float | None = None
    at_alt_start = True
    i = 0

    def close(pos: int) -> None:
        nonlocal symbols, weight, at_alt_start
        if not symbols:
            raise GrammarSyntaxError("empty alternative", lineno, base_col + pos)
        alternatives.append(
            Alternative(tuple(symbols), 1.0 if weight is None else weight)
        )
        symbols = []
        weight = None
        at_alt_start = True

    while i < len(rhs):
        ch = rhs[i]
        if ch.isspace():
            i += 1
            continue
        if ch == "|":
            close(i)
            i += 1
            continue
        if at_alt_start:
            match = _WEIGHT_RE.match(rhs, i)
            if match:
                weight = float(match.group(1))
                if weight <= 0.0:
                    raise GrammarSyntaxError("weight must be positive", lineno, base_col + i)
                i = match.end()
                at_alt_start = False
                continue
            at_alt_start = False
        if ch == '"':
            literal, i = _parse_string_literal(rhs, i, lineno, base_col)
            symbols.append(Terminal(literal))
            continue
        match = _NAME_RE.match(rhs, i)
        if match:
            symbols.append(NonTerminalRef(match.group(0)))
            i = match.end()
            continue
        raise GrammarSyntaxError(f"unexpected character {ch!r}", lineno, base_col + i)

    close(len(rhs))
    return tuple(alternatives)


def _parse_rule(lineno: int, text: str) -> Rule:
    head = _RULE_HEAD_RE.match(text)
    if not head:
        raise GrammarSyntaxError("expected 'Name [@split|@nosplit] ->'", lineno, 1)
    name = head.group(1)
    annotation = head.group(2)
    splittable = {
        None: SPLIT_AUTO,
        "@split": SPLIT_ALWAYS,
        "@nosplit": SPLIT_NEVER,
    }[annotation]
    alternatives = _parse_alternatives(text[head.end():], lineno, head.end() + 1)
    return Rule(name=name, alternatives=alternatives, splittable=splittable)


def parse_grammar(source_text: str) -> Grammar:
    """Parse DSL text into a validated Grammar; the first rule is the start."""
    rules: dict[str, Rule] = {}
    start = None
    for lineno, logical in _logical_lines(source_text):
        rule = _parse_rule(lineno, logical)
        if rule.name in rules:
            raise DuplicateRuleError(rule.name)
        rules[rule.name] = rule
        if start is None:
            start = rule.name
    if start is None:
        raise GrammarSyntaxError("no rules found", 1, 1)
    return Grammar(rules=rules, start_symbol=start)


def load_grammar(path) -> Grammar:
    with open(path, encoding="utf-8") as fh:
        return parse_grammar(fh.read())


# ---------------------------------------------------------------------------
# DSL serialization


def _escape_terminal(text: str) -> str:
    text = text.replace("\\", "\\\\").replace('"', '\\"')
    text = text.replace("\n", "\\n").replace("\t", "\\t")
    return f'"{text}"'


def _format_alternative(alt: Alternative) -> str:
    parts = []
    if alt.weight != 1.0:
        # repr keeps the shortest exact float form, so round-trips are lossless
        parts.append(f"{alt.weight!r}:")
    for sym in alt.symbols:
        if isinstance(sym, Terminal):
            parts.append(_escape_terminal(sym.text))
        else:
            parts.append(sym.name)
    return " ".join(parts)


def serialize_grammar(g: Grammar) -> str:
    names = [g.start_symbol] + [n for n in g.rules if n != g.start_symbol]
    lines = []
    for name in names:
        rule = g.rules[name]
        annotation = {SPLIT_ALWAYS: " @split", SPLIT_NEVER: " @nosplit"}.get(
            rule.splittable, ""
        )
        body = " | ".join(_format_alternative(a) for a in rule.alternatives)
        lines.append(f"{name}{annotation} -> {body}")
    return "\n".join(lines) + "\n"


def grammar_fingerprint(g: Grammar) -> str:
    """Stable hex identifier for a grammar's serialized form."""
    return f"{fnv1a_64(serialize_grammar(g)):016x}"


# ---------------------------------------------------------------------------
# Counting and enumeration


def _reachable_postorder(g: Grammar, symbol: str) -> list[str]:
    """Rules reachable from ``symbol``, each after every rule it references."""
    reachable = {symbol}
    for name in reversed(g._postorder):
        if name in reachable:
            reachable.update(_rule_refs(g.rules[name]))
    return [name for name in g._postorder if name in reachable]


def count_derivations(g: Grammar, symbol: str | None = None) -> int:
    """Exact number of distinct derivations from ``symbol`` (default: start)."""
    symbol = symbol or g.start_symbol
    counts: dict[str, int] = {}
    for name in _reachable_postorder(g, symbol):
        total = 0
        for alt in g.rules[name].alternatives:
            prod = 1
            for sym in alt.symbols:
                if isinstance(sym, NonTerminalRef):
                    prod *= counts[sym.name]
            total += prod
        counts[name] = total
    return counts[symbol]


def enumerate_strings(g: Grammar, symbol: str | None = None) -> list[str]:
    """All derived strings from ``symbol``, one entry per derivation.

    The result length equals count_derivations; duplicates mean distinct
    derivations of the same string. Cost is linear in the derivation count,
    so check count_derivations first on untrusted grammars.
    """
    symbol = symbol or g.start_symbol
    strings: dict[str, list[str]] = {}
    for name in _reachable_postorder(g, symbol):
        out: list[str] = []
        for alt in g.rules[name].alternatives:
            pools = [
                [sym.text] if isinstance(sym, Terminal) else strings[sym.name]
                for sym in alt.symbols
            ]
            for combo in itertools.product(*pools):
                out.append("".join(combo))
        strings[name] = out
    return strings[symbol]


def derive_once(g: Grammar, rng: random.Random) -> str:
    """Sample one string by weighted choice of alternatives, leftmost first."""
    parts: list[str] = []
    # the symbols still to expand, the next one on top
    stack: list[Symbol] = [NonTerminalRef(g.start_symbol)]
    while stack:
        sym = stack.pop()
        if isinstance(sym, Terminal):
            parts.append(sym.text)
            continue
        # the draw random.choices makes from the weights, without summing them again
        alt = rng.choices(
            g.rules[sym.name].alternatives, cum_weights=g._cum_weights[sym.name], k=1
        )[0]
        stack.extend(reversed(alt.symbols))
    return "".join(parts)
