"""Weighted context-free grammars.

Defines the grammar object model, a small text DSL for reading and writing
grammars, structural validation (defined references, and acyclicity, which
``graphlib``'s topological sort checks while it orders the rules), exact
derivation counting / enumeration (the oracle the membership matcher is
tested against), and weighted sampling. Each grammar lowers itself once to
an index-based form, ``Grammar._lowered``, which both the sampler here and
the membership matcher (``ruaguard.matching``) read, and counts itself once,
``Grammar._figures``, which counting, enumeration and sampling read. Past
``ENUMERATION_BUDGET`` characters, ``check_budget`` refuses to build.

DSL, one rule per line:

    Name -> "literal " Other | 2.5: "weighted alternative"
    Other @nosplit -> "a" | "b"

Terminals are double-quoted with backslash escapes; adjacent symbols
concatenate with no implicit space. ``#`` starts a comment. Lines end at a
line feed only; a rule whose line ends in a bare ``|`` continues on the next
line. The first rule is the start symbol. Weights default to 1.
"""

from __future__ import annotations

import functools
import graphlib
import itertools
import math
import random
import re
from dataclasses import dataclass, field

from .errors import GrammarError, InvalidInputError
from .text import parse_file

SPLIT_AUTO = "auto"
SPLIT_ALWAYS = "always"
SPLIT_NEVER = "never"


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


# eq=False: a grammar equals and hashes as itself, whatever rules it holds.
@dataclass(eq=False)
class Grammar:
    rules: dict[str, Rule]
    start_symbol: str
    # every rule name after all the rules it references
    _postorder: tuple[str, ...] = field(init=False, repr=False)
    # the file ``load_grammar`` read it from, for errors met after loading
    source: str | None = field(default=None, init=False, repr=False)

    def __post_init__(self):
        self._postorder = validate_grammar(self)

    @functools.cached_property
    def _lowered(self) -> tuple[list[tuple[tuple, list[float]]], int]:
        """The grammar by rule id, built once: ``(rules, start)``.

        ``rules[i]`` is rule *i*'s alternatives, each a tuple of symbols (a
        terminal's text or an int rule id), and the running totals of their
        weights; ``start`` is the start rule's id. Rule ids follow the order
        of ``rules``. Sampling and matching both read this form.
        """
        index = {name: i for i, name in enumerate(self.rules)}
        lowered = []
        for rule in self.rules.values():
            alts = tuple(
                tuple(s.text if isinstance(s, Terminal) else index[s.name] for s in alt.symbols)
                for alt in rule.alternatives
            )
            cum = list(itertools.accumulate(alt.weight for alt in rule.alternatives))
            lowered.append((alts, cum))
        return lowered, index[self.start_symbol]

    @functools.cached_property
    def _figures(self) -> dict[str, tuple[int, int]]:
        """Per rule reachable from the start, in post-order, built once: its
        exact number of derivations and the exact length of its longest string."""
        figures: dict[str, tuple[int, int]] = {}
        for name in _reachable_postorder(self.rules, self._postorder, self.start_symbol):
            count = longest = 0
            for alt in self.rules[name].alternatives:
                prod, length = 1, 0
                for sym in alt.symbols:
                    if isinstance(sym, Terminal):
                        length += len(sym.text)
                    else:
                        sub_count, sub_longest = figures[sym.name]
                        prod *= sub_count
                        length += sub_longest
                count += prod
                longest = max(longest, length)
            figures[name] = (count, longest)
        return figures


def _undefined(name: str) -> GrammarError:
    return GrammarError(f"non-terminal {name!r} is referenced but never defined")


def validate_grammar(g: Grammar) -> tuple[str, ...]:
    """Check structural invariants; raise GrammarError on failure.

    Returns the rule names in post-order: each after every rule it references.
    """
    if not g.rules:
        raise GrammarError("grammar defines no rules")
    if g.start_symbol not in g.rules:
        raise _undefined(g.start_symbol)
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
                    raise _undefined(sym.name)
    # a dict, not a set, so the order never depends on string hashing
    refs = {name: dict.fromkeys(_refs(rule.alternatives)) for name, rule in g.rules.items()}
    try:
        return tuple(graphlib.TopologicalSorter(refs).static_order())
    except graphlib.CycleError as exc:
        # graphlib lists the cycle from each rule to one that references it
        cycle = " -> ".join(exc.args[1][::-1])
        raise GrammarError(f"grammar contains a cycle: {cycle}") from None


def _refs(alternatives):
    """The rule names the alternatives reference, repeats included."""
    for alt in alternatives:
        for sym in alt.symbols:
            if isinstance(sym, NonTerminalRef):
                yield sym.name


def normalized_weights(rule: Rule) -> list[float]:
    total = sum(alt.weight for alt in rule.alternatives)
    return [alt.weight / total for alt in rule.alternatives]


# ---------------------------------------------------------------------------
# DSL parsing

# One token per match, tried in this order; the group that matched names it.
_TOKEN_RE = re.compile(
    r"(?P<space>\s+)"
    r"|(?P<comment>#.*)"
    r'|(?P<string>"(?:[^"\\]|\\.)*")'
    r"|(?P<head>(?P<rule>[A-Za-z][A-Za-z0-9_]*)\s*(?P<annotation>@split|@nosplit)?\s*->)"
    r"|(?P<weight>(?P<value>\d+(?:\.\d+)?(?:[eE][+-]?\d+)?)\s*:)"
    r"|(?P<name>[A-Za-z][A-Za-z0-9_]*)"
    r"|(?P<bar>\|)"
)
_SPLITTABLE = {None: SPLIT_AUTO, "@split": SPLIT_ALWAYS, "@nosplit": SPLIT_NEVER}
# what follows a backslash in a string literal, and the character it stands for
_ESCAPES = {"n": "\n", "r": "\r", "t": "\t", '"': '"', "\\": "\\"}
_ESCAPED = str.maketrans({char: "\\" + code for code, char in _ESCAPES.items()})


def _tokens(source_text: str):
    """Yield (kind, match, line, col) per token, spaces and comments left out,
    and ("end", None, line, col) after each line that holds a token."""
    for lineno, line in enumerate(source_text.split("\n"), start=1):
        pos, held = 0, False
        while pos < len(line):
            match = _TOKEN_RE.match(line, pos)
            if match is None:
                ch = line[pos]
                problem = (
                    "unterminated string literal" if ch == '"' else f"unexpected character {ch!r}"
                )
                raise GrammarError(problem, lineno, pos + 1)
            if match.lastgroup not in ("space", "comment"):
                yield match.lastgroup, match, lineno, pos + 1
                held = True
            pos = match.end()
        if held:
            yield "end", None, lineno, len(line) + 1


def _unquote(literal: str, line: int, col: int) -> str:
    def unescape(match):
        if match[1] not in _ESCAPES:
            raise GrammarError("unknown escape", line, col + 1 + match.start())
        return _ESCAPES[match[1]]

    return re.sub(r"\\(.)", unescape, literal[1:-1])


def parse_grammar(source_text: str) -> Grammar:
    """Parse DSL text into a validated Grammar; the first rule is the start."""
    rules: dict[str, Rule] = {}
    head = None  # the rule-head match of the rule being read
    alternatives: list[Alternative] = []
    symbols: list[Symbol] = []
    weight = None
    prev = None
    for kind, match, line, col in _tokens(source_text):
        if head is None:
            if kind != "head":
                raise GrammarError("expected 'Name [@split|@nosplit] ->'", line, col)
            head = match
        elif kind == "string":
            symbols.append(Terminal(_unquote(match[0], line, col)))
        elif kind == "name":
            symbols.append(NonTerminalRef(match[0]))
        elif kind == "weight" and weight is None and not symbols:
            weight = float(match["value"])
            if weight <= 0.0:
                raise GrammarError("weight must be positive", line, col)
        elif kind == "bar" or (kind == "end" and prev != "bar"):
            if not symbols:
                raise GrammarError("empty alternative", line, col)
            alternatives.append(Alternative(tuple(symbols), 1.0 if weight is None else weight))
            symbols, weight = [], None
            if kind == "end":
                name = head["rule"]
                if name in rules:
                    raise GrammarError(f"rule {name!r} is defined more than once")
                rules[name] = Rule(name, tuple(alternatives), _SPLITTABLE[head["annotation"]])
                head, alternatives = None, []
        elif kind != "end":
            # a rule head inside a rule, or a weight after the alternative's start
            raise GrammarError(f"unexpected {match[0]!r}", line, col)
        prev = kind
    if head is not None:
        # the last line ended in '|'
        raise GrammarError("empty alternative", line, col)
    if not rules:
        raise GrammarError("no rules found", 1, 1)
    return Grammar(rules=rules, start_symbol=next(iter(rules)))


def load_grammar(path) -> Grammar:
    g = parse_file(path, parse_grammar)
    g.source = str(path)
    return g


# ---------------------------------------------------------------------------
# DSL serialization


def _escape_terminal(text: str) -> str:
    return f'"{text.translate(_ESCAPED)}"'


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


# ---------------------------------------------------------------------------
# Counting and enumeration


def _reachable_postorder(rules: dict[str, Rule], postorder, start: str) -> list[str]:
    """The names in ``rules`` reachable from ``start``, in ``postorder``: a
    sequence that lists each rule after every rule it references."""
    reachable = {start}
    for name in reversed(postorder):
        if name in reachable:
            reachable.update(_refs(rules[name].alternatives))
    return [name for name in postorder if name in reachable]


def count_derivations(g: Grammar) -> int:
    """Exact number of distinct derivations from the start symbol."""
    return g._figures[g.start_symbol][0]


# The largest enumeration_size at which ``language`` enumerates a grammar,
# about 16 MB of text per grammar (pos measures 1.7M, aic 0.2M; a batch holds
# both), and the longest string ``sample`` draws.
ENUMERATION_BUDGET = 2**24


def refusal(g: Grammar, message: str) -> InvalidInputError:
    """``message`` as an InvalidInputError led by ``g``'s file, if it has one."""
    where = "" if g.source is None else f"{g.source}: "
    return InvalidInputError(f"{where}{message}")


def check_budget(g: Grammar, what: str, size: int) -> None:
    """Refuse ``g`` when ``what`` takes over ``ENUMERATION_BUDGET`` characters."""
    if size > ENUMERATION_BUDGET:
        raise refusal(g, f"{what} {size} characters, over the limit of {ENUMERATION_BUDGET}")


def enumeration_size(g: Grammar) -> int:
    """The characters ``enumerate_strings(g)`` builds at most, one more per
    string for its slot: over every rule it reaches, derivations × (longest
    string + 1). Cheap, where enumerating is not."""
    return sum(count * (longest + 1) for count, longest in g._figures.values())


def enumerate_strings(g: Grammar) -> list[str]:
    """All derived strings from the start symbol, one entry per derivation.

    The result length equals count_derivations; duplicates mean distinct
    derivations of the same string. Cost is derivations × longest string,
    not derivations alone, summed over the rules reached: the doubling chain
    ``R0 -> R1 R1``, …, ``R22 -> "a"`` has one derivation, of 2**22
    characters, and a chain of n rules builds n strings of up to n
    characters. So ``check_budget`` refuses an enumeration_size over
    ``ENUMERATION_BUDGET`` before anything is built.
    """
    check_budget(g, "enumerating the language takes", enumeration_size(g))
    strings: dict[str, list[str]] = {}
    for name in g._figures:
        out: list[str] = []
        for alt in g.rules[name].alternatives:
            pools = [
                [sym.text] if isinstance(sym, Terminal) else strings[sym.name]
                for sym in alt.symbols
            ]
            for combo in itertools.product(*pools):
                out.append("".join(combo))
        strings[name] = out
    return strings[g.start_symbol]


def language(g: Grammar) -> set[str] | None:
    """The distinct strings ``g`` derives, or None when its enumeration_size
    is over ``ENUMERATION_BUDGET``. Each call builds a new set."""
    if enumeration_size(g) > ENUMERATION_BUDGET:
        return None
    return set(enumerate_strings(g))


def derive_once(g: Grammar, rng: random.Random) -> str:
    """Sample one string by weighted choice of alternatives, leftmost first."""
    rules, start = g._lowered
    parts: list[str] = []
    # the symbols still to expand, the next one on top
    stack: list[str | int] = [start]
    while stack:
        sym = stack.pop()
        if isinstance(sym, str):
            parts.append(sym)
            continue
        alts, cum = rules[sym]
        # the draw random.choices makes from the weights, without summing them again
        stack.extend(reversed(rng.choices(alts, cum_weights=cum, k=1)[0]))
    return "".join(parts)
