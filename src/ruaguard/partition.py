"""Leakage-safe intra-rule partitioning of grammars.

For each rule with enough alternatives, the highest-probability alternatives
are duplicated into every split until a cumulative probability mass ``p`` is
covered; every remaining alternative is assigned to exactly one of
train/val/test by a seeded weighted draw. Strings derivable only through an
exclusive alternative therefore occur in exactly one split's language.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field

from .errors import DatasetFormatError, EmptySplitGrammarError, InvalidInputError
from .generation import SampleBatch, sample
from .grammar import (
    SPLIT_ALWAYS,
    SPLIT_NEVER,
    Grammar,
    Rule,
    _reachable_postorder,
    _refs,
    normalized_weights,
)
from .hashing import derive_seed

SPLITS = ("train", "val", "test")
_MASS_EPS = 1e-12


@dataclass(frozen=True)
class PartitionConfig:
    p: float = 0.25
    split_fractions: tuple[float, float, float] = (0.70, 0.15, 0.15)
    min_alternatives_to_split: int = 4
    seed: int = 0
    # stop the shared prefix at cumulative mass > p instead of >= p
    strict_greater: bool = False

    def __post_init__(self):
        if not 0.0 < self.p < 1.0:
            raise InvalidInputError("p must lie strictly between 0 and 1")
        if len(self.split_fractions) != 3 or any(f <= 0 for f in self.split_fractions):
            raise InvalidInputError("split_fractions must be three positive numbers")
        if not math.isclose(sum(self.split_fractions), 1.0, abs_tol=1e-9):
            raise InvalidInputError("split_fractions must sum to 1")
        if self.min_alternatives_to_split < 2:
            raise InvalidInputError("min_alternatives_to_split must be at least 2")


@dataclass
class PartitionedGrammar:
    source: Grammar
    shared: dict[str, tuple[int, ...]]
    exclusive: dict[str, dict[int, str]]
    sub_grammars: dict[str, Grammar] = field(default_factory=dict)


def _should_split(rule: Rule, cfg: PartitionConfig) -> bool:
    if rule.splittable == SPLIT_NEVER:
        return False
    if rule.splittable == SPLIT_ALWAYS:
        return True
    return len(rule.alternatives) >= cfg.min_alternatives_to_split


def _split_rule(rule: Rule, cfg: PartitionConfig) -> tuple[tuple[int, ...], dict[int, str]]:
    norm = normalized_weights(rule)
    # rank by normalized weight descending, ties by original position
    order = sorted(range(len(norm)), key=lambda i: (-norm[i], i))
    shared: list[int] = []
    mass = 0.0
    cut = len(order)
    for rank, idx in enumerate(order):
        shared.append(idx)
        mass += norm[idx]
        reached = mass > cfg.p if cfg.strict_greater else mass >= cfg.p - _MASS_EPS
        if reached:
            cut = rank + 1
            break
    rng = random.Random(derive_seed(cfg.seed, f"partition:{rule.name}"))
    exclusive = {
        idx: rng.choices(SPLITS, weights=cfg.split_fractions, k=1)[0]
        for idx in order[cut:]
    }
    return tuple(sorted(shared)), exclusive


def _build_sub_grammar(g: Grammar, kept: dict[str, set[int]], split: str) -> Grammar:
    """Assemble one split's grammar from the kept alternatives, pruning
    unproductive and unreachable rules."""
    # In post-order each rule's references are settled before the rule: an
    # alternative survives when all of them did, a rule when one alternative did.
    pruned: dict[str, Rule] = {}
    for name in g._postorder:
        rule = g.rules[name]
        candidates = [rule.alternatives[idx] for idx in sorted(kept[name])]
        alts = tuple(alt for alt in candidates if all(ref in pruned for ref in _refs((alt,))))
        if alts:
            pruned[name] = Rule(name, alts, rule.splittable)
    if g.start_symbol not in pruned:
        raise EmptySplitGrammarError(split)
    reachable = set(_reachable_postorder(pruned, g._postorder, g.start_symbol))
    rules = {name: pruned[name] for name in g.rules if name in reachable}
    return Grammar(rules=rules, start_symbol=g.start_symbol)


def _assemble(g: Grammar, shared, exclusive) -> PartitionedGrammar:
    sub_grammars = {}
    for split in SPLITS:
        kept = {
            name: set(shared[name])
            | {i for i, s in exclusive.get(name, {}).items() if s == split}
            for name in g.rules
        }
        sub_grammars[split] = _build_sub_grammar(g, kept, split)
    return PartitionedGrammar(
        source=g, shared=shared, exclusive=exclusive, sub_grammars=sub_grammars
    )


def partition(g: Grammar, cfg: PartitionConfig) -> PartitionedGrammar:
    """Partition every eligible rule of ``g``; deterministic given cfg.seed."""
    shared: dict[str, tuple[int, ...]] = {}
    exclusive: dict[str, dict[int, str]] = {}
    for name, rule in g.rules.items():
        if _should_split(rule, cfg):
            shared[name], exclusive[name] = _split_rule(rule, cfg)
        else:
            shared[name] = tuple(range(len(rule.alternatives)))
            exclusive[name] = {}
    return _assemble(g, shared, exclusive)


def emit_split_datasets(
    pg: PartitionedGrammar,
    per_split_counts: tuple[int, int, int],
    seed: int,
) -> dict[str, SampleBatch]:
    """Sample each split's sub-grammar independently with dedup."""
    out: dict[str, SampleBatch] = {}
    for split, n in zip(SPLITS, per_split_counts):
        if n < 1:
            raise ValueError("per-split counts must be at least 1")
        out[split] = sample(
            pg.sub_grammars[split], n, derive_seed(seed, f"emit:{split}"), dedup=True
        )
    return out


# ---------------------------------------------------------------------------
# Manifest round-trip

_MANIFEST_HEADER = "rule\talt_index\tassignment"


def format_manifest(pg: PartitionedGrammar) -> str:
    lines = [_MANIFEST_HEADER]
    for name in pg.source.rules:
        rows = {i: "shared" for i in pg.shared.get(name, ())}
        rows.update(pg.exclusive.get(name, {}))
        for idx in sorted(rows):
            lines.append(f"{name}\t{idx}\t{rows[idx]}")
    return "\n".join(lines) + "\n"


def write_manifest(pg: PartitionedGrammar, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(format_manifest(pg))


def load_partition(g: Grammar, manifest_text: str) -> PartitionedGrammar:
    """Rebuild a partition of ``g`` from manifest text, validating coverage."""
    lines = manifest_text.splitlines()
    if not lines or lines[0].rstrip("\n") != _MANIFEST_HEADER:
        raise DatasetFormatError("manifest must start with the header row", line=1)
    shared: dict[str, list[int]] = {name: [] for name in g.rules}
    exclusive: dict[str, dict[int, str]] = {name: {} for name in g.rules}
    seen: set[tuple[str, int]] = set()
    for lineno, raw in enumerate(lines[1:], start=2):
        if not raw.strip():
            continue
        parts = raw.split("\t")
        if len(parts) != 3:
            raise DatasetFormatError("expected rule<TAB>alt_index<TAB>assignment", lineno)
        name, idx_text, assignment = parts
        if name not in g.rules:
            raise DatasetFormatError(f"unknown rule {name!r}", lineno)
        try:
            idx = int(idx_text)
        except ValueError:
            raise DatasetFormatError(f"bad alternative index {idx_text!r}", lineno) from None
        if not 0 <= idx < len(g.rules[name].alternatives):
            raise DatasetFormatError(f"alternative index {idx} out of range", lineno)
        if (name, idx) in seen:
            raise DatasetFormatError(f"duplicate row for {name}[{idx}]", lineno)
        seen.add((name, idx))
        if assignment == "shared":
            shared[name].append(idx)
        elif assignment in SPLITS:
            exclusive[name][idx] = assignment
        else:
            raise DatasetFormatError(f"unknown assignment {assignment!r}", lineno)
    for name, rule in g.rules.items():
        covered = len(shared[name]) + len(exclusive[name])
        if covered != len(rule.alternatives):
            raise DatasetFormatError(
                f"rule {name!r} covers {covered} of {len(rule.alternatives)} alternatives"
            )
    return _assemble(
        g,
        {name: tuple(sorted(idxs)) for name, idxs in shared.items()},
        exclusive,
    )
