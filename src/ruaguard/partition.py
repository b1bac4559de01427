"""Intra-rule partitioning of grammars, each exclusive alternative held out.

For each rule with enough alternatives, the highest-probability alternatives
are duplicated into every split until a cumulative probability mass ``p`` is
covered; every remaining alternative is assigned to exactly one of
train/val/test by a seeded weighted draw. Strings derivable only through an
exclusive alternative therefore occur in exactly one split's language.

The decision is held in one form, ``PartitionedGrammar.assignment``: per rule,
one entry per alternative, either ``"shared"`` or the split that owns it. The
manifest is that mapping written out, one row per alternative.
"""

from __future__ import annotations

import math
import random
import warnings
from dataclasses import dataclass, field

from .errors import DatasetFormatError, InvalidInputError
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
from .text import format_tsv, tsv_rows

SPLITS = ("train", "val", "test")
_MASS_EPS = 1e-12


@dataclass(frozen=True)
class PartitionConfig:
    p: float = 0.25
    split_fractions: tuple[float, float, float] = (0.70, 0.15, 0.15)
    min_alternatives_to_split: int = 4
    seed: int = 0

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
    # per rule, one entry per alternative: "shared" or the split that owns it
    assignment: dict[str, tuple[str, ...]]
    sub_grammars: dict[str, Grammar] = field(default_factory=dict)


def _should_split(rule: Rule, cfg: PartitionConfig) -> bool:
    if rule.splittable == SPLIT_NEVER:
        return False
    if rule.splittable == SPLIT_ALWAYS:
        return True
    return len(rule.alternatives) >= cfg.min_alternatives_to_split


def _split_rule(rule: Rule, cfg: PartitionConfig) -> tuple[str, ...]:
    norm = normalized_weights(rule)
    # rank by normalized weight descending, ties by original position
    order = sorted(range(len(norm)), key=lambda i: (-norm[i], i))
    mass = 0.0
    for cut, idx in enumerate(order, start=1):
        mass += norm[idx]
        if mass >= cfg.p - _MASS_EPS:
            break
    assignment = ["shared"] * len(norm)
    rng = random.Random(derive_seed(cfg.seed, f"partition:{rule.name}"))
    for idx in order[cut:]:
        assignment[idx] = rng.choices(SPLITS, weights=cfg.split_fractions, k=1)[0]
    return tuple(assignment)


def _build_sub_grammar(g: Grammar, assignment: dict[str, tuple[str, ...]], split: str) -> Grammar:
    """Assemble one split's grammar from the shared alternatives and its own,
    pruning unproductive and unreachable rules."""
    # In post-order each rule's references are settled before the rule: an
    # alternative survives when all of them did, a rule when one alternative did.
    pruned: dict[str, Rule] = {}
    for name in g._postorder:
        rule = g.rules[name]
        alts = tuple(
            alt
            for alt, where in zip(rule.alternatives, assignment[name])
            if where in ("shared", split) and all(ref in pruned for ref in _refs((alt,)))
        )
        if alts:
            pruned[name] = Rule(name, alts, rule.splittable)
    if g.start_symbol not in pruned:
        raise InvalidInputError(f"the {split!r} sub-grammar lost its start symbol")
    reachable = set(_reachable_postorder(pruned, g._postorder, g.start_symbol))
    rules = {name: pruned[name] for name in g.rules if name in reachable}
    return Grammar(rules=rules, start_symbol=g.start_symbol)


def _assemble(g: Grammar, assignment: dict[str, tuple[str, ...]]) -> PartitionedGrammar:
    sub_grammars = {split: _build_sub_grammar(g, assignment, split) for split in SPLITS}
    return PartitionedGrammar(assignment=assignment, sub_grammars=sub_grammars)


def partition(g: Grammar, cfg: PartitionConfig) -> PartitionedGrammar:
    """Partition every eligible rule of ``g``; deterministic given cfg.seed."""
    assignment = {
        name: _split_rule(rule, cfg)
        if _should_split(rule, cfg)
        else ("shared",) * len(rule.alternatives)
        for name, rule in g.rules.items()
    }
    return _assemble(g, assignment)


def emit_split_datasets(
    pg: PartitionedGrammar,
    per_split_counts: tuple[int, int, int],
    seed: int,
) -> dict[str, SampleBatch]:
    """Sample each split's sub-grammar independently with dedup. A split whose
    language holds fewer strings than asked gets what was found, with a
    ``UserWarning`` naming the split and both counts."""
    out: dict[str, SampleBatch] = {}
    for split, n in zip(SPLITS, per_split_counts):
        if n < 1:
            raise ValueError("per-split counts must be at least 1")
        out[split] = sample(
            pg.sub_grammars[split], n, derive_seed(seed, f"emit:{split}"), dedup=True
        )
        found = len(out[split].utterances)
        if found < n:
            warnings.warn(
                f"the {split} split got {found} rows while {n} were asked",
                UserWarning,
                stacklevel=2,
            )
    return out


# ---------------------------------------------------------------------------
# Manifest round-trip: one row per alternative, holding its assignment entry

_MANIFEST_HEADER = ("rule", "alt_index", "assignment")


def format_manifest(pg: PartitionedGrammar) -> str:
    return format_tsv(_MANIFEST_HEADER, (
        (name, str(idx), where)
        for name, row in pg.assignment.items()
        for idx, where in enumerate(row)
    ))


def load_partition(g: Grammar, manifest_text: str) -> PartitionedGrammar:
    """Rebuild a partition of ``g`` from manifest text, validating coverage."""
    slots: dict[str, list[str | None]] = {
        name: [None] * len(rule.alternatives) for name, rule in g.rules.items()
    }
    for lineno, (name, idx_text, where) in tsv_rows(manifest_text, _MANIFEST_HEADER):
        if name not in slots:
            raise DatasetFormatError(f"unknown rule {name!r}", lineno)
        try:
            idx = int(idx_text)
        except ValueError:
            raise DatasetFormatError(f"bad alternative index {idx_text!r}", lineno) from None
        if not 0 <= idx < len(slots[name]):
            raise DatasetFormatError(f"alternative index {idx} out of range", lineno)
        if slots[name][idx] is not None:
            raise DatasetFormatError(f"duplicate row for {name}[{idx}]", lineno)
        if where != "shared" and where not in SPLITS:
            raise DatasetFormatError(f"unknown assignment {where!r}", lineno)
        slots[name][idx] = where
    for name, row in slots.items():
        if None in row:
            covered = len(row) - row.count(None)
            raise DatasetFormatError(
                f"rule {name!r} covers {covered} of {len(row)} alternatives"
            )
    return _assemble(g, {name: tuple(row) for name, row in slots.items()})
