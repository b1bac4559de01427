"""Committed mutants of ``src/ruaguard``, each with the tests that kill it.

A mutant is one small fault: an exact ``old`` snippet of a file under
``src/`` and the ``new`` text that replaces it. Run as a script, this file
first runs every named test against an unchanged copy of ``src/`` (they must
pass there), then, for each mutant, applies it to a fresh copy and runs its
tests with ``pytest -x`` and ``PYTHONPATH`` at the copy. It prints each
mutant as killed or survived and exits 1 if any survived.

    python tests/mutants.py            # every mutant
    python tests/mutants.py ID [ID …]  # the named ones

Each pytest child runs under an address-space cap, ``MEMORY_CAP``
(``RLIMIT_AS``, POSIX only), the unchanged run too. A mutant that lifts a
memory guard then fails with MemoryError instead of exhausting the
machine's memory, and a test that reaches such a guard uses a grammar small
enough to build under the cap were the guard lifted.

``tests/test_mutants.py`` checks, without running anything, that each
``old`` occurs exactly once in its file and that each named test exists, so
a change that rewrites mutated code updates its mutant in the same diff.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

# Every named test in one unchanged pytest child peaks at 217 MiB of address
# space (VmPeak, Python 3.11, numpy 2.4 with OpenBLAS on 2 CPUs; 173-208 MiB
# a mutant's tests). OpenBLAS maps more per thread on more CPUs, and the
# unchanged run, under the same cap, fails first if that is too much.
MEMORY_CAP = 2**30


@dataclass(frozen=True)
class Mutant:
    id: str
    file: str  # relative to src/
    old: str
    new: str
    # pytest node ids relative to the repo root; a parametrized one's id in
    # brackets is written in its test file as a quoted string
    killed_by: tuple[str, ...]


FEATURES = "ruaguard/features.py"
CLASSIFIERS = "ruaguard/classifiers.py"
RECOGNIZER = "ruaguard/recognizer.py"
GRAMMAR = "ruaguard/grammar.py"
CLI = "ruaguard/cli.py"
# the numpy-free cases run where importing numpy raises
NUMPY_FREE = "tests/test_golden.py::test_numpy_free_cases_run_with_numpy_unimportable"

MUTANTS = (
    Mutant(
        "block_one_text_short", FEATURES,
        "rows_of(texts[start : start + block])",
        "rows_of(texts[start : start + block - 1])",
        ("tests/test_classifiers.py::TestIr::test_chunked_batches_match_unchunked",
         "tests/test_evaluation.py::TestMining::test_blocked_scoring_matches_one_product"),
    ),
    Mutant(
        "columns_ignored", FEATURES,
        "used = np.flatnonzero(Q.any(axis=0) if columns is None else Q.any(axis=0) & columns)",
        "used = np.flatnonzero(Q.any(axis=0))",
        ("tests/test_features.py::TestBestRows::test_columns_leave_out_the_others",),
    ),
    Mutant(
        "argmax_over_the_padded_row", FEATURES,
        "best[part] = products[:n].argmax(axis=1)",
        "best[part] = products[-n:].argmax(axis=1)",
        ("tests/test_classifiers.py::TestIr::test_exact_match_wins",),
    ),
    Mutant(
        "block_kept_while_the_next_is_built", FEATURES,
        "        del Q, products  # before the next block's rows are built\n",
        "",
        ("tests/test_classifiers.py::TestIr::test_scoring_holds_one_block_whatever_the_batch",),
    ),
    Mutant(
        "classify_tries_aic_first", RECOGNIZER,
        "    if any(map(in_pos, candidates)):\n        return Label.POS\n"
        "    if any(map(in_aic, candidates)):\n        return Label.AIC\n",
        "    if any(map(in_aic, candidates)):\n        return Label.AIC\n"
        "    if any(map(in_pos, candidates)):\n        return Label.POS\n",
        ("tests/test_recognizer.py::TestHeuristics::test_pos_outranks_aic_regardless_of_position",),
    ),
    Mutant(
        "ngram_windows_right_to_left", CLASSIFIERS,
        "in map(self.window_sums, *columns):",
        "in reversed(list(map(self.window_sums, *columns))):",
        ("tests/test_classifiers.py::TestNgramRepeatedWindows::test_a_repeated_window_adds_its_cached_sum_again",),
    ),
    Mutant(
        "ngram_window_grams_longest_first", CLASSIFIERS,
        "for z0, z1, z2 in map(gram_logits, grams):",
        "for z0, z1, z2 in map(gram_logits, grams[::-1]):",
        ("tests/test_classifiers.py::TestNgramRepeatedWindows::test_a_repeated_window_adds_its_cached_sum_again",),
    ),
    Mutant(
        "ngram_divides_by_the_window_count", CLASSIFIERS,
        "            total += count\n",
        "            total += 1\n",
        ("tests/test_classifiers.py::TestNgramRepeatedWindows::test_a_repeated_window_adds_its_cached_sum_again",),
    ),
    Mutant(
        "ngram_near_tie_fallback_removed", CLASSIFIERS,
        "if gap > NGRAM_LABEL_MARGIN and math.isfinite(",
        "if math.isfinite(",
        ("tests/test_classifiers.py::TestNgramTies::test_a_near_tie_takes_the_softmax_label",),
    ),
    Mutant(
        "ngram_non_finite_fallback_removed", CLASSIFIERS,
        "if gap > NGRAM_LABEL_MARGIN and math.isfinite(l0 + l1 + l2):",
        "if gap > NGRAM_LABEL_MARGIN:",
        ("tests/test_classifiers.py::TestNgramTies::test_logits_that_overflow_when_summed_take_the_softmax_label",),
    ),
    Mutant(
        "ngram_label_second_best", CLASSIFIERS,
        "            label, gap = Label.POS, l0 - max(l1, l2)\n"
        "        elif l1 >= l2:\n"
        "            label, gap = Label.AIC, l1 - max(l0, l2)\n"
        "        else:\n"
        "            label, gap = Label.NEG, l2 - max(l0, l1)\n",
        "            label, gap = (Label.AIC if l1 >= l2 else Label.NEG), l0 - max(l1, l2)\n"
        "        elif l1 >= l2:\n"
        "            label, gap = (Label.POS if l0 >= l2 else Label.NEG), l1 - max(l0, l2)\n"
        "        else:\n"
        "            label, gap = (Label.POS if l0 >= l1 else Label.AIC), l2 - max(l0, l1)\n",
        ("tests/test_classifiers.py::TestLabel::test_label_is_the_predicted_label",),
    ),
    Mutant(
        "ir_dedup_holds_old_positions", CLASSIFIERS,
        "same.append(len(kept))",
        "same.append(i)",
        ("tests/test_classifiers.py::TestIr::test_duplicate_vectors_keep_lowest_index",),
    ),
    Mutant(
        "ngram_batch_mask_left_uncleared", CLASSIFIERS,
        "            in_batch[u] = False\n",
        "",
        ("tests/test_classifiers.py::TestNgramLinear::test_trainer_steps_through_the_checked_gradient",),
    ),
    Mutant(
        "enumeration_refused_at_the_budget", GRAMMAR,
        "    if size > ENUMERATION_BUDGET:\n        raise refusal",
        "    if size >= ENUMERATION_BUDGET:\n        raise refusal",
        ("tests/test_grammar.py::TestCountingProperties::test_language_is_none_just_past_the_budget",),
    ),
    Mutant(
        "budget_check_lifted", GRAMMAR,
        "    if size > ENUMERATION_BUDGET:\n        raise refusal",
        "    if False:\n        raise refusal",
        ("tests/test_grammar.py::TestCountingProperties::test_enumerating_past_the_budget_is_refused_before_building",
         "tests/test_generation.py::TestSampling::test_a_grammar_past_the_length_cap_is_refused_before_drawing",
         "tests/test_cli.py::test_input_error_exits_with_one_error_line[gen_grammar_string_past_the_length_cap]"),
    ),
    Mutant(
        "language_gate_lifted", GRAMMAR,
        "    if enumeration_size(g) > ENUMERATION_BUDGET:\n        return None",
        "    if False:\n        return None",
        ("tests/test_grammar.py::TestCountingProperties::test_language_is_none_just_past_the_budget",),
    ),
    Mutant(
        "longest_summed_over_alternatives", GRAMMAR,
        "                longest = max(longest, length)\n",
        "                longest += length\n",
        ("tests/test_generation.py::TestSampling::test_a_grammar_past_the_length_cap_is_refused_before_drawing",),
    ),
    Mutant(
        "count_maxed_over_alternatives", GRAMMAR,
        "                count += prod\n",
        "                count = max(count, prod)\n",
        ("tests/test_grammar.py::TestToyGrammar::test_count_is_twelve",),
    ),
    Mutant(
        "refusal_drops_the_file", GRAMMAR,
        "    where = \"\" if g.source is None else f\"{g.source}: \"\n",
        "    where = \"\"\n",
        ("tests/test_grammar.py::TestCountingProperties::test_enumerating_past_the_budget_is_refused_before_building",
         "tests/test_cli.py::test_input_error_exits_with_one_error_line[gen_more_strings_than_the_language_holds]"),
    ),
    Mutant(
        "weight_total_unchecked", GRAMMAR,
        "            if not previous < total < math.inf:\n",
        "            if False:\n",
        ("tests/test_grammar.py::TestConstruction::test_weights_must_have_a_finite_total",
         "tests/test_cli.py::test_input_error_exits_with_one_error_line[gen_grammar_weights_sum_to_infinity]"),
    ),
    Mutant(
        "absorbed_weight_accepted", GRAMMAR,
        "            if not previous < total < math.inf:\n",
        "            if not previous <= total < math.inf:\n",
        ("tests/test_grammar.py::TestConstruction::test_a_grammar_built_in_code_is_validated[weight_absorbed_by_the_total]",
         "tests/test_cli.py::test_input_error_exits_with_one_error_line[gen_grammar_weight_absorbed_by_the_total]"),
    ),
    Mutant(
        "figures_rebuilt_per_call", GRAMMAR,
        "    @functools.cached_property\n    def _figures",
        "    @property\n    def _figures",
        ("tests/test_grammar.py::TestCountingProperties::test_one_walk_over_the_rules_serves_every_count",),
    ),
    Mutant(
        "recognizer_imports_numpy", RECOGNIZER,
        "from .text import normalize\n",
        "from .text import normalize\n\nimport numpy  # noqa: F401\n",
        (NUMPY_FREE,),
    ),
    Mutant(
        "cli_imports_classifiers", CLI,
        "from .recognizer import RecognizerModel\n",
        "from .classifiers import load_model  # noqa: F401\nfrom .recognizer import RecognizerModel\n",
        (NUMPY_FREE,),
    ),
    Mutant(
        "features_imports_numpy", FEATURES,
        "if TYPE_CHECKING:\n    import numpy as np\n",
        "import numpy as np\n",
        (NUMPY_FREE,),
    ),
    Mutant(
        "model_and_recognizer_both_taken", CLI,
        "    if args.model and args.recognizer:\n",
        "    if False:\n",
        ("tests/test_cli.py::test_input_error_exits_with_one_error_line[guard_model_with_recognizer]",),
    ),
)


def apply(mutant: Mutant, src: Path) -> None:
    """Write ``mutant`` into the copy of ``src/`` at ``src``."""
    path = src / mutant.file
    text = path.read_text(encoding="utf-8")
    if text.count(mutant.old) != 1:
        raise SystemExit(f"{mutant.id}: its old text occurs {text.count(mutant.old)} times in {mutant.file}")
    path.write_text(text.replace(mutant.old, mutant.new), encoding="utf-8")


def run_tests(mutant: Mutant | None, node_ids) -> int:
    """pytest's exit code for ``node_ids`` against a copy of ``src/``, with
    ``mutant`` applied if given."""
    with tempfile.TemporaryDirectory() as tmp:
        src = Path(tmp) / "src"
        shutil.copytree(SRC, src, ignore=shutil.ignore_patterns("__pycache__"))
        if mutant is not None:
            apply(mutant, src)
        env = dict(os.environ, PYTHONPATH=str(src), PYTHONDONTWRITEBYTECODE="1")
        command = [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", *node_ids]
        cap = _cap_memory if os.name == "posix" else None
        return subprocess.run(
            command, cwd=ROOT, env=env, capture_output=True, preexec_fn=cap
        ).returncode


def _cap_memory() -> None:
    import resource  # POSIX only

    resource.setrlimit(resource.RLIMIT_AS, (MEMORY_CAP, MEMORY_CAP))


def main(argv: list[str]) -> int:
    by_id = {mutant.id: mutant for mutant in MUTANTS}
    unknown = [name for name in argv if name not in by_id]
    if unknown:
        print(f"unknown mutant: {', '.join(unknown)}", file=sys.stderr)
        return 2
    chosen = [by_id[name] for name in argv] if argv else list(MUTANTS)
    tests = list(dict.fromkeys(node for mutant in chosen for node in mutant.killed_by))
    if run_tests(None, tests) != 0:
        print("the named tests fail without a mutant", file=sys.stderr)
        return 2
    survived = 0
    for mutant in chosen:
        started = time.perf_counter()
        # 1 is pytest's exit code for failed tests; any other is no kill
        killed = run_tests(mutant, mutant.killed_by) == 1
        survived += not killed
        verdict = "killed" if killed else "SURVIVED"
        print(f"{verdict:8}  {mutant.id}  {time.perf_counter() - started:.1f} s", flush=True)
    print(f"{len(chosen) - survived} of {len(chosen)} mutants killed")
    return 1 if survived else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
