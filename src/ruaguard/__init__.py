"""Grammar-driven tooling for detecting and answering are-you-a-robot asks.

The package covers the full loop: author a probabilistic grammar, sample
labeled utterances from it, partition it into leakage-free train/val/test
sub-grammars, train light-weight baseline classifiers, mine hard negatives
from a chit-chat corpus, score everything with intent-weighted metrics, and
gate a disclosure response behind the resulting classifier.
"""

from .classifiers import (
    BowLrModel,
    BowLrParams,
    IrModel,
    NgramLinearModel,
    NgramParams,
    RandomGuessModel,
    fit_ir,
    fit_random_guess,
    load_model,
    predict_random,
    save_model,
    train_bow_lr,
    train_ngram_linear,
)
from .dataset import (
    CLASS_ORDER,
    Label,
    LabeledUtterance,
    Prediction,
    filter_split,
    format_dataset,
    label_distribution,
    one_hot_prediction,
    parse_dataset,
    prediction_from_scores,
    read_dataset,
    write_dataset,
)
from .errors import (
    CycleDetectedError,
    DatasetFormatError,
    DuplicateRuleError,
    EmptyAfterNormalizeError,
    EmptyCorpusError,
    EmptySplitGrammarError,
    ExhaustedLanguageError,
    GrammarError,
    GrammarSyntaxError,
    InvalidInputError,
    LengthMismatchError,
    MissingClassError,
    MissingClearConfirmError,
    NoPositivesInGoldError,
    NotEnoughCandidatesError,
    RuaGuardError,
    TargetNotFoundWarning,
    UndefinedNonTerminalError,
    VacuousPrecisionWarning,
)
from .evaluation import (
    MetricsReport,
    MinedNegatives,
    ProbeReport,
    evaluate,
    format_mined_candidates,
    format_report,
    geometric_mean,
    mine_negatives,
    mined_to_rows,
    probe_recall,
    recall_pos,
    report_audit_json,
    weighted_precision,
)
from .features import Vocabulary, fit_tfidf, tokenize, vectorize_many
from .generation import ModifierSpec, SampleBatch, apply_modifier, sample
from .grammar import (
    Alternative,
    Grammar,
    NonTerminalRef,
    Rule,
    Terminal,
    count_derivations,
    enumerate_strings,
    grammar_fingerprint,
    load_grammar,
    parse_grammar,
    serialize_grammar,
)
from .guard import (
    RESPONSE_PRESETS,
    DisclosureConfig,
    GuardDecision,
    compose_response,
    decision_to_json,
    guard,
    load_guard_config,
    parse_guard_config,
)
from .hashing import derive_seed, fnv1a_64
from .matching import compile_matcher, member
from .partition import (
    PartitionConfig,
    PartitionedGrammar,
    emit_split_datasets,
    format_manifest,
    load_partition,
    partition,
    write_manifest,
)
from .recognizer import RecognizerModel, load_recognizer, split_sentences
from .text import normalize

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
