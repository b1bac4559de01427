"""Grammar-driven tooling for detecting and answering are-you-a-robot asks.

The package covers the full loop: author a probabilistic grammar, sample
labeled utterances from it, partition it into train/val/test sub-grammars
that each hold their own exclusive alternatives, train light-weight baseline
classifiers, mine hard negatives from a chit-chat corpus, score everything
with intent-weighted metrics, and gate a disclosure response behind the
resulting classifier.

Import each name from the module that defines it; the package root exports
only ``__version__``, so the recognizer and guard modules load no numpy.
"""

__version__ = "0.2.0"
