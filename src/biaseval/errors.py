"""Exception types shared across the toolkit."""


class BiasEvalError(Exception):
    """Base class for all toolkit errors."""


class EmbeddingFormatError(BiasEvalError):
    """An embedding file violates the word2vec text format."""


class VocabularyLossError(BiasEvalError):
    """A word set lost more words to the vocabulary than the allowed fraction."""


class EmptyResolutionError(BiasEvalError):
    """No word of a set was found in the vocabulary."""


class TemplateMismatchError(BiasEvalError):
    """A query does not have the set counts a metric requires."""


class ZeroNormError(BiasEvalError, ValueError):
    """A cosine similarity was asked of a zero vector."""


class DivergenceError(BiasEvalError):
    """Classifier training produced a non-finite loss."""


class DegenerateDistributionError(BiasEvalError):
    """A probability distribution could not be formed or scored."""


class UndefinedCorrelationError(BiasEvalError):
    """Rank correlation is undefined because one input has no rank variance."""


class TranslationRunError(BiasEvalError):
    """The translation backend failed mid-run.

    ``completed`` holds the records fetched before the failure; the CLI
    writes them to ``--out`` for a rerun to resume, and its re-raise has none.
    """

    def __init__(self, message, completed=()):
        super().__init__(message)
        self.completed = list(completed)


class JoinCoverageError(BiasEvalError):
    """Too few corpus rows have translations to score reliably."""
