"""Exception hierarchy for treesum.

Everything raised on purpose by this package derives from TreesumError, so
callers (and the CLI) can catch one base class.  Construction errors carry
enough context to point at the offending record.
"""


class TreesumError(Exception):
    """Base class for all treesum errors."""


# --- tree construction ------------------------------------------------------

class TreeBuildError(TreesumError):
    """Invalid input records for tree construction."""


class DuplicateId(TreeBuildError):
    pass


class MultipleRoots(TreeBuildError):
    pass


class NoRoot(TreeBuildError):
    pass


class OrphanParentReference(TreeBuildError):
    pass


class CycleDetected(TreeBuildError):
    pass


class NegativeWeight(TreeBuildError):
    pass


class NonFiniteWeight(TreeBuildError):
    """A node weight that is nan or infinite, or a total weight that is."""


# --- lookups and algorithm arguments ----------------------------------------

class UnknownNode(TreesumError, KeyError):
    """A node id or index that does not exist in the tree."""


class InvalidK(TreesumError, ValueError):
    """Summary size k outside the valid range for the given tree."""


class AlreadySelected(TreesumError, ValueError):
    """Marginal gain requested for a node already in the summary set."""


class EnumerationTooLarge(TreesumError):
    """Brute-force subset enumeration would exceed the configured cap."""


class EmptySummary(TreesumError, ValueError):
    """Metric undefined for an empty summary set."""


class NoImportantNodes(TreesumError, ZeroDivisionError):
    """Metric undefined when no node carries positive weight."""


class ScoreMismatch(TreesumError):
    """A summary lifted from a reduced tree scored differently on the original."""


class InconsistentMemo(TreesumError):
    """Internal assertion: DP reconstruction disagrees with the memoized value."""


# --- file formats and generation --------------------------------------------

class MalformedLine(TreesumError, ValueError):
    """A tree file line that does not match the TSV schema."""

    def __init__(self, line_no: int, message: str):
        super().__init__(f"line {line_no}: {message}")
        self.line_no = line_no


class InvalidSpec(TreesumError, ValueError):
    """Invalid random-tree generator parameters."""
