"""Exception hierarchy shared by every module in the package.

All errors derive from :class:`ModelError` so callers (notably the CLI) can
turn any domain failure into a single diagnostic path.  :func:`quoted`
and :func:`quoted_list` keep the values a message echoes short.
"""

from typing import Iterable


class ModelError(Exception):
    """Base class for model construction and analysis errors."""


class ForeignPointError(ModelError):
    """An event refers to a point identifier outside its sample space."""


class ZeroConditionError(ModelError):
    """Conditioning event has probability zero."""


class NotAContextError(ModelError):
    """The event misses at least one cell of the partition, so contextual
    quantities are undefined for it."""


class DegenerateRadicalError(ModelError):
    """A factor under the normalising radical vanishes; the disturbance
    coefficient is undefined."""


class FloatRangeError(ModelError):
    """An exact quantity lies outside the range of a double-precision float."""


class NotTrigonometricError(ModelError):
    """The context carries a disturbance coefficient with squared magnitude
    exceeding one and admits no complex amplitude."""


class NotDoubleStochasticError(ModelError):
    """The transition matrix fails the exact column-sum test required here."""


class SingularBasisError(ModelError):
    """The candidate basis vectors are (numerically) linearly dependent."""


class QOutOfRangeError(ModelError):
    """Family parameter must be a rational strictly between 0 and 1/2."""


class MalformedDocumentError(ModelError):
    """A model document violates the schema; the message names the first
    violated invariant."""


class WeightSumNotOneError(MalformedDocumentError):
    """Point weights do not sum exactly to one."""


class DuplicatePointError(MalformedDocumentError):
    """Two points share the same identifier."""


class PartialAssignmentError(MalformedDocumentError):
    """A variable assignment does not cover every point of the space."""


def quoted(text: str) -> str:
    """``repr(text)``, cut to its first 40 characters plus the length when
    longer, so an error line stays one short line."""
    if len(text) <= 40:
        return repr(text)
    return f"{text[:40]!r}... ({len(text)} characters)"


#: At most this many items of a list are echoed in an error line.
MAX_QUOTED_ITEMS = 5


def quoted_list(texts: Iterable[str]) -> str:
    """``str(list(texts))`` with each item through :func:`quoted`; past
    :data:`MAX_QUOTED_ITEMS` items, the first ones followed by how many
    more there are."""
    items = list(texts)
    shown = ", ".join(map(quoted, items[:MAX_QUOTED_ITEMS]))
    rest = len(items) - MAX_QUOTED_ITEMS
    if rest > 0:
        return f"[{shown}, ... and {rest} more]"
    return f"[{shown}]"
