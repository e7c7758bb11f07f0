"""Classical permutation patterns, and the two patterns with a generating tree.

A leaf module: the counting routes that read a pattern without searching
for it (the label table, the path series, Egge's sum) load only this, not
the containment kernel in :mod:`sigperm.core`, which re-exports its names.
"""

from __future__ import annotations

from typing import Sequence

__all__ = ["Pattern", "TREE_PATTERNS"]

MAX_PATTERN_LENGTH = 9  # keeps the digit-string notation ("2143") unambiguous


class _Frozen:
    """What the immutable value classes share: assignment and deletion
    raise ``AttributeError``, the repr is a constructor call, and pickling
    goes back through the constructor, so it validates again.

    A subclass lists its constructor's parameters in ``_fields`` and stores
    them with ``object.__setattr__`` in ``__init__``; its ``__eq__`` and
    ``__hash__`` compare those fields directly, and only between instances
    of the same class.
    """

    __slots__ = ()
    _fields: tuple[str, ...] = ()

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def __repr__(self) -> str:
        args = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__name__}({args})"

    def __reduce__(self) -> tuple:
        return type(self), tuple(getattr(self, name) for name in self._fields)


class Pattern(_Frozen):
    """A classical permutation pattern, stored in one-line notation.

    >>> Pattern.parse("2143").values
    (2, 1, 4, 3)
    >>> len(Pattern.parse("2,1,4,3"))
    4
    >>> Pattern([2, 1, 4, 3])
    Pattern(values=(2, 1, 4, 3))
    """

    __slots__ = _fields = ("values",)
    values: tuple[int, ...]

    def __init__(self, values: Sequence[int]) -> None:
        values = tuple(values)
        k = len(values)
        if not 1 <= k <= MAX_PATTERN_LENGTH:
            raise ValueError(f"pattern length {k} outside 1..{MAX_PATTERN_LENGTH}")
        if set(map(type, values)) != {int} or sorted(values) != list(range(1, k + 1)):
            raise ValueError(f"{values} is not a permutation of 1..{k}")
        object.__setattr__(self, "values", values)

    def __eq__(self, other: object) -> bool:
        if other.__class__ is self.__class__:
            return self.values == other.values
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self.values)

    @classmethod
    def parse(cls, text: str) -> "Pattern":
        """Parse a digit string like ``"2143"`` or a comma-separated list."""
        text = text.strip()
        if "," in text:
            tokens = [t.strip() for t in text.split(",")]
        else:
            tokens = list(text)
        try:
            values = tuple(int(t) for t in tokens)
        except ValueError:
            raise ValueError(f"malformed pattern {text!r}") from None
        return cls(values)

    def __len__(self) -> int:
        return len(self.values)

    def __str__(self) -> str:
        return "".join(str(v) for v in self.values)

    def reverse_complement(self) -> "Pattern":
        """Reverse the positions and complement the values.

        Containment of a pattern and of its reverse complement agree on every
        signed permutation: reflecting an occurrence through the origin maps
        one onto the other.
        """
        k = len(self.values)
        return Pattern(tuple(k + 1 - v for v in reversed(self.values)))


# the two patterns with a generating tree; the tree and series routes both
# read their succession rule off this lookup
PATTERN_2143 = Pattern((2, 1, 4, 3))
PATTERN_1234 = Pattern((1, 2, 3, 4))
TREE_PATTERNS = (PATTERN_1234, PATTERN_2143)


def _require_tree_pattern(pattern: Pattern) -> bool:
    """Return True for 2143, False for 1234, reject anything else."""
    if pattern == PATTERN_2143:
        return True
    if pattern == PATTERN_1234:
        return False
    raise ValueError(f"no generating tree for pattern {pattern}")
