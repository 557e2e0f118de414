"""Deep copies of plain-data trees, kept for tooling only.

The runtime layers copy nothing: every value a DISCPROCESS or a
process pair stores is immutable once stored and is shared by
reference (see :mod:`repro.discprocess.records`), and the GUARDRAIL
rule ``no-deepcopy`` keeps it that way.  Only the requester's
file-system client copies, once per reply, into a plain dict.

:func:`fast_deepcopy` stays here, exported by :mod:`repro.sim`, for
tools that look it up by module name (a benchmark counts calls of it as
the copy counter, which therefore reads zero).  It handles dicts,
lists, tuples, sets and scalars by direct recursion and falls back to
:func:`copy.deepcopy` for anything else.
"""

from __future__ import annotations

import copy
from typing import Any

__all__ = ["fast_deepcopy"]

#: exact types returned as-is (deeply immutable).
_ATOMIC = frozenset({
    type(None), bool, int, float, complex, str, bytes, type, range,
})


def fast_deepcopy(obj: Any) -> Any:
    """A deep copy of ``obj``, specialized for acyclic plain-data trees.

    Shared sub-objects are duplicated rather than kept shared, and dict
    keys (hashable, so immutable for plain data) are shared.
    """
    cls = obj.__class__
    if cls in _ATOMIC:
        return obj
    if cls is dict:
        return {key: fast_deepcopy(value) for key, value in obj.items()}
    if cls is list:
        return [fast_deepcopy(item) for item in obj]
    if cls is tuple:
        return tuple(fast_deepcopy(item) for item in obj)
    if cls is set:
        return {fast_deepcopy(item) for item in obj}
    if cls is frozenset:
        return frozenset(fast_deepcopy(item) for item in obj)
    return copy.deepcopy(obj)
