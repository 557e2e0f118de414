"""GUARDRAIL rule modules.  Importing this package registers every rule."""

from . import copying, determinism, exceptions, figure3, layering, probes  # noqa: F401

__all__ = [
    "copying", "determinism", "exceptions", "figure3", "layering", "probes",
]
