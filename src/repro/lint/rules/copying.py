"""Rule ``no-deepcopy``: the runtime layers share values, never copy them.

GUARDIAN processes share no memory and talk only by message, so the
faithful model of what a DISCPROCESS or process pair stores is an
immutable value passed by reference (FREEZE, :mod:`repro.discprocess.
records`).  A deep copy in the runtime therefore either guards against a
mutation that must not happen, or hides one that does.  Calls of
``copy.deepcopy`` and ``fast_deepcopy`` are findings in ``sim``,
``hardware``, ``guardian``, ``discprocess``, ``core`` and
``encompass``; ``sim/fastcopy.py``, which defines ``fast_deepcopy`` for
tooling, is exempt.
"""

from __future__ import annotations

import ast
from typing import Iterator

from ..base import Finding, ModuleInfo, Rule, register

__all__ = ["NoDeepcopyRule"]

#: runtime packages whose stored values are immutable and shared.
RUNTIME_PACKAGES = frozenset(
    {"sim", "hardware", "guardian", "discprocess", "core", "encompass"}
)


@register
class NoDeepcopyRule(Rule):
    name = "no-deepcopy"
    description = (
        "no copy.deepcopy / fast_deepcopy calls in the runtime layers: "
        "stored values are immutable and shared by reference"
    )

    def check(self, module: ModuleInfo) -> Iterator[Finding]:
        if module.repro_package not in RUNTIME_PACKAGES:
            return
        if module.display_path.endswith("sim/fastcopy.py"):
            return
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            target = module.resolve(func) or ""
            if target == "copy.deepcopy":
                name = "copy.deepcopy"
            elif target.rsplit(".", 1)[-1] == "fast_deepcopy" or (
                isinstance(func, ast.Name) and func.id == "fast_deepcopy"
            ):
                name = "fast_deepcopy"
            else:
                continue
            yield self.finding(
                module,
                node,
                f"{name}() in a runtime layer — stored values are immutable "
                f"and shared; freeze a new value instead of copying",
            )
