"""Transaction identifiers.

"Execution of BEGIN-TRANSACTION causes a unique transaction identifier,
or 'transid', to be generated.  The transid consists of a sequence
number, qualified by the number of the processor in which
BEGIN-TRANSACTION was called, qualified by the number of the network
node which originated the transaction, designated the 'home' node for
the transaction."  (paper, §Transaction Management)
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict

__all__ = ["Transid", "TransidGenerator"]


@dataclass(frozen=True, order=True)
class Transid:
    """A network-wide unique transaction identity."""

    home_node: str
    cpu: int
    sequence: int

    def __str__(self) -> str:
        return f"\\{self.home_node}.{self.cpu}.{self.sequence}"


class TransidGenerator:
    """Per-node transid factory: one sequence counter per CPU."""

    def __init__(self, node_name: str):
        self.node_name = node_name
        self._sequences: Dict[int, int] = {}

    def next(self, cpu_number: int) -> Transid:
        sequence = self._sequences.get(cpu_number, 0) + 1
        self._sequences[cpu_number] = sequence
        return Transid(self.node_name, cpu_number, sequence)
