"""The rank-1 root datum: a root in the weight lattice X and its coroot in Y.

X and Y are written in dual bases, as 1-tuples, so the canonical pairing is
the dot product. sl2 has root (2,) and coroot (1,); pgl2 swaps the roles.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

Vec = tuple[int, ...]


class RootDatumError(ValueError):
    pass


@dataclass(frozen=True)
class RootDatum:
    root: Vec
    coroot: Vec

    def __post_init__(self):
        vectors = (self.root, self.coroot)
        if not all(isinstance(v, tuple) and len(v) == 1 for v in vectors) or self.pairing(*vectors) != 2:
            raise RootDatumError(f"no rank-1 root datum: <{self.root}, {self.coroot}> must pair 1-vectors to 2")

    @staticmethod
    def pairing(weight: Sequence[int], coweight: Sequence[int]) -> int:
        """The canonical pairing <., .>: X x Y -> Z (dot product in dual bases)."""
        return sum(a * b for a, b in zip(weight, coweight))


def sl2() -> RootDatum:
    """Rank 1 simply connected: X = Z*omega, alpha = 2*omega, alphach primitive."""
    return RootDatum((2,), (1,))
