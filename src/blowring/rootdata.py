"""Root data, lattices, pairings, reflections and root systems.

Coordinates: the weight lattice X and coweight lattice Y are written in dual
bases, so the canonical pairing is the dot product. For the simply-connected
flavor X uses fundamental weights (coroots are unit vectors in Y); for the
adjoint flavor X uses simple roots (fundamental coweights are unit vectors).
"""

from __future__ import annotations

from fractions import Fraction
from typing import Sequence

Vec = tuple[int, ...]

WEYL_CAP = 1024


class RootDatumError(ValueError):
    pass


class RootDatum:
    def __init__(self, cartan: Sequence[Sequence[int]], flavor: str):
        if flavor not in ("simply-connected", "adjoint"):
            raise RootDatumError(f"unknown lattice flavor {flavor!r}")
        self.cartan = tuple(tuple(int(x) for x in row) for row in cartan)
        self.flavor = flavor
        self.rank = len(self.cartan)
        for i, row in enumerate(self.cartan):
            if len(row) != self.rank or row[i] != 2:
                raise RootDatumError("not a Cartan matrix")
        if flavor == "simply-connected":
            # alpha_j = sum_i C_ij w_i ; alphach_j = e_j
            self.simple_roots = tuple(
                tuple(self.cartan[i][j] for i in range(self.rank)) for j in range(self.rank)
            )
            self.simple_coroots = tuple(_unit(j, self.rank) for j in range(self.rank))
        else:
            # alpha_j = e_j ; alphach_j = sum_i C_ji wch_i
            self.simple_roots = tuple(_unit(j, self.rank) for j in range(self.rank))
            self.simple_coroots = tuple(self.cartan[j] for j in range(self.rank))
        self._roots: tuple[tuple[Vec, Vec], ...] | None = None

    # -- pairing and reflections -------------------------------------------

    @staticmethod
    def pairing(weight: Sequence[int], coweight: Sequence[int]) -> int:
        """The canonical pairing <., .>: X x Y -> Z (dot product in dual bases)."""
        return sum(a * b for a, b in zip(weight, coweight))

    def reflect_weight(self, i: int, weight: Vec) -> Vec:
        n = self.pairing(weight, self.simple_coroots[i])
        return tuple(w - n * a for w, a in zip(weight, self.simple_roots[i]))

    def reflect_coweight(self, i: int, coweight: Vec) -> Vec:
        n = self.pairing(self.simple_roots[i], coweight)
        return tuple(w - n * a for w, a in zip(coweight, self.simple_coroots[i]))

    # -- the root system -----------------------------------------------------

    def root_pairs(self) -> tuple[tuple[Vec, Vec], ...]:
        """All (root, coroot) pairs, closed under simple reflections."""
        if self._roots is None:
            seen = {}
            frontier = list(zip(self.simple_roots, self.simple_coroots))
            for a, ac in frontier:
                seen[a] = ac
            while frontier:
                nxt = []
                for a, ac in frontier:
                    for i in range(self.rank):
                        b = self.reflect_weight(i, a)
                        bc = self.reflect_coweight(i, ac)
                        if b not in seen:
                            seen[b] = bc
                            nxt.append((b, bc))
                            if len(seen) > WEYL_CAP:
                                raise RootDatumError("root system closure exceeded cap")
                frontier = nxt
            for a, ac in seen.items():
                if self.pairing(a, ac) != 2:
                    raise RootDatumError("<alpha, alphach> != 2 in generated root system")
            self._roots = tuple(sorted(seen.items()))
        return self._roots

    def positive_root_pairs(self) -> tuple[tuple[Vec, Vec], ...]:
        out = []
        for a, ac in self.root_pairs():
            coeffs = self._simple_coefficients(a)
            if all(c >= 0 for c in coeffs):
                out.append((a, ac))
        return tuple(out)

    def _simple_coefficients(self, root: Vec) -> tuple[Fraction, ...]:
        cols = [list(a) for a in self.simple_roots]
        return _solve_columns(cols, root)

    def __repr__(self):
        return f"RootDatum(cartan={self.cartan}, flavor={self.flavor!r})"

    def __eq__(self, other):
        return (
            isinstance(other, RootDatum)
            and self.cartan == other.cartan
            and self.flavor == other.flavor
        )

    def __hash__(self):
        return hash((self.cartan, self.flavor))


def sl2() -> RootDatum:
    """Rank 1 simply connected: X = Z*omega, alpha = 2*omega, alphach primitive."""
    return RootDatum([[2]], "simply-connected")


def _unit(i: int, n: int) -> Vec:
    return tuple(1 if k == i else 0 for k in range(n))


def _solve_columns(cols: list[list[int]], target: Sequence[int]) -> tuple[Fraction, ...]:
    """Solve sum_j x_j * cols[j] = target exactly (square, invertible)."""
    n = len(cols)
    m = [[Fraction(cols[j][i]) for j in range(n)] + [Fraction(target[i])] for i in range(n)]
    for col in range(n):
        pivot = next((r for r in range(col, n) if m[r][col]), None)
        if pivot is None:
            raise RootDatumError("singular simple-root matrix")
        m[col], m[pivot] = m[pivot], m[col]
        pv = m[col][col]
        m[col] = [x / pv for x in m[col]]
        for r in range(n):
            if r != col and m[r][col]:
                f = m[r][col]
                m[r] = [x - f * y for x, y in zip(m[r], m[col])]
    return tuple(m[i][n] for i in range(n))
