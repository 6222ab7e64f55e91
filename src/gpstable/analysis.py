"""One-stop cached view of everything computed from a monomial algebra."""

from __future__ import annotations

from functools import cached_property
from typing import Mapping

from .algebra import InputError, MonomialAlgebra, Path, parse_algebra
from .orders import (
    LEQ,
    PREC,
    CycleDecomposition,
    HasseQuiver,
    classify_elementary,
    decompose_cycle,
    hasse_quiver,
)
from .perfect import (
    PerfectPathSet,
    UnderlyingCycleClass,
    enumerate_perfect_paths,
    underlying_cycle_classes,
)


class Analysis:
    """Lazily materialised pipeline over one algebra.

    Every derived structure (perfect paths, cycle classes, Hasse quivers,
    decompositions, bracket coordinates) is computed once and shared; the
    underlying data is immutable throughout.
    """

    def __init__(self, algebra: MonomialAlgebra):
        self.algebra = algebra

    @cached_property
    def perfect(self) -> PerfectPathSet:
        return enumerate_perfect_paths(self.algebra)

    @cached_property
    def classes(self) -> tuple[UnderlyingCycleClass, ...]:
        return underlying_cycle_classes(self.algebra, self.perfect)

    @cached_property
    def class_of(self) -> dict[Path, Path]:
        out = {}
        for cls in self.classes:
            for p in cls.members:
                out[p] = cls.cycle
        return out

    @cached_property
    def hasse_prec(self) -> HasseQuiver:
        return hasse_quiver(self.perfect.paths, PREC)

    @cached_property
    def hasse_leq(self) -> HasseQuiver:
        return hasse_quiver(self.perfect.paths, LEQ)

    def hasse(self, order: str) -> HasseQuiver:
        if order == PREC:
            return self.hasse_prec
        if order == LEQ:
            return self.hasse_leq
        raise InputError(f"unknown order {order!r}")

    @cached_property
    def _elementary_pair(self) -> tuple[tuple[Path, ...], tuple[Path, ...]]:
        return classify_elementary(self.hasse_prec, self.hasse_leq)

    @property
    def elementary(self) -> tuple[Path, ...]:
        return self._elementary_pair[0]

    @property
    def coelementary(self) -> tuple[Path, ...]:
        return self._elementary_pair[1]

    @cached_property
    def decompositions(self) -> tuple[CycleDecomposition, ...]:
        return tuple(
            decompose_cycle(
                self.algebra, cls, self.coelementary, self.perfect.successor
            )
            for cls in self.classes
        )

    @cached_property
    def _decomposition_by_cycle(self) -> Mapping[Path, CycleDecomposition]:
        return {dec.cycle_class.cycle: dec for dec in self.decompositions}

    def decomposition_for(self, p: Path) -> CycleDecomposition:
        """The decomposition of the class a perfect path belongs to."""
        cycle = self.class_of.get(p)
        if cycle is None:
            raise InputError(f"{p} is not a perfect path of this algebra")
        return self._decomposition_by_cycle[cycle]

    def bracket_of(self, p: Path) -> tuple[CycleDecomposition, int, int]:
        """(decomposition, i, span) with ``p`` realizing factors r_i..r_{i+span-1}."""
        dec = self.decomposition_for(p)
        i, span = dec.bracket_of(p)
        return dec, i, span

    def require_perfect(self, p: Path) -> Path:
        if p not in self.perfect.successor:
            raise InputError(f"{p} is not a perfect path of this algebra")
        return p


def analyze(source) -> Analysis:
    """Build an :class:`Analysis` from an algebra, document dict or JSON text."""
    if isinstance(source, Analysis):
        return source
    if isinstance(source, MonomialAlgebra):
        return Analysis(source)
    return Analysis(parse_algebra(source))
