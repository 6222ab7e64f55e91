"""One-stop cached view of everything computed from a monomial algebra."""

from __future__ import annotations

from functools import cached_property

from .algebra import InputError, MonomialAlgebra, Path, parse_algebra
from .orders import (
    LEQ,
    PREC,
    CycleDecomposition,
    HasseQuiver,
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
    underlying data is immutable.  The one other state is ``_hom_pair``,
    the last pair of perfect paths a stable Hom asked about with its row
    of non-zero graded pieces (see :func:`gpstable.stable._pair_row`): a
    cache of derived values, replaced whole, so a reader always sees one
    consistent pair.  The decompositions read each
    class's bracket grid off the relations its perfect pairs cut, and the
    (co-)elementary paths are the tops of the grid's rows and its factors.
    Only ``hasse_prec`` and ``hasse_leq`` build a Hasse quiver; they are an
    output view, and the oracle reads the (co-)elementary paths off them
    to check the grid.
    """

    # no path is this object, None included, so the first Hom misses
    _hom_pair: tuple[object, object, dict] = (object(), object(), {})

    def __init__(self, algebra: MonomialAlgebra):
        self.algebra = algebra

    @cached_property
    def perfect(self) -> PerfectPathSet:
        return enumerate_perfect_paths(self.algebra)

    @cached_property
    def classes(self) -> tuple[UnderlyingCycleClass, ...]:
        return underlying_cycle_classes(self.algebra, self.perfect)

    @cached_property
    def hasse_prec(self) -> HasseQuiver:
        return hasse_quiver(self.perfect.paths, PREC)

    @cached_property
    def hasse_leq(self) -> HasseQuiver:
        return hasse_quiver(self.perfect.paths, LEQ)

    @property
    def elementary(self) -> tuple[Path, ...]:
        """The tops of the bracket grid's rows, over every class."""
        tops = (x for dec in self.decompositions for x in dec.elementary)
        return tuple(sorted(tops, key=Path.sort_key))

    @property
    def coelementary(self) -> tuple[Path, ...]:
        """The factors of the bracket grid, over every class."""
        factors = (r for dec in self.decompositions for r in dec.coelementary)
        return tuple(sorted(factors, key=Path.sort_key))

    @cached_property
    def decompositions(self) -> tuple[CycleDecomposition, ...]:
        return tuple([
            decompose_cycle(self.algebra, cls, self.perfect.successor)
            for cls in self.classes
        ])

    @cached_property
    def coordinates(self) -> dict[Path, tuple[CycleDecomposition, int, int]]:
        """perfect path -> (decomposition, i, span): it realizes r_i..r_{i+span-1}."""
        return {
            p: (dec, i, span)
            for dec in self.decompositions
            for i, row in enumerate(dec.windows, 1)
            for span, p in enumerate(row, 1)
        }

    @cached_property
    def _by_identity(self) -> dict[int, tuple[CycleDecomposition, int, int]]:
        # ``coordinates`` keeps its keys alive, so a hit here is the key itself;
        # the stable closed forms read it directly and call ``locate`` only on a miss
        return {id(p): c for p, c in self.coordinates.items()}

    def locate(self, p: Path) -> tuple[CycleDecomposition, int, int]:
        """The coordinates of a perfect path, found without rehashing it when it
        is one of the objects ``perfect.paths`` and the closed forms hand out
        (an equal path built elsewhere is found by value); else an input error."""
        found = self._by_identity.get(id(p)) or self.coordinates.get(p)
        if found is None:
            raise InputError(f"{p} is not a perfect path of this algebra")
        return found


def analyze(source) -> Analysis:
    """Build an :class:`Analysis` from an algebra, document dict or JSON text."""
    if isinstance(source, Analysis):
        return source
    if isinstance(source, MonomialAlgebra):
        return Analysis(source)
    return Analysis(parse_algebra(source))
