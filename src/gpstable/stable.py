"""Labelled indecomposables of the (graded) stable category.

Objects are labels ``(perfect path, shift)`` rather than realized modules;
morphism dimensions, suspensions, Auslander-Reiten translates and the
tilting/classification data are all evaluated in closed form on bracket
coordinates.  The brute-force counterparts live in :mod:`gpstable.oracle`
and must agree with everything here on small inputs.
"""

from __future__ import annotations

from dataclasses import dataclass

from .algebra import InputError, InternalConsistencyError, Path
from .analysis import Analysis
from .orders import CycleDecomposition

DEFAULT_GRADING = "default"
WEIGHTED_GRADING = "weighted"


@dataclass(frozen=True)
class StableObject:
    """A labelled indecomposable ``pL(shift)``, or the zero object."""

    path: Path | None
    shift: int = 0

    @property
    def is_zero(self) -> bool:
        return self.path is None

    @staticmethod
    def zero() -> "StableObject":
        return StableObject(None, 0)

    def shifted(self, k: int) -> "StableObject":
        if self.is_zero:
            return self
        return StableObject(self.path, self.shift + k)

    def __str__(self) -> str:
        if self.is_zero:
            return "0"
        if self.shift:
            return f"{self.path}({self.shift})"
        return f"{self.path}"


@dataclass(frozen=True)
class HomDescription:
    """Dimension of a stable Hom space plus basis witnesses.

    Graded Hom spaces have dimension 0 or 1 and carry a single ``witness``
    path; the ungraded dimension is the sum over shifts and ``by_shift``
    lists the contributing ``(shift, witness)`` pairs.
    """

    dimension: int
    witness: Path | None = None
    by_shift: tuple[tuple[int, Path], ...] | None = None


def graded_stable_hom(
    an: Analysis, src: StableObject, dst: StableObject
) -> HomDescription:
    """Closed-form dimension of the degree-preserving stable Hom space.

    Source and target are normalised so only the relative shift matters.
    Cross-class Hom spaces vanish; within a class the bracket coordinates
    decide existence, and the witness is the composite factor window.
    """
    if src.is_zero or dst.is_zero:
        raise InputError("graded_stable_hom is defined on non-zero objects")
    p = an.require_perfect(src.path)
    q = an.require_perfect(dst.path)
    k = dst.shift - src.shift
    if an.class_of[p] != an.class_of[q]:
        return HomDescription(0)
    dec, i, span_p = an.bracket_of(p)
    j = i + span_p - 1
    i2, span_q = dec.bracket_of(q)
    j2 = i2 + span_q - 1
    n = dec.size
    alpha_lo = -((i - i2) // n) - 1
    alpha_hi = (j2 - i) // n + 1
    for alpha in range(alpha_lo, alpha_hi + 1):
        ia = i + alpha * n
        ja = j + alpha * n
        if not (i2 <= ia <= j2 <= ja < i2 + dec.m):
            continue
        if k != dec.length_between(i2, ia - 1):
            continue
        return HomDescription(1, witness=dec.realize(i2, ja))
    return HomDescription(0)


def ungraded_stable_hom(an: Analysis, p: Path, q: Path) -> HomDescription:
    """Stable Hom between ``pL`` and ``qL``: the sum of the graded pieces.

    Witnesses are proper left divisors of ``q`` times ``p``, so only shifts
    ``0 <= k < l(q)`` can contribute.
    """
    an.require_perfect(p)
    an.require_perfect(q)
    if an.class_of[p] != an.class_of[q]:
        return HomDescription(0, by_shift=())
    pieces = []
    for k in range(q.length):
        h = graded_stable_hom(an, StableObject(p, 0), StableObject(q, k))
        if h.dimension:
            pieces.append((k, h.witness))
    return HomDescription(len(pieces), by_shift=tuple(pieces))


def suspend(an: Analysis, obj: StableObject, power: int) -> StableObject:
    """Iterate the one-step suspension rule through perfect pairs.

    One step up replaces ``qL(k)`` by ``pL(k + l(p))`` for the pair
    ``(p, q)``; one step down is its inverse.
    """
    if obj.is_zero:
        raise InputError("cannot suspend the zero object")
    path = an.require_perfect(obj.path)
    shift = obj.shift
    for _ in range(power if power > 0 else 0):
        pred = an.perfect.predecessor[path]
        shift += pred.length
        path = pred
    for _ in range(-power if power < 0 else 0):
        shift -= path.length
        path = an.perfect.successor[path]
    return StableObject(path, shift)


def suspension_closed_form(
    an: Analysis, dec: CycleDecomposition, i_prime: int, power: int
) -> StableObject:
    """Closed form for suspension powers of the chain objects ``[1, i']L``."""
    if not 1 <= i_prime <= dec.m:
        raise InputError(f"chain index {i_prime} out of range 1..{dec.m}")
    mc = dec.m
    if power % 2 == 0:
        m = power // 2
        a = -m * (mc + 1) + 1
        b = i_prime - m * (mc + 1)
        if m >= 0:
            d = dec.length_between(a, 0)
        else:
            d = -dec.length_between(1, -m * (mc + 1))
    else:
        m = (power - 1) // 2
        a = i_prime - (m + 1) * mc - m
        b = -m * (mc + 1)
        if m >= 0:
            d = dec.length_between(a, 0)
        else:
            d = -dec.length_between(1, i_prime - (m + 1) * (mc + 1))
    return StableObject(dec.realize(a, b), d)


def ar_translate(an: Analysis, obj: StableObject) -> StableObject:
    """tau of ``[i, i+m-1]L(j)`` is ``[i+1, i+m]L(j - l(r_i))``."""
    if obj.is_zero:
        raise InputError("cannot translate the zero object")
    dec, i, span = an.bracket_of(obj.path)
    return StableObject(
        dec.realize(i + 1, i + span), obj.shift - dec.factor_length(i)
    )


def ar_translate_inverse(an: Analysis, obj: StableObject) -> StableObject:
    if obj.is_zero:
        raise InputError("cannot translate the zero object")
    dec, i, span = an.bracket_of(obj.path)
    return StableObject(
        dec.realize(i - 1, i + span - 2),
        obj.shift + dec.factor_length(i - 1),
    )


@dataclass(frozen=True)
class ARTriangle:
    """An Auslander-Reiten triangle ``tau C -> B -> C -> Sigma tau C``.

    ``middles`` lists the non-zero summands of B; a middle term whose
    bracket degenerates (trivial path, or a window lying in the relation
    set) is the zero marker and is dropped.  ``connecting_witness`` spans
    the one-dimensional Hom space the connecting morphism lives in.
    """

    tau_object: StableObject
    middles: tuple[StableObject, ...]
    target: StableObject
    connecting_witness: Path


def ar_triangle(an: Analysis, obj: StableObject) -> ARTriangle:
    if obj.is_zero:
        raise InputError("no Auslander-Reiten triangle at the zero object")
    dec, i, span = an.bracket_of(obj.path)
    tau_obj = ar_translate(an, obj)
    middles = []
    if span > 1:
        middles.append(
            StableObject(
                dec.realize(i + 1, i + span - 1),
                obj.shift - dec.factor_length(i),
            )
        )
    if span < dec.m:
        middles.append(StableObject(dec.realize(i, i + span), obj.shift))
    witness = dec.realize(i + span - dec.m, i + span - 1)
    return ARTriangle(
        tau_object=tau_obj,
        middles=tuple(middles),
        target=obj,
        connecting_witness=witness,
    )


def tau_periodicity_check(
    an: Analysis, dec: CycleDecomposition, samples=None
) -> bool:
    """tau^{|c|} acts as the shift (-l(c)) on every sampled object."""
    if samples is None:
        samples = [StableObject(p, 0) for p in dec.members]
    for start in samples:
        cur = start
        for _ in range(dec.size):
            cur = ar_translate(an, cur)
        if cur != StableObject(start.path, start.shift - dec.arrow_length):
            return False
    return True


def class_multiplicity(an: Analysis, dec: CycleDecomposition, grading: str) -> int:
    """Period of the degree shift on one class: the arrow length of the
    cycle, or its total arrow degree under the weighted grading."""
    if grading != WEIGHTED_GRADING:
        return dec.arrow_length
    deg = an.algebra.degree(dec.anchored_cycle)
    if deg <= 0:
        raise InputError(
            f"weighted grading requires positive degree on {dec.anchored_cycle}"
        )
    return deg


def tilting_object(
    an: Analysis, grading: str = DEFAULT_GRADING
) -> tuple[StableObject, ...]:
    """Summands of the tilting object: each chain, shifted through one
    period of the degree shift (arrow length, or cycle degree when
    weighted)."""
    summands = []
    for dec in an.decompositions:
        for s in range(class_multiplicity(an, dec, grading)):
            for p in dec.chain:
                summands.append(StableObject(p, s))
    return tuple(summands)


@dataclass(frozen=True)
class EndBlock:
    """Per-class endomorphism data of the tilting object.

    ``pattern[a][b]`` is the Hom dimension from the chain object of length
    a+1 to the one of length b+1 at shift 0; the non-zero entries form a
    triangle, so each block is the path algebra of a linear A-type quiver
    with ``size`` vertices, occurring with the stated multiplicity.
    """

    cycle: Path
    size: int
    multiplicity: int
    pattern: tuple[tuple[int, ...], ...]


def end_algebra(
    an: Analysis, grading: str = DEFAULT_GRADING
) -> tuple[EndBlock, ...]:
    blocks = []
    for dec in an.decompositions:
        pattern = []
        for a in range(1, dec.m + 1):
            row = []
            for b in range(1, dec.m + 1):
                h = graded_stable_hom(
                    an,
                    StableObject(dec.chain[a - 1], 0),
                    StableObject(dec.chain[b - 1], 0),
                )
                expected = 1 if b <= a else 0
                if h.dimension != expected:
                    raise InternalConsistencyError(
                        f"End(T) entry ({a},{b}) of class "
                        f"{dec.cycle_class.cycle} is {h.dimension}, "
                        f"expected {expected}"
                    )
                row.append(h.dimension)
            pattern.append(tuple(row))
        blocks.append(
            EndBlock(
                cycle=dec.cycle_class.cycle,
                size=dec.m,
                multiplicity=class_multiplicity(an, dec, grading),
                pattern=tuple(pattern),
            )
        )
    return tuple(blocks)


@dataclass(frozen=True)
class GradedFactor:
    cycle: Path
    typeA_size: int
    multiplicity: int


@dataclass(frozen=True)
class NakayamaFactor:
    cycle: Path
    vertices: int
    radical_exponent: int


@dataclass(frozen=True)
class ClassificationReport:
    """The two classification outputs, one factor per underlying cycle.

    The graded stable category is a product of derived categories of
    linear A-type quivers (``typeA_size`` vertices, ``multiplicity``
    copies); the ungraded one is a product of stable module categories of
    self-injective Nakayama algebras (cyclic quiver on ``vertices``
    vertices modulo the stated radical power).
    """

    graded: tuple[GradedFactor, ...]
    ungraded: tuple[NakayamaFactor, ...]
    cm_free: bool

    def to_json_dict(self) -> dict:
        return {
            "graded": [
                {
                    "cycle": str(f.cycle),
                    "typeA_size": f.typeA_size,
                    "multiplicity": f.multiplicity,
                }
                for f in self.graded
            ],
            "ungraded": [
                {
                    "vertices": f.vertices,
                    "radical_exponent": f.radical_exponent,
                }
                for f in self.ungraded
            ],
            "cm_free": self.cm_free,
        }


def classify(an: Analysis, grading: str = DEFAULT_GRADING) -> ClassificationReport:
    if grading not in (DEFAULT_GRADING, WEIGHTED_GRADING):
        raise InputError(f"unknown grading {grading!r}")
    graded = []
    ungraded = []
    for dec in an.decompositions:
        graded.append(
            GradedFactor(
                cycle=dec.cycle_class.cycle,
                typeA_size=dec.m,
                multiplicity=class_multiplicity(an, dec, grading),
            )
        )
        ungraded.append(
            NakayamaFactor(
                cycle=dec.cycle_class.cycle,
                vertices=dec.size,
                radical_exponent=dec.m + 1,
            )
        )
    return ClassificationReport(
        graded=tuple(graded),
        ungraded=tuple(ungraded),
        cm_free=an.perfect.cm_free,
    )
