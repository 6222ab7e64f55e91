"""Labelled indecomposables of the (graded) stable category.

Objects are labels ``(perfect path, shift)`` rather than realized modules;
morphism dimensions, suspensions, Auslander-Reiten translates and the
tilting/classification data are all evaluated in closed form on bracket
coordinates.  Objects and Hom results are named tuples, values that
compare and hash by their fields.  Graded and ungraded Hom share one
solve on the coordinates.  The brute-force counterparts live in
:mod:`gpstable.oracle` and must agree with everything here on small
inputs.
"""

from __future__ import annotations

from typing import NamedTuple

from .algebra import InputError, Path
from .analysis import Analysis
from .orders import CycleDecomposition


class StableObject(NamedTuple):
    """A labelled indecomposable ``pL(shift)``.

    A value: two objects are equal, and hash alike, when their fields are
    equal; one unpacks as ``path, shift = obj`` and equals the plain tuple
    ``(path, shift)``.
    """

    path: Path
    shift: int = 0

    def __str__(self) -> str:
        if self.shift:
            return f"{self.path}({self.shift})"
        return f"{self.path}"


class HomDescription(NamedTuple):
    """Dimension of a stable Hom space plus basis witnesses.

    Graded Hom spaces have dimension 0 or 1 and carry a single ``witness``
    path, the class member [i2, ja] that closes the one translate of the
    source window fitting the target's; the ungraded dimension is the
    number of graded pieces, and ``by_shift`` lists their ``(shift,
    witness)`` pairs by increasing shift.  A value like
    :class:`StableObject`; every empty Hom is one of two shared zero
    objects.
    """

    dimension: int
    witness: Path | None = None
    by_shift: tuple[tuple[int, Path], ...] | None = None


_NO_HOM = HomDescription(0)
_NO_UNGRADED_HOM = HomDescription(0, by_shift=())


def _solve(
    dec: CycleDecomposition, i: int, span_p: int, i2: int, span_q: int, k: int
) -> HomDescription:
    """Hom([i, span_p](0), [i2, span_q](k)) between two objects of one class.

    The translate [ia, ja] of the source window by t|c| sits at shift
    offset(i) - offset(i2) + t·l(c), so one ``divmod`` finds the only t
    that can reach k.  Hom is then 1-dimensional iff ``i2 <= ia <= j2 <=
    ja < i2 + m``, with j2 = i2 + span_q - 1 and witness [i2, ja].
    """
    # 1 <= i, i2 <= |c|, so offset(i) is prefix_lengths[i - 1]
    lengths = dec.prefix_lengths
    t, rem = divmod(k + lengths[i2 - 1] - lengths[i - 1], dec.arrow_length)
    if rem:
        return _NO_HOM
    ia = i + t * dec.size
    ja = ia + span_p - 1
    if i2 <= ia <= i2 + span_q - 1 <= ja < i2 + dec.m:
        return HomDescription(1, witness=dec.realize(i2, ja))
    return _NO_HOM


def graded_stable_hom(
    an: Analysis, src: StableObject, dst: StableObject
) -> HomDescription:
    """Closed-form dimension of the degree-preserving stable Hom space.

    Cross-class Hom spaces vanish.  Within a class only the relative shift
    matters, and :func:`_solve` finds the one translate of the source
    window that can fit the target's.  Both objects are looked up by
    identity; a path built elsewhere falls back to
    :meth:`Analysis.locate`, which also rejects non-perfect paths.
    """
    by_identity = an._by_identity
    dec, i, span_p = by_identity.get(id(src.path)) or an.locate(src.path)
    dec_q, i2, span_q = by_identity.get(id(dst.path)) or an.locate(dst.path)
    if dec is not dec_q:
        return _NO_HOM
    return _solve(dec, i, span_p, i2, span_q, dst.shift - src.shift)


def ungraded_stable_hom(an: Analysis, p: Path, q: Path) -> HomDescription:
    """Stable Hom between ``pL`` and ``qL``: the sum of the graded pieces.

    Witnesses are proper left divisors of ``q`` times ``p``, so only shifts
    ``0 <= k < l(q)`` can contribute, and of those only the ones that
    :func:`_solve` can solve for, one per period l(c) and so one per
    translate of ``p``'s window.  Each path is located once, by identity
    as in :func:`graded_stable_hom`, and no :class:`StableObject` is built
    per shift.
    """
    by_identity = an._by_identity
    dec, i, span_p = by_identity.get(id(p)) or an.locate(p)
    dec_q, i2, span_q = by_identity.get(id(q)) or an.locate(q)
    if dec is not dec_q:
        return _NO_UNGRADED_HOM
    # 1 <= i, i2 <= |c|, so offset(i) is prefix_lengths[i - 1]
    lengths = dec.prefix_lengths
    first = (lengths[i - 1] - lengths[i2 - 1]) % dec.arrow_length
    pieces = tuple([
        (k, h.witness)
        for k in range(first, q.length, dec.arrow_length)
        if (h := _solve(dec, i, span_p, i2, span_q, k)).dimension
    ])
    if not pieces:
        return _NO_UNGRADED_HOM
    return HomDescription(len(pieces), by_shift=pieces)


def suspend(an: Analysis, obj: StableObject, power: int) -> StableObject:
    """Suspension powers in bracket coordinates.

    One step up replaces ``qL(k)`` by ``pL(k + l(p))`` for the perfect pair
    ``(p, q)``: for ``q = [i, i+span-1]`` that is ``p = [i+span-m-1, i-1]``,
    since ``pq`` is a relation window of m+1 factors.  Two steps move the
    window m+1 factors back and keep its span.  The path is located by
    identity as in :func:`graded_stable_hom`.
    """
    dec, i, span = an._by_identity.get(id(obj.path)) or an.locate(obj.path)
    half, odd = divmod(power, 2)
    a = i - half * (dec.m + 1)
    if odd:
        a, span = a + span - dec.m - 1, dec.m + 1 - span
    shift = obj.shift + dec.offset(i) - dec.offset(a)
    return StableObject(dec.realize(a, a + span - 1), shift)


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


def _term(
    dec: CycleDecomposition, i: int, span: int, drop: int, shift: int
) -> StableObject:
    """The object [i, span](shift - drop) that a mesh triple names."""
    return StableObject(dec.realize(i, i + span - 1), shift - drop)


def ar_translate(an: Analysis, obj: StableObject) -> StableObject:
    """tau of ``obj``, the translate its :meth:`CycleDecomposition.mesh`
    names."""
    dec, i, span = an.locate(obj.path)
    return _term(dec, *dec.mesh(i, span)[0], obj.shift)


def ar_translate_inverse(an: Analysis, obj: StableObject) -> StableObject:
    """The object whose translate is ``obj``, read off the mesh of the
    previous index."""
    dec, i, span = an.locate(obj.path)
    prev = (i - 2) % dec.size + 1
    _, _, drop = dec.mesh(prev, span)[0]
    return _term(dec, prev, span, -drop, obj.shift)


class ARTriangle(NamedTuple):
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
    """The triangle of ``obj`` as :meth:`CycleDecomposition.mesh` names it."""
    dec, i, span = an.locate(obj.path)
    translate, middles = dec.mesh(i, span)
    return ARTriangle(
        tau_object=_term(dec, *translate, obj.shift),
        middles=tuple([_term(dec, *mid, obj.shift) for mid in middles]),
        target=obj,
        connecting_witness=dec.realize(i + span - dec.m, i + span - 1),
    )


def tau_periodicity_check(an: Analysis, dec: CycleDecomposition) -> bool:
    """tau^{|c|} acts as the shift (-l(c)) on every object ``pL(0)`` of the class."""
    for p in dec.members:
        cur = StableObject(p, 0)
        for _ in range(dec.size):
            cur = ar_translate(an, cur)
        if cur != StableObject(p, -dec.arrow_length):
            return False
    return True


def tilting_object(an: Analysis) -> tuple[StableObject, ...]:
    """Summands of the tilting object: each chain, shifted through one
    period of the degree shift, the arrow length of its cycle."""
    summands = []
    for dec in an.decompositions:
        for s in range(dec.arrow_length):
            for p in dec.chain:
                summands.append(StableObject(p, s))
    return tuple(summands)


class EndBlock(NamedTuple):
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


def end_algebra(an: Analysis) -> tuple[EndBlock, ...]:
    """End(T) in closed form: [1, a]L maps to [1, b]L at shift 0 iff [1, b]
    left-divides [1, a], so each block is the lower triangle of size m_c,
    once per shift 0 .. l(c)-1.  The oracle checks it by brute force."""
    return tuple([
        EndBlock(
            cycle=dec.cycle_class.cycle,
            size=dec.m,
            multiplicity=dec.arrow_length,
            pattern=tuple([
                tuple([1 if b <= a else 0 for b in range(dec.m)])
                for a in range(dec.m)
            ]),
        )
        for dec in an.decompositions
    ])


class GradedFactor(NamedTuple):
    cycle: Path
    typeA_size: int
    multiplicity: int


class NakayamaFactor(NamedTuple):
    cycle: Path
    vertices: int
    radical_exponent: int


class ClassificationReport(NamedTuple):
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


def classify(an: Analysis) -> ClassificationReport:
    graded = []
    ungraded = []
    for dec in an.decompositions:
        graded.append(
            GradedFactor(
                cycle=dec.cycle_class.cycle,
                typeA_size=dec.m,
                multiplicity=dec.arrow_length,
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
