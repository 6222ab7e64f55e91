"""Path-keyed references for the bracket-native stable closed forms.

These are the closed forms as they read before the coordinate index: every
call checks perfectness against the successor map, compares the classes
of the two paths, finds the decomposition of the class and scans its
windows for the bracket, and witnesses are built by concatenating factors.
Suspension iterates the perfect pairs one step at a time.  They are kept
only to pin the index-based versions in :mod:`gpstable.stable` down.
"""

from gpstable.algebra import InputError, Path
from gpstable.stable import ARTriangle, HomDescription, StableObject


def _require_perfect(an, p):
    if p not in an.perfect.successor:
        raise InputError(f"{p} is not a perfect path of this algebra")
    return p


def _class_of(an, p):
    for cls in an.classes:
        if p in cls.members:
            return cls.cycle
    raise InputError(f"{p} is not a perfect path of this algebra")


def _bracket_of(an, p):
    cycle = _class_of(an, p)
    for dec in an.decompositions:
        if dec.cycle_class.cycle == cycle:
            for i, row in enumerate(dec.windows, 1):
                if p in row:
                    return dec, i, row.index(p) + 1
    raise AssertionError("class without a decomposition")


def _realize(dec, i, j):
    """r_i ... r_j by concatenation, trivial at s(r_i) when i > j."""
    out = dec.factor(i)
    if i > j:
        return Path((), (out.source,))
    for t in range(i + 1, j + 1):
        out = out * dec.factor(t)
    return out


def _length_between(dec, i, j):
    return sum(dec.factor_length(t) for t in range(i, j + 1))


def graded_stable_hom(an, src, dst):
    p = _require_perfect(an, src.path)
    q = _require_perfect(an, dst.path)
    k = dst.shift - src.shift
    if _class_of(an, p) != _class_of(an, q):
        return HomDescription(0)
    dec, i, span_p = _bracket_of(an, p)
    j = i + span_p - 1
    _, i2, span_q = _bracket_of(an, q)
    j2 = i2 + span_q - 1
    n = dec.size
    for alpha in range(-((i - i2) // n) - 1, (j2 - i) // n + 2):
        ia = i + alpha * n
        ja = j + alpha * n
        if not (i2 <= ia <= j2 <= ja < i2 + dec.m):
            continue
        if k != _length_between(dec, i2, ia - 1):
            continue
        return HomDescription(1, witness=_realize(dec, i2, ja))
    return HomDescription(0)


def ungraded_stable_hom(an, p, q):
    _require_perfect(an, p)
    _require_perfect(an, q)
    if _class_of(an, p) != _class_of(an, q):
        return HomDescription(0, by_shift=())
    pieces = []
    for k in range(q.length):
        h = graded_stable_hom(an, StableObject(p, 0), StableObject(q, k))
        if h.dimension:
            pieces.append((k, h.witness))
    return HomDescription(len(pieces), by_shift=tuple(pieces))


def suspend(an, obj, power):
    path = _require_perfect(an, obj.path)
    shift = obj.shift
    predecessor = {q: p for p, q in an.perfect.successor.items()}
    for _ in range(max(power, 0)):
        path = predecessor[path]
        shift += path.length
    for _ in range(max(-power, 0)):
        shift -= path.length
        path = an.perfect.successor[path]
    return StableObject(path, shift)


def ar_translate(an, obj):
    dec, i, span = _bracket_of(an, obj.path)
    return StableObject(_realize(dec, i + 1, i + span), obj.shift - dec.factor_length(i))


def ar_translate_inverse(an, obj):
    dec, i, span = _bracket_of(an, obj.path)
    return StableObject(
        _realize(dec, i - 1, i + span - 2), obj.shift + dec.factor_length(i - 1)
    )


def ar_triangle(an, obj):
    dec, i, span = _bracket_of(an, obj.path)
    middles = []
    if span > 1:
        middles.append(
            StableObject(_realize(dec, i + 1, i + span - 1), obj.shift - dec.factor_length(i))
        )
    if span < dec.m:
        middles.append(StableObject(_realize(dec, i, i + span), obj.shift))
    return ARTriangle(
        tau_object=ar_translate(an, obj),
        middles=tuple(middles),
        target=obj,
        connecting_witness=_realize(dec, i + span - dec.m, i + span - 1),
    )
