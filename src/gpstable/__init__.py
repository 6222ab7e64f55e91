"""Combinatorics of the stable category of Gorenstein-projective modules
over monomial path algebras: perfect paths, divisibility orders, bracket
coordinates, Hom/suspension/AR formulas, tilting data and the two
classification outputs, all backed by brute-force oracles."""

from .algebra import (
    InputError,
    InternalConsistencyError,
    MonomialAlgebra,
    NonAdmissibleError,
    Path,
    Quiver,
    enumerate_nonzero_paths,
    parse_algebra,
    parse_path_string,
)
from .analysis import Analysis, analyze
from .arquiver import (
    TranslationQuiver,
    emit,
    full_ungraded_ar_quiver,
    graded_ar_window,
    ungraded_ar_quiver,
)
from .orders import (
    CycleDecomposition,
    CyclePredicates,
    HasseQuiver,
    classify_elementary,
    coelementary_factorization,
    cycle_predicates,
    decompose_cycle,
    hasse_quiver,
    order_compare,
)
from .perfect import (
    Overlap,
    PerfectPathSet,
    UnderlyingCycleClass,
    detect_overlap,
    enumerate_perfect_paths,
    is_perfect_pair,
    left_annihilators,
    min_rotation,
    primitive_root,
    right_annihilators,
    underlying_cycle_classes,
)
from .stable import (
    ARTriangle,
    ClassificationReport,
    EndBlock,
    GradedFactor,
    HomDescription,
    NakayamaFactor,
    StableObject,
    ar_translate,
    ar_triangle,
    classify,
    end_algebra,
    graded_stable_hom,
    suspend,
    suspension_closed_form,
    tau_periodicity_check,
    tilting_object,
    ungraded_stable_hom,
)

__version__ = "0.1.0"
