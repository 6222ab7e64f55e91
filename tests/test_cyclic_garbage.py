"""The pipeline leaves no cyclic garbage behind.

Every object an operation builds is freed by reference counting, so the
cyclic collector never has anything to find.  That keeps the process's
peak memory flat: with no garbage cycles, full collections are rare, and
the tuples a run frees then sit on CPython's per-size free lists.  Those
lists stay small only because every tuple is built at its exact size
(``tests/test_imports.py`` scans for that).  A closure that refers to
itself, a generator kept alive by a frame, or the pure-Python ``json``
encoder's closures would each leave a cycle per call.
"""

import gc

import pytest

from gpstable import fixtures
from gpstable.analysis import analyze
from gpstable.arquiver import emit, full_ungraded_ar_quiver, graded_ar_window
from gpstable.oracle import verify_algebra
from gpstable.stable import classify


def run_pipeline(document: dict) -> None:
    an = analyze(document)
    classify(an)
    quiver = full_ungraded_ar_quiver(an)
    emit(quiver, "json")
    emit(quiver, "dot")
    emit(an.hasse_leq, "json")
    for dec in an.decompositions:
        emit(graded_ar_window(an, dec, -dec.arrow_length, dec.arrow_length), "json")
    verify_algebra(an.algebra)


@pytest.mark.parametrize(
    "document",
    [fixtures.lambda_star_document(), fixtures.nakayama_document(3, 3)],
    ids=["lambda_star", "nakayama(3,3)"],
)
def test_pipeline_leaves_no_cyclic_garbage(document):
    enabled = gc.isenabled()
    gc.disable()
    try:
        gc.collect()
        run_pipeline(document)
        assert gc.collect() == 0
    finally:
        if enabled:
            gc.enable()
