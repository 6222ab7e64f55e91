"""Per-layer spans for the traced run, recorded from outside the program.

Each public function of a layer is replaced, at every ``gpstable`` module
attribute that holds it (and, for methods, on the class), by a wrapper that
times the call.  Callers look the name up at call time, so every call made
inside the package or by the benchmark passes through the wrapper; no file
of the program changes.  A span's self time is its duration minus the time
of the spans it encloses.  ``analysis`` (a facade that only dispatches) and
``cli`` (a wrapper over the same calls) get no spans of their own.
"""

from __future__ import annotations

import sys
from collections import defaultdict
from contextlib import contextmanager
from time import perf_counter

LAYERS = ("algebra", "perfect", "orders", "stable", "arquiver", "oracle")

# span name -> (module, attributes); "Class.method" names a method.
SPANS = {
    "algebra.parse": ("algebra", ("parse_algebra",)),
    "algebra.basis": ("algebra", ("enumerate_nonzero_paths",)),
    "algebra.admissibility": ("algebra", ("admissibility_witness",)),
    "algebra.is_zero": ("algebra", ("MonomialAlgebra.is_zero",)),
    "algebra.concat_zero": ("algebra", ("MonomialAlgebra.concat_zero",)),
    "algebra.module_dim": ("algebra", ("MonomialAlgebra.module_dim",)),
    "perfect.enumerate": ("perfect", ("enumerate_perfect_paths",)),
    "perfect.annihilators": ("perfect", ("right_annihilators", "left_annihilators")),
    "perfect.pair": ("perfect", ("is_perfect_pair",)),
    "perfect.overlap": ("perfect", ("detect_overlap",)),
    "perfect.classes": ("perfect", ("underlying_cycle_classes",)),
    "orders.hasse": ("orders", ("hasse_quiver",)),
    "orders.elementary": ("orders", ("classify_elementary",)),
    "orders.decompose": ("orders", ("decompose_cycle",)),
    "stable.graded_hom": ("stable", ("graded_stable_hom",)),
    "stable.ungraded_hom": ("stable", ("ungraded_stable_hom",)),
    "stable.suspend": ("stable", ("suspend", "suspension_closed_form")),
    "stable.translate": ("stable", ("ar_translate", "ar_translate_inverse")),
    "stable.ar_triangle": ("stable", ("ar_triangle",)),
    "stable.classify": ("stable", ("classify",)),
    "stable.tilting": ("stable", ("tilting_object", "end_algebra", "tau_periodicity_check")),
    "arquiver.build": (
        "arquiver",
        ("full_ungraded_ar_quiver", "ungraded_ar_quiver", "graded_ar_window"),
    ),
    "arquiver.emit": ("arquiver", ("emit",)),
    "oracle.verify": ("oracle", ("verify_algebra",)),
    "oracle.bf_stable_hom": ("oracle", ("bf_stable_hom",)),
    "oracle.bf_verify_perfect": ("oracle", ("bf_verify_perfect",)),
    "oracle.bf_other": ("oracle", ("bf_ses_dims", "bf_factorizations", "bf_ordinary_hom")),
}

# Sizes measured at a span: name -> (span, function of the returned value).
SIZES = {
    "algebra.basis_paths": ("algebra.basis", len),
    "arquiver.emit.bytes": ("arquiver.emit", lambda text: len(text.encode("utf-8"))),
}

# Per-layer metrics reported by the traced run, with their units.
TIMES = (
    "algebra.parse", "algebra.basis", "algebra.concat_zero", "algebra.is_zero",
    "perfect.enumerate", "perfect.annihilators", "perfect.classes",
    "orders.hasse", "orders.decompose",
    "stable.graded_hom", "stable.ungraded_hom", "stable.suspend",
    "stable.ar_triangle", "stable.classify",
    "arquiver.build", "arquiver.emit",
    "oracle.verify", "oracle.bf_stable_hom", "oracle.bf_verify_perfect",
)
CALLS = (
    "algebra.concat_zero", "algebra.is_zero", "perfect.annihilators",
    "stable.graded_hom", "oracle.bf_stable_hom", "oracle.bf_verify_perfect",
)


class Tracer:
    """Accumulates self time, calls and sizes per span name."""

    def __init__(self):
        self.self_s = defaultdict(float)
        self.calls = defaultdict(int)
        self.sizes = defaultdict(int)
        # stack[-1] sums the durations of the spans the innermost open span
        # (or, at stack[0], the benchmark itself) has enclosed so far.
        self.stack = [0.0]

    def wrap(self, name: str, fn, sizes):
        stack, self_s, calls, totals = self.stack, self.self_s, self.calls, self.sizes

        def traced(*args, **kwargs):
            stack.append(0.0)
            start = perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                took = perf_counter() - start
                self_s[name] += took - stack.pop()
                calls[name] += 1
                stack[-1] += took
            for size_name, measure in sizes:
                totals[size_name] += measure(out)
            return out

        traced.__wrapped__ = fn
        return traced

    @contextmanager
    def paused(self):
        """Drop whatever the spans record inside the block (output checks)."""
        saved = (dict(self.self_s), dict(self.calls), dict(self.sizes), self.stack[0])
        try:
            yield
        finally:
            for live, kept in zip((self.self_s, self.calls, self.sizes), saved):
                live.clear()
                live.update(kept)
            self.stack[0] = saved[3]

    def covered(self) -> float:
        """Summed duration of the outermost spans so far."""
        return self.stack[0]

    def install(self):
        """Wrap every listed function in all loaded ``gpstable`` modules."""
        modules = [m for k, m in list(sys.modules.items()) if k.split(".")[0] == "gpstable"]
        for name, (module, attrs) in SPANS.items():
            sizes = [(s, f) for s, (span, f) in SIZES.items() if span == name]
            home = sys.modules[f"gpstable.{module}"]
            for attr in attrs:
                if "." in attr:
                    cls_name, meth = attr.split(".")
                    cls = getattr(home, cls_name)
                    setattr(cls, meth, self.wrap(name, getattr(cls, meth), sizes))
                    continue
                original = getattr(home, attr)
                wrapper = self.wrap(name, original, sizes)
                for mod in modules:
                    for key, value in list(vars(mod).items()):
                        if value is original:
                            setattr(mod, key, wrapper)

    def metrics(self, ops: int) -> dict[str, tuple[float, str]]:
        """Per-operation figures: self time per span and per layer, calls, sizes."""
        out: dict[str, tuple[float, str]] = {}
        for layer in LAYERS:
            total = sum(v for k, v in self.self_s.items() if k.split(".")[0] == layer)
            out[f"{layer}.self_s"] = (total / ops, "s")
        for name in TIMES:
            out[f"{name}.self_s"] = (self.self_s[name] / ops, "s")
        for name in CALLS:
            out[f"{name}.calls"] = (self.calls[name] / ops, "count")
        out["algebra.basis_paths"] = (self.sizes["algebra.basis_paths"] / ops, "count")
        out["arquiver.emit.bytes"] = (self.sizes["arquiver.emit.bytes"] / ops, "bytes")
        return out
