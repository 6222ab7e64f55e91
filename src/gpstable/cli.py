"""Command-line surface: analyze, hasse, classify, hom, ar-quiver, verify.

All output is byte-deterministic for a fixed input and flag set.  Exit
codes: 0 success, 1 input error, 2 verification failure, 3 internal error
(a structural guarantee failed, which indicates a bug).
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path as FilePath

from .algebra import InputError, InternalConsistencyError, parse_algebra, parse_path_string
from .analysis import Analysis
from .arquiver import ar_quiver, dump_json, emit, full_ungraded_ar_quiver
from .orders import hasse_quiver
from .stable import StableObject, classify, graded_stable_hom, ungraded_stable_hom


def _load(path: str) -> Analysis:
    try:
        text = FilePath(path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise InputError(f"cannot read {path}: {exc}") from None
    return Analysis(parse_algebra(text))


def _write(text: str, output: str | None) -> None:
    if output:
        try:
            FilePath(output).write_text(text, encoding="utf-8")
        except OSError as exc:
            raise InputError(f"cannot write {output}: {exc}") from None
    else:
        sys.stdout.write(text)


def _analysis_summary(an: Analysis) -> dict:
    alg = an.algebra
    data = {
        "vertices": len(alg.quiver.vertices),
        "arrows": len(alg.quiver.arrows),
        "relations": [str(r) for r in alg.relations],
        "warnings": list(alg.warnings),
        "basis_size": alg.dim,
        "nilpotency_bound": alg.nilpotency,
        "cm_free": an.perfect.cm_free,
        "perfect_paths": [str(p) for p in an.perfect.paths],
        "minimal_sequences": [
            [str(p) for p in seq] for seq in an.perfect.sequences
        ],
        "elementary": [str(p) for p in an.elementary],
        "coelementary": [str(p) for p in an.coelementary],
        "classes": [
            {
                "cycle": str(dec.cycle_class.cycle),
                "factors": [str(r) for r in dec.factors],
                "size": dec.size,
                "arrow_length": dec.arrow_length,
                "m": dec.m,
                "chain": [str(p) for p in dec.chain],
            }
            for dec in an.decompositions
        ],
        "perfect_count_identity": sum(
            d.m * d.size for d in an.decompositions
        )
        == len(an.perfect.paths),
    }
    return data


def _cmd_analyze(args) -> int:
    an = _load(args.file)
    data = _analysis_summary(an)
    if args.json:
        _write(dump_json(data), args.output)
        return 0
    lines = [
        f"Algebra: {data['vertices']} vertices, {data['arrows']} arrows, "
        f"{len(data['relations'])} relations",
        f"Basis: {data['basis_size']} non-zero paths "
        f"(nilpotency bound {data['nilpotency_bound']})",
    ]
    for w in data["warnings"]:
        lines.append(f"Warning: {w}")
    if data["cm_free"]:
        lines.append("CM-free: no perfect paths")
    else:
        lines.append(
            f"Perfect paths ({len(data['perfect_paths'])}): "
            + ", ".join(data["perfect_paths"])
        )
        lines.append(f"Minimal perfect path sequences ({len(data['minimal_sequences'])}):")
        for seq in data["minimal_sequences"]:
            lines.append("  (" + " -> ".join(seq) + " -> ...)")
        lines.append("Underlying cycle classes:")
        for cls in data["classes"]:
            lines.append(
                f"  {cls['cycle']}: factors ({', '.join(cls['factors'])}), "
                f"|c|={cls['size']}, l(c)={cls['arrow_length']}, "
                f"m_c={cls['m']}"
            )
        lines.append("Elementary: " + ", ".join(data["elementary"]))
        lines.append("Co-elementary: " + ", ".join(data["coelementary"]))
        lines.append(
            "Count identity sum(m_c * |c|) == |perfect paths|: "
            + ("ok" if data["perfect_count_identity"] else "FAILED")
        )
    _write("\n".join(lines) + "\n", args.output)
    return 0


def _cmd_hasse(args) -> int:
    an = _load(args.file)
    h = hasse_quiver(an.perfect.paths, args.order)
    _write(emit(h, "json" if args.json else "dot"), args.output)
    return 0


def _cmd_classify(args) -> int:
    an = _load(args.file)
    report = classify(an)
    if args.json:
        _write(dump_json(report.to_json_dict()), args.output)
        return 0
    lines = []
    if report.cm_free:
        lines.append("CM-free: both stable categories vanish")
    lines.append("Graded stable category:")
    for f in report.graded:
        lines.append(
            f"  derived category of A{f.typeA_size} x{f.multiplicity}"
            f"  (cycle {f.cycle})"
        )
    lines.append("Ungraded stable category:")
    for f in report.ungraded:
        lines.append(
            f"  stable modules over Nakayama({f.vertices} vertices, "
            f"rad^{f.radical_exponent})  (cycle {f.cycle})"
        )
    _write("\n".join(lines) + "\n", args.output)
    return 0


def _cmd_hom(args) -> int:
    an = _load(args.file)
    quiver = an.algebra.quiver
    src = parse_path_string(quiver, args.src)
    an.locate(src)  # an input error unless perfect
    dst = parse_path_string(quiver, args.dst)
    an.locate(dst)
    if args.graded:
        shift = args.shift or 0
        h = graded_stable_hom(an, StableObject(src, 0), StableObject(dst, shift))
        data = {
            "graded": True,
            "from": str(src),
            "to": str(dst),
            "shift": shift,
            "dimension": h.dimension,
            "witness": str(h.witness) if h.witness else None,
        }
        text = (
            f"dim Hom({src}L, {dst}L({shift})) = {h.dimension}"
            + (f", witness {h.witness}" if h.witness else "")
            + "\n"
        )
    else:
        if args.shift is not None:
            raise InputError("--shift requires --graded")
        h = ungraded_stable_hom(an, src, dst)
        data = {
            "graded": False,
            "from": str(src),
            "to": str(dst),
            "dimension": h.dimension,
            "witnesses": [[k, str(w)] for k, w in (h.by_shift or ())],
        }
        text = f"dim Hom({src}L, {dst}L) = {h.dimension}\n"
        for k, w in h.by_shift or ():
            text += f"  shift {k}: witness {w}\n"
    _write(dump_json(data) if args.json else text, args.output)
    return 0


def _cmd_ar_quiver(args) -> int:
    if args.window is not None and not args.graded:
        raise InputError("--window requires --graded")
    if args.window is not None and args.window < 0:
        raise InputError(f"--window must be non-negative, got {args.window}")
    an = _load(args.file)
    if args.graded:
        pieces = []
        for dec in an.decompositions:
            w = dec.arrow_length if args.window is None else args.window
            pieces.append((dec, range(-w, w + 1)))
        quiver = ar_quiver(pieces)
    else:
        quiver = full_ungraded_ar_quiver(an)
    _write(emit(quiver, "json" if args.json else "dot"), args.output)
    return 0


def _cmd_verify(args) -> int:
    from .oracle import verify_suite  # the other commands never load the oracle

    if args.random < 0:
        raise InputError(f"--random must be non-negative, got {args.random}")
    an = _load(args.file)
    tables = verify_suite(an.algebra, random_count=args.random, seed=args.seed)
    failed = sum(1 for _, checks in tables for c in checks if not c.ok)
    if args.json:
        data = [
            {
                "algebra": name,
                "checks": [
                    {"name": c.name, "ok": c.ok, "detail": c.detail}
                    for c in checks
                ],
            }
            for name, checks in tables
        ]
        _write(dump_json(data), args.output)
    else:
        lines = []
        for name, checks in tables:
            lines.append(f"== {name}")
            for c in checks:
                mark = "PASS" if c.ok else "FAIL"
                suffix = f"  ({c.detail})" if c.detail else ""
                lines.append(f"  {mark}  {c.name}{suffix}")
        lines.append(
            f"{failed} failure(s)" if failed else "all checks passed"
        )
        _write("\n".join(lines) + "\n", args.output)
    return 2 if failed else 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gpstable",
        description=(
            "Combinatorial classification of the stable category of "
            "Gorenstein-projective modules over a monomial algebra."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("file", help="algebra input document (JSON)")
        p.add_argument("--json", action="store_true", help="machine output")
        p.add_argument("--output", "-o", help="write output to this file")

    p = sub.add_parser("analyze", help="full combinatorial report")
    common(p)
    p.set_defaults(handler=_cmd_analyze)

    p = sub.add_parser("hasse", help="Hasse quiver of one of the two orders")
    common(p)
    p.add_argument("--order", choices=["prec", "leq"], default="prec")
    p.set_defaults(handler=_cmd_hasse)

    p = sub.add_parser("classify", help="the two classification outputs")
    common(p)
    p.set_defaults(handler=_cmd_classify)

    p = sub.add_parser("hom", help="stable Hom dimension between two objects")
    common(p)
    p.add_argument("--from", dest="src", required=True, help="dot-separated arrows")
    p.add_argument("--to", dest="dst", required=True, help="dot-separated arrows")
    p.add_argument("--shift", type=int, default=None)
    p.add_argument("--graded", action="store_true")
    p.set_defaults(handler=_cmd_hom)

    p = sub.add_parser("ar-quiver", help="Auslander-Reiten quiver emission")
    common(p)
    p.add_argument("--graded", action="store_true")
    p.add_argument("--window", type=int, default=None, help="graded shift window")
    p.set_defaults(handler=_cmd_ar_quiver)

    p = sub.add_parser("verify", help="run the brute-force oracle suite")
    common(p)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--random", type=int, default=0, help="extra random algebras")
    p.set_defaults(handler=_cmd_verify)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except InternalConsistencyError as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
