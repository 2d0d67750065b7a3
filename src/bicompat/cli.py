"""Command-line frontend: generators, checkers, solvers and the verification suite.

Exit codes: 0 success, 1 a checked property is false, 2 input error,
3 dimension/field mismatch, 4 precondition violation.
"""

from __future__ import annotations

import argparse
import json
import sys

from .algebra import (
    MAX_DIM,
    Algebra,
    AlgebraError,
    FileFormatError,
    NonAssociativeError,
    algebra_from_json,
    algebra_to_json,
    annihilator,
    associativity_witness,
    center,
    centroid,
    find_units,
    is_idempotent_algebra,
    product_from_json,
    product_to_json,
)
from .builders import (
    BandSpec,
    NotInAnnihilatorError,
    NotInCentroidError,
    QuiverSpec,
    _quiver_paths,
    example_3dim,
    example_6dim,
    example_band22,
    matrix_algebra,
    path_algebra,
    rectangular_band_algebra,
)
from .compat import Kind, check, solve_linear
from .freealg import (
    AlphabetMismatchError,
    ConditionNotVerifiedError,
    FreeAlgebraError,
    NCPoly,
    NonzeroConstantTermError,
    extend_star,
    ncpoly_to_json,
    star_condition,
    starmap_from_json,
    truncated_centroid_dim,
    verify_id_matching_truncated,
)
from .linalg import GF, QQ, FieldMismatchError, LinalgError, ShapeMismatchError
from .suite import SUITE_IDS, UnknownEntryError, run_suite

EXIT_OK = 0
EXIT_PROPERTY_FALSE = 1
EXIT_INPUT = 2
EXIT_SHAPE = 3
EXIT_PRECONDITION = 4


def _machine_line(obj):
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def _parse_field(name):
    if name == "Q":
        return QQ
    if name.startswith("F") and name[1:].isdigit():
        return GF(int(name[1:]))
    raise FileFormatError(f"unknown field {name!r}; use Q or F<p>")


def _load_json(path):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise FileFormatError(f"cannot read {path}: {exc}") from None
    except (ValueError, RecursionError) as exc:  # bad JSON or UTF-8, huge numbers, deep nesting
        raise FileFormatError(f"{path} is not valid JSON: {exc}") from None


def _dump(doc, out):
    text = json.dumps(doc, sort_keys=True, indent=1) + "\n"
    if out is None:
        sys.stdout.write(text)
    else:
        try:
            with open(out, "w", encoding="utf-8") as fh:
                fh.write(text)
        except OSError as exc:
            raise FileFormatError(f"cannot write {out}: {exc}") from None


def _witness_str(alg, witness):
    i, j, k = witness.triple
    lhs = alg.describe(witness.lhs)
    rhs = alg.describe(witness.rhs)
    labels = (alg.labels[i], alg.labels[j], alg.labels[k])
    return f"identity {witness.identity + 1} at ({', '.join(labels)}): lhs = {lhs}, rhs = {rhs}"


def _refuse_over_max_dim(what, value):
    """gen emits no algebra that the reading commands would refuse."""
    if value > MAX_DIM:
        raise FileFormatError(f"{what} {value} exceeds the document limit of {MAX_DIM}")


def _cmd_gen(args):
    field = _parse_field(args.field)
    if args.kind == "band":
        spec = BandSpec(args.rows, args.cols)
        _refuse_over_max_dim("band dim", spec.dim)
        alg = rectangular_band_algebra(spec, field)
        _dump(algebra_to_json(alg), args.output)
    elif args.kind == "matrix":
        _refuse_over_max_dim("matrix algebra dim", max(args.n, 0) ** 2)
        alg = matrix_algebra(args.n, field)
        _dump(algebra_to_json(alg), args.output)
    elif args.kind == "path":
        spec_doc = _load_json(args.quiver)
        if not isinstance(spec_doc, dict) or "vertices" not in spec_doc or "arrows" not in spec_doc:
            raise FileFormatError("quiver document needs 'vertices' and 'arrows'")
        spec = QuiverSpec(spec_doc["vertices"], spec_doc["arrows"])
        # listing the paths is cheap once v + a <= MAX_DIM (a 7-vertex chain of 4-fold arrows has 7279)
        _refuse_over_max_dim("quiver vertices + arrows", spec.vertices + len(spec.arrows))
        _refuse_over_max_dim("path algebra dim", len(_quiver_paths(spec)))
        alg = path_algebra(spec, field)
        _dump(algebra_to_json(alg), args.output)
    elif args.kind == "example":
        docs = _example_docs(args.name, field)
        if args.prefix is None:
            _dump(docs, None)
        else:
            for key, doc in docs.items():
                _dump(doc, f"{args.prefix}.{key}.json")
    return EXIT_OK


def _example_docs(name, field):
    if name == "3dim":
        alg, star, star2 = example_3dim(field)
        return {
            "algebra": algebra_to_json(alg),
            "star": product_to_json(star),
            "star2": product_to_json(star2),
        }
    if name == "6dim":
        alg, star = example_6dim(field)
        return {"algebra": algebra_to_json(alg), "star": product_to_json(star)}
    if name == "band22":
        alg, star = example_band22(field)
        return {"algebra": algebra_to_json(alg), "star": product_to_json(star)}
    raise FileFormatError(f"unknown example {name!r}")


def _load_pair(algebra_path, product_path):
    alg = algebra_from_json(_load_json(algebra_path))
    prod = product_from_json(_load_json(product_path))
    if prod.dim != alg.dim:
        raise ShapeMismatchError("product dimension != algebra dimension")
    if prod.field != alg.field:
        raise FieldMismatchError(f"product over {prod.field}, algebra over {alg.field}")
    return alg, prod


def _cmd_check(args):
    alg, star = _load_pair(args.algebra, args.product)
    kinds = [Kind.parse(name) for name in args.kinds.split(",") if name]
    if not kinds:
        raise FileFormatError("no kinds requested")
    all_hold = True
    for kind in kinds:
        report = check(kind, star, alg.dot)
        all_hold = all_hold and report.holds
        if args.machine:
            print(_machine_line(report.to_json(alg.field)))
        elif report.holds:
            print(f"{kind.value}: holds")
        else:
            print(f"{kind.value}: FAILS, {_witness_str(alg, report.witness)}")
    return EXIT_OK if all_hold else EXIT_PROPERTY_FALSE


def _cmd_solve(args):
    alg = algebra_from_json(_load_json(args.algebra))
    kind = Kind.parse(args.kind)
    ps = solve_linear(kind, alg.dot)
    if args.machine:
        print(_machine_line(ps.to_json()))
        return EXIT_OK
    print(f"{kind.value}: solution space dimension {ps.dim}")
    for idx, prod in enumerate(ps.basis_products()):
        terms = []
        for i, j, k, v in prod.triples():
            coeff = alg.field.to_str(v)
            prefix = "" if coeff == "1" else f"{coeff}*"
            terms.append(f"{alg.labels[i]}*{alg.labels[j]} -> {prefix}{alg.labels[k]}")
        print(f"  basis[{idx}]: " + ("; ".join(terms) if terms else "0"))
    return EXIT_OK


def _cmd_invariants(args):
    alg = algebra_from_json(_load_json(args.algebra), check=False)
    dot = alg.dot
    wit = associativity_witness(dot)
    report = {
        "associative": wit is None,
        "assoc_witness": list(wit) if wit else None,
        "idempotent": is_idempotent_algebra(dot),
        "center_dim": center(dot).dim,
        "centroid_dim": centroid(dot).dim,
        "annihilator_dim": annihilator(dot).dim,
    }
    for side in ("left", "right", "two-sided"):
        sol = find_units(dot, side)
        key = side.replace("-", "_") + "_unit"
        if sol is None:
            report[key] = None
        else:
            report[key] = {
                "particular": [alg.field.to_str(v) for v in sol.particular],
                "affine_dim": sol.dim,
            }
    if args.machine:
        print(_machine_line(report))
        return EXIT_OK
    print(f"associative: {report['associative']}")
    if wit is not None:
        labels = tuple(alg.labels[t] for t in wit)
        print(f"  witness triple: {labels}")
    print(f"idempotent (A.A = A): {report['idempotent']}")
    print(f"center dim: {report['center_dim']}")
    print(f"centroid dim: {report['centroid_dim']}")
    print(f"annihilator dim: {report['annihilator_dim']}")
    for side in ("left", "right", "two-sided"):
        key = side.replace("-", "_") + "_unit"
        info = report[key]
        if info is None:
            print(f"{side} unit: none")
        else:
            vec = [alg.field.parse(s) for s in info["particular"]]
            print(f"{side} unit: {alg.describe(vec)} (+ affine dim {info['affine_dim']})")
    return EXIT_OK


def _cmd_free(args):
    sm = starmap_from_json(_load_json(args.starmap)) if args.free_cmd != "centroid-dim" else None
    if args.free_cmd == "check-star":
        witness = star_condition(sm)
        if args.machine:
            obj = {"condition_holds": witness is None}
            if witness is not None:
                obj["witness"] = {
                    "triple": list(witness.triple),
                    "lhs": ncpoly_to_json(witness.lhs),
                    "rhs": ncpoly_to_json(witness.rhs),
                }
            print(_machine_line(obj))
        elif witness is None:
            print("star condition: holds")
        else:
            x, y, z = witness.triple
            print(f"star condition: FAILS at ({x},{y},{z}): lhs = {witness.lhs}, rhs = {witness.rhs}")
        return EXIT_OK if witness is None else EXIT_PROPERTY_FALSE
    if args.free_cmd == "extend":
        left = NCPoly.word(sm.field, sm.alphabet, args.left)
        right = NCPoly.word(sm.field, sm.alphabet, args.right)
        result = extend_star(sm, left, right)
        if args.machine:
            print(_machine_line({"result": ncpoly_to_json(result)}))
        else:
            print(f"{args.left} * {args.right} = {result}")
        return EXIT_OK
    if args.free_cmd == "verify":
        least = sm.max_degree() + 3
        degree = least if args.degree is None else args.degree
        if degree < least:
            raise FileFormatError(
                f"--degree must be at least {least} (max star image degree + 3) to check any word triple"
            )
        verify_id_matching_truncated(sm, degree)
        if args.machine:
            print(_machine_line({"verified": True, "degree": degree}))
        else:
            print(f"id-matching identities verified through degree {degree}")
        return EXIT_OK
    if args.free_cmd == "centroid-dim":
        alphabet = tuple(args.vars)
        dim = truncated_centroid_dim(args.mode, alphabet, args.degree, _parse_field(args.field))
        if args.machine:
            print(_machine_line({"mode": args.mode, "degree": args.degree, "dim": dim}))
        else:
            print(f"truncated centroid dimension ({args.mode}, degree {args.degree}): {dim}")
        return EXIT_OK
    raise FileFormatError(f"unknown free subcommand {args.free_cmd!r}")


def _cmd_paper(args):
    try:
        results = run_suite(only=args.only, workers=args.workers)
    except UnknownEntryError as exc:
        print(str(exc), file=sys.stderr)
        print("known entries: " + ", ".join(SUITE_IDS), file=sys.stderr)
        return EXIT_INPUT
    all_ok = all(r["ok"] for r in results)
    if args.machine:
        for r in results:
            print(_machine_line(r))
    else:
        width = max(len(r["id"]) for r in results)
        for r in results:
            mark = "pass" if r["ok"] else "FAIL"
            print(f"{mark}  {r['id']:<{width}}  {r['detail']}")
        print(f"{sum(r['ok'] for r in results)}/{len(results)} entries pass")
    return EXIT_OK if all_ok else EXIT_PROPERTY_FALSE


def build_parser():
    parser = argparse.ArgumentParser(
        prog="bicompat",
        description="Exact checkers and solvers for pairs of associative products.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("gen", help="emit algebra files")
    gen_sub = gen.add_subparsers(dest="kind", required=True)
    g_band = gen_sub.add_parser("band", help="rectangular band semigroup algebra")
    g_band.add_argument("--rows", type=int, required=True)
    g_band.add_argument("--cols", type=int, required=True)
    g_matrix = gen_sub.add_parser("matrix", help="full matrix algebra")
    g_matrix.add_argument("--n", type=int, required=True)
    g_path = gen_sub.add_parser("path", help="path algebra of an acyclic quiver")
    g_path.add_argument("--quiver", required=True, help="JSON file with vertices/arrows")
    g_example = gen_sub.add_parser("example", help="built-in worked examples")
    g_example.add_argument("--name", required=True, choices=["3dim", "6dim", "band22"])
    g_example.add_argument("--prefix", help="write <prefix>.<part>.json files")
    for g in (g_band, g_matrix, g_path, g_example):
        g.add_argument("--field", default="Q", help="Q (default) or F<p>")
        if g is not g_example:
            g.add_argument("-o", "--output", help="output file (default stdout)")

    chk = sub.add_parser("check", help="check compatibility notions for a product file")
    chk.add_argument("algebra")
    chk.add_argument("product")
    chk.add_argument("--kinds", required=True, help="comma-separated notion names")
    chk.add_argument("--machine", action="store_true")

    slv = sub.add_parser("solve", help="solve for the full space of one notion")
    slv.add_argument("algebra")
    slv.add_argument("--kind", required=True)
    slv.add_argument("--machine", action="store_true")

    inv = sub.add_parser("invariants", help="structural invariants of an algebra file")
    inv.add_argument("algebra")
    inv.add_argument("--machine", action="store_true")

    free = sub.add_parser("free", help="free-algebra star map tools")
    free_sub = free.add_subparsers(dest="free_cmd", required=True)
    f_check = free_sub.add_parser("check-star", help="check the extension condition")
    f_check.add_argument("starmap")
    f_ext = free_sub.add_parser("extend", help="evaluate the extended product on words")
    f_ext.add_argument("starmap")
    f_ext.add_argument("--left", required=True)
    f_ext.add_argument("--right", required=True)
    f_ver = free_sub.add_parser("verify", help="truncated identity verification")
    f_ver.add_argument("starmap")
    f_ver.add_argument("--degree", type=int, help="default: max star image degree + 3")
    f_cen = free_sub.add_parser("centroid-dim", help="truncated centroid dimension")
    f_cen.add_argument("--mode", required=True, choices=["nc", "commutative"])
    f_cen.add_argument("--vars", required=True, help="variable letters, e.g. xy")
    f_cen.add_argument("--degree", type=int, required=True)
    f_cen.add_argument("--field", default="Q")
    for f in (f_check, f_ext, f_ver, f_cen):
        f.add_argument("--machine", action="store_true")

    pap = sub.add_parser("paper", help="run the classification verification suite")
    pap.add_argument("--only", help="run a single suite entry by id")
    pap.add_argument("--workers", type=int, default=1)
    pap.add_argument("--machine", action="store_true")

    return parser


_COMMANDS = {
    "gen": _cmd_gen,
    "check": _cmd_check,
    "solve": _cmd_solve,
    "invariants": _cmd_invariants,
    "free": _cmd_free,
    "paper": _cmd_paper,
}


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except (
        NonAssociativeError,
        ConditionNotVerifiedError,
        NonzeroConstantTermError,
        NotInCentroidError,
        NotInAnnihilatorError,
    ) as exc:
        print(f"precondition violated: {exc}", file=sys.stderr)
        return EXIT_PRECONDITION
    except (ShapeMismatchError, FieldMismatchError, AlphabetMismatchError) as exc:
        print(f"shape/field mismatch: {exc}", file=sys.stderr)
        return EXIT_SHAPE
    except (FileFormatError, FreeAlgebraError, AlgebraError, LinalgError) as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
