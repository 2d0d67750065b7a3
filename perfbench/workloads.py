"""The benchmark's workloads: inputs made from a seed, the timed ops, and the checks.

Every workload is built in `build()` (set-up, untimed) and returns a
`Workload`: a list of ops, each a call into the library plus an independent
check of its answer.  `run_pass` is the timed region; `verify` runs after it.
"""

from __future__ import annotations

import contextlib
import dataclasses
import io
import random
from pathlib import Path

from bicompat import algebra, cli, compat, freealg
from bicompat.algebra import Endomorphism, Product, centroid, transport_product
from bicompat.builders import (
    BandSpec,
    QuiverSpec,
    centroid_product,
    direct_sum,
    example_3dim,
    example_6dim,
    matrix_algebra,
    mutation,
    path_algebra,
    rectangular_band_algebra,
)
from bicompat.compat import Kind
from bicompat.freealg import NCPoly, concat_star, left_zero_star, mutation_star
from bicompat.linalg import GF, QQ, Matrix

import oracle
from tracer import replace_everywhere

GOLDEN = Path(__file__).resolve().parent / "golden" / "paper_machine.jsonl"
CONTROL_PRIME = 32003  # word-sized F_p for the rebased control queries
SHORT_HEIGHT = 2**10  # answers below this height are "short"
TALL_HEIGHT = 2**12  # answers at or above this height are "tall"
TALL_STREAM = 20250207  # fixed seed of the tall query, the same in every run
DRAW_BATCH = 12  # base changes scored per batch in _draw
MAX_BATCHES = 1000


@dataclasses.dataclass
class Op:
    group: str  # op family, for the op counts in the provenance record
    call: object  # zero-argument callable into the library
    check: object  # answer -> bool, the independent check
    weight: int = 1  # answers the op produces (paper: one per suite entry)
    failures: object = None  # answer -> failed answers, when weight > 1


@dataclasses.dataclass
class Workload:
    name: str
    ops: list
    fresh_process_per_pass: bool = False

    def run_pass(self):
        """The timed region: every op once, in order.  Exceptions are answers too."""
        answers = []
        for op in self.ops:
            try:
                answers.append(op.call())
            except Exception as exc:  # a raising op is a failed op, not a crash
                answers.append(exc)
        return answers

    def verify(self, answers):
        attempted = failed = 0
        for op, ans in zip(self.ops, answers):
            attempted += op.weight
            if isinstance(ans, Exception):
                failed += op.weight
            elif op.failures is not None:
                failed += op.failures(ans)
            elif not op.check(ans):
                failed += 1
        return attempted, failed

    def op_counts(self):
        counts = {}
        for op in self.ops:
            counts[op.group] = counts.get(op.group, 0) + op.weight
        return counts


# ---------------------------------------------------------------------------
# paper


def paper_ops(workers, smoke):
    golden = GOLDEN.read_text().splitlines(keepends=True)
    argv = ["paper", "--machine"]
    if workers != 1:
        argv += ["--workers", str(workers)]
    if smoke:
        argv += ["--only", "example-3dim"]
        golden = [line for line in golden if '"id":"example-3dim"' in line]

    def call():
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = cli.main(argv)
        return code, out.getvalue()

    def failures(answer):
        code, text = answer
        if code != 0:
            return len(golden)
        got = text.splitlines(keepends=True)
        bad = sum(1 for i, line in enumerate(golden) if i >= len(got) or got[i] != line)
        return bad + max(0, len(got) - len(golden))

    return [Op("paper.entry", call, None, weight=len(golden), failures=failures)]


# ---------------------------------------------------------------------------
# rebased


def rand_invertible(rng, n):
    """Lower unitriangular x upper unitriangular x permutation, entries -3..3."""
    low = [[1 if i == j else (rng.randrange(-3, 4) if i > j else 0) for j in range(n)] for i in range(n)]
    up = [[1 if i == j else (rng.randrange(-3, 4) if i < j else 0) for j in range(n)] for i in range(n)]
    perm = list(range(n))
    rng.shuffle(perm)
    lu = [[sum(low[i][m] * up[m][j] for m in range(n)) for j in range(n)] for i in range(n)]
    return [[lu[i][perm.index(j)] for j in range(n)] for i in range(n)]


def rebased_algebras(field, smoke):
    algs = [
        ("3dim", example_3dim(field)[0]),
        ("band1x3", rectangular_band_algebra(BandSpec(1, 3), field)),
        ("M1^3", direct_sum([matrix_algebra(1, field)] * 3)),
        ("A2-path", path_algebra(QuiverSpec(2, [(0, 1)]), field)),
        ("M2", matrix_algebra(2, field)),
        ("band2x2", rectangular_band_algebra(BandSpec(2, 2), field)),
    ]
    return [algs[0], algs[4]] if smoke else algs


REBASED_KINDS = (Kind.ID_MATCHING, Kind.SWAP_MATCHING, Kind.TOTALLY_COMPATIBLE)


def _draw(rng, alg, kind, ok, refs):
    """First seeded base change whose answer's height passes `ok`.

    Candidates are scored a whole batch at a time, so that the set-up work
    is the same for nearly every seed; only when a batch holds no passing
    candidate is another one drawn.
    """
    if kind not in refs:
        refs[kind] = compat.solve_linear(kind, alg.dot).space.basis
    ref = refs[kind]
    for _ in range(MAX_BATCHES):
        batch = [rand_invertible(rng, alg.dim) for _ in range(DRAW_BATCH)]
        passing = [g for g in batch if ok(oracle.height(oracle.transport(ref, alg.dim, g, None)))]
        if passing:
            return passing[0]
    raise RuntimeError(f"no base change of dim {alg.dim} gives the wanted {kind.value} height")


def rebased_ops(seed, smoke):
    """solve_linear on base-changed builder algebras, over Q and over F_p.

    Each algebra gets, per kind, a seeded base change whose answer is short
    (canonical basis height below 2^10).  On top comes one base change of M2
    with a tall id-matching answer (height at least 2^12), which the
    single-prime lift cannot reconstruct.  This one slow query takes about
    half a pass, so it is drawn from a fixed stream: with seeded tall
    answers, the seed alone would move the pass time by more than the bound
    on wall_s.
    """
    rng = random.Random(seed)
    tall_rng = random.Random(TALL_STREAM)
    fp = GF(CONTROL_PRIME)
    queries = []  # (algebra over Q, algebra over F_p, kind, g)
    for (name, alg), (_, alg_p) in zip(rebased_algebras(QQ, smoke), rebased_algebras(fp, smoke)):
        refs = {}  # kind -> standard-basis answer
        for kind in REBASED_KINDS:
            queries.append((alg, alg_p, kind, _draw(rng, alg, kind, lambda h: h < SHORT_HEIGHT, refs)))
        if name == "M2":
            g = _draw(tall_rng, alg, Kind.ID_MATCHING, lambda h: h >= TALL_HEIGHT, refs)
            queries.append((alg, alg_p, Kind.ID_MATCHING, g))

    ops = []
    references = {}
    for alg, alg_p, kind, g in queries:
        for a in (alg, alg_p):
            dot = transport_product(a.dot, Matrix(a.field, [[a.field.coerce(x) for x in row] for row in g]))
            group = "rebased.solve_linear." + ("Q" if a.field == QQ else "Fp")
            ops.append(Op(group, _solve_call(kind, dot), _rebased_check(a, kind, g, dot, references)))
    return ops


def _solve_call(kind, dot):
    return lambda: compat.solve_linear(kind, dot)


def _satisfies(kind, flat, n, field, base):
    return oracle.check_report(kind.value, oracle.Dense(Product.from_flat(n, field, list(flat))), base)[0]


def _reference(alg, kind, references):
    """Standard-basis solution space, checked against the dense evaluator.

    Every member must satisfy the notion, and the dimension must equal the
    one the dense system in the n^3 unknowns gives, so that a solver that
    loses the same dimension on every basis is caught too.
    """
    key = (id(alg), kind)
    if key not in references:
        basis = compat.solve_linear(kind, alg.dot).space.basis
        std = oracle.Dense(alg.dot)
        ok = len(basis) == oracle.solution_dim(kind.value, std)
        ok = ok and all(_satisfies(kind, v, alg.dim, alg.field, std) for v in basis)
        references[key] = basis if ok else None
    return references[key]


def _rebased_check(alg, kind, g, dot, references):
    """The answer equals the standard-basis space carried through the base change."""
    p = oracle.modulus(alg.field)
    n = alg.dim

    def check(ps):
        ref = _reference(alg, kind, references)
        if ref is None:
            return False
        moved = oracle.transport(ref, n, g, p)
        got = list(ps.space.basis)
        if len(got) != len(ref) or (got and not oracle.same_span(got, moved, p)):
            return False
        base = oracle.Dense(dot)
        return all(_satisfies(kind, v, n, alg.field, base) for v in got)

    return check


# ---------------------------------------------------------------------------
# check


# Star coefficients are drawn without 0, so a star's support, and with it
# the cost of checking it, does not depend on the seed.
NONZERO = (-3, -2, -1, 1, 2, 3)


def _random_vector(rng, field, n):
    return [field.coerce(rng.choice(NONZERO)) for _ in range(n)]


def _perturbed(rng, prod):
    n, f = prod.dim, prod.field
    flat = list(prod.flatten())
    idx = rng.randrange(n**3)
    flat[idx] = f.add(flat[idx], f.coerce(rng.choice(NONZERO)))
    return Product.from_flat(n, f, flat)


def _combination(rng, space, field):
    """A seeded member of a subspace, every basis coefficient nonzero."""
    flat = [field.zero] * space.ambient_dim
    for row in space.basis:
        c = field.coerce(rng.choice(NONZERO))
        flat = [field.add(a, field.mul(c, b)) for a, b in zip(flat, row)]
    return flat


def _member(rng, space, n, field):
    return Product.from_flat(n, field, _combination(rng, space, field))


def check_ops(seed, smoke):
    """Decide notions without solving: checkers, audits, member certification, free algebra."""
    rng = random.Random(seed)
    band = BandSpec(2, 2) if smoke else BandSpec(3, 3)
    b = rectangular_band_algebra(band, QQ)
    e6, s6 = example_6dim(QQ)
    algebras = [("band", b), ("A3-path", path_algebra(QuiverSpec(3, [(0, 1), (1, 2)]), QQ)), ("6dim", e6)]
    if not smoke:
        algebras.insert(1, ("M3/F5", matrix_algebra(3, GF(5))))
    swap = compat.solve_linear(Kind.SWAP_MATCHING, b.dot)

    ops = []
    for name, alg in algebras:
        f, n = alg.field, alg.dim
        cen = centroid(alg.dot)
        holding = [mutation(alg.dot, _random_vector(rng, f, n)) for _ in range(2)]
        for _ in range(2):
            phi = Endomorphism.from_flat(f, n, _combination(rng, cen, f))
            holding.append(centroid_product(alg.dot, phi, cen))
        if name == "band":
            holding += [_member(rng, swap.space, n, f) for _ in range(2)]
        if name == "6dim":
            holding.append(s6)
        candidates = holding + [_perturbed(rng, c) for c in holding]
        dot = oracle.Dense(alg.dot)
        for star in candidates:
            ops += _candidate_ops(star, alg.dot, dot)

    ops.append(
        Op(
            "check.all_members_associative",
            lambda: compat.all_members_associative(swap),
            lambda cert: (cert.status == "pass")
            == oracle.all_members_associative(swap.basis_products(), None),
        )
    )
    degree = 6 if smoke else 10
    X = ("x", "y")
    stars = [
        lambda: concat_star(QQ, X),
        lambda: left_zero_star(QQ, X),
        lambda: mutation_star(QQ, X, NCPoly(QQ, X, {"xy": 1})),
    ]
    for make in stars:
        ops.append(Op("check.freealg.verify_id_matching_truncated", _free_call(make, degree, None), _is_none))
    ops.append(
        Op(
            "check.freealg.identity_witness_truncated",
            _free_call(stars[0], degree, "totally-compatible"),
            _is_none,
        )
    )
    return ops


def _is_none(answer):
    return answer is None


def _free_call(make, degree, family):
    """verify_id_matching_truncated, or identity_witness_truncated for `family`."""

    def call():
        # A new star map per call: StarMap memoizes its extension-condition verdict.
        sm = make()
        if family is None:
            return freealg.verify_id_matching_truncated(sm, degree)
        return freealg.identity_witness_truncated(sm, family, degree)

    return call


def _candidate_ops(star, base, dot):
    s = oracle.Dense(star)
    ops = []
    for kind in Kind:
        ops.append(
            Op(
                "check.check",
                (lambda k=kind: compat.check(k, star, base)),
                (lambda r, k=kind: oracle.report_matches(r, k.value, s, dot)),
            )
        )
    assoc = oracle.associativity_witness(s) is None
    ops.append(Op("check.is_associative", lambda: algebra.is_associative(star), lambda r: r == assoc))
    if assoc:
        ops.append(
            Op(
                "check.remark13_audit",
                lambda: compat.remark13_audit(star, base),
                lambda audit: oracle.audit_matches(audit, s, dot),
            )
        )
    return ops


# ---------------------------------------------------------------------------


def build(name, seed, *, smoke=False, paper_workers=1):
    if name == "paper":
        return Workload(name, paper_ops(paper_workers, smoke), fresh_process_per_pass=True)
    if name == "rebased":
        return Workload(name, rebased_ops(seed, smoke))
    if name == "check":
        return Workload(name, check_ops(seed, smoke))
    raise ValueError(f"unknown workload {name!r}")


def _tamper(original, tamper, every=False):
    """Rebind `original` everywhere so that its first answer, or every one, goes through `tamper`."""
    calls = []

    def wrapper(*args):
        answer = original(*args)
        calls.append(None)
        return tamper(args, answer) if every or len(calls) == 1 else answer

    replace_everywhere(original, wrapper)


def _extra_or_missing_vector(args, ps):
    """The space with its first basis vector dropped, or e_0 added to a zero space."""
    field, space = args[1].field, ps.space
    basis = [list(v) for v in space.basis][1:]
    if not space.basis:
        basis = [[field.one] + [field.zero] * (space.ambient_dim - 1)]
    return dataclasses.replace(ps, space=type(space)(field, space.ambient_dim, basis))


def _empty(args, ps):
    """The zero space in place of the answer."""
    space = ps.space
    return dataclasses.replace(ps, space=type(space)(args[1].field, space.ambient_dim, []))


def inject(fault):
    """Self-test faults: a solver whose first answer is perturbed, a solver
    that answers the zero space every time (so that standard-basis and
    rebased answers still agree with each other), or a checker whose first
    verdict is flipped.  Each must make the checks fail."""
    if fault == "solver":
        _tamper(compat.solve_linear, _extra_or_missing_vector)
    elif fault == "solver-empty":
        _tamper(compat.solve_linear, _empty, every=True)
    elif fault == "checker":
        _tamper(compat.check, lambda args, report: dataclasses.replace(report, holds=not report.holds))
    else:
        raise ValueError(f"unknown fault {fault!r}")
