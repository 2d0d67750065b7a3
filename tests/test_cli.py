import contextlib
import hashlib
import io
import json
import subprocess
import sys
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bicompat.algebra import algebra_from_json, algebra_to_json, product_from_json, product_to_json
from bicompat.builders import BandSpec, QuiverSpec, example_3dim, path_algebra, rectangular_band_algebra, zero_algebra
from bicompat.cli import main
from bicompat.compat import MAX_UNKNOWNS
from bicompat.freealg import starmap_from_json
from bicompat.linalg import QQ


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.fixture()
def example_files(tmp_path):
    alg, star, star2 = example_3dim()
    paths = {}
    for name, doc in (
        ("algebra", algebra_to_json(alg)),
        ("star", product_to_json(star)),
        ("star2", product_to_json(star2)),
    ):
        p = tmp_path / f"ex3.{name}.json"
        p.write_text(json.dumps(doc))
        paths[name] = str(p)
    return paths


def test_gen_band_roundtrip(tmp_path, capsys):
    out = tmp_path / "band.json"
    code, _, _ = run_cli(capsys, "gen", "band", "--rows", "2", "--cols", "2", "-o", str(out))
    assert code == 0
    alg = algebra_from_json(json.loads(out.read_text()))
    assert alg == rectangular_band_algebra(BandSpec(2, 2))


def test_gen_matrix_stdout(capsys):
    code, out, _ = run_cli(capsys, "gen", "matrix", "--n", "2", "--field", "F3")
    assert code == 0
    doc = json.loads(out)
    assert doc["dim"] == 4 and doc["field"] == {"Fp": 3}


def test_gen_path(tmp_path, capsys):
    quiver = tmp_path / "quiver.json"
    quiver.write_text(json.dumps({"vertices": 3, "arrows": [[0, 1], [1, 2]]}))
    code, out, _ = run_cli(capsys, "gen", "path", "--quiver", str(quiver))
    assert code == 0
    alg = algebra_from_json(json.loads(out))
    assert alg == path_algebra(QuiverSpec(3, [(0, 1), (1, 2)]))


# sha256 prefixes of each example's files (algebra, star, star2 in that order), as recorded
# before example_band22 was built through band_swap_matching
GEN_EXAMPLE_SHA256 = {
    ("3dim", "Q"): "835a329d6cd4edc7",
    ("3dim", "F2"): "bf8720da4aa349ce",
    ("3dim", "F5"): "96d4419e7727119d",
    ("6dim", "Q"): "0c8d1b0abe2a41ec",
    ("6dim", "F2"): "0c052e02fb506e7e",
    ("6dim", "F5"): "b4c601752840dc00",
    ("band22", "Q"): "d4155fbfb58aa28d",
    ("band22", "F2"): "f153417fad9dfa46",
    ("band22", "F5"): "e02def541a9f3757",
}


def test_gen_example_files(tmp_path, capsys):
    prefix = str(tmp_path / "ex")
    code, _, _ = run_cli(capsys, "gen", "example", "--name", "3dim", "--prefix", prefix)
    assert code == 0
    for part in ("algebra", "star", "star2"):
        assert (tmp_path / f"ex.{part}.json").exists()
    for (name, field), digest in GEN_EXAMPLE_SHA256.items():
        prefix = tmp_path / f"{name}-{field}"
        code, _, _ = run_cli(capsys, "gen", "example", "--name", name, "--field", field, "--prefix", str(prefix))
        parts = [tmp_path / f"{prefix.name}.{part}.json" for part in ("algebra", "star", "star2")]
        data = b"".join(path.read_bytes() for path in parts if path.exists())
        assert code == 0 and hashlib.sha256(data).hexdigest()[:16] == digest, (name, field)


def test_gen_unwritable_output_exit_two(tmp_path, capsys):
    missing = tmp_path / "missing" / "x"
    for argv in (
        ("gen", "band", "--rows", "2", "--cols", "2", "-o", f"{missing}.json"),
        ("gen", "example", "--name", "3dim", "--prefix", str(missing)),
    ):
        code, _, err = run_cli(capsys, *argv)
        assert code == 2 and "input error" in err, argv


def test_check_holds_exit_zero(example_files, capsys):
    code, out, _ = run_cli(
        capsys, "check", example_files["algebra"], example_files["star"], "--kinds", "swap-matching"
    )
    assert code == 0
    assert "holds" in out


def test_check_fails_exit_one_with_witness(example_files, capsys):
    code, out, _ = run_cli(
        capsys,
        "check",
        example_files["algebra"],
        example_files["star"],
        "--kinds",
        "id-matching,swap-matching",
    )
    assert code == 1
    assert "FAILS" in out and "e1" in out


def test_check_machine_output(example_files, capsys):
    code, out, _ = run_cli(
        capsys,
        "check",
        example_files["algebra"],
        example_files["star"],
        "--kinds",
        "swap-matching",
        "--machine",
    )
    assert code == 0
    doc = json.loads(out.strip())
    assert doc == {"kind": "swap-matching", "holds": True, "witness": None}


def test_check_malformed_file_exit_two(tmp_path, example_files, capsys):
    bad = tmp_path / "bad.json"
    # not JSON, not UTF-8, nested too deep, an integer past the digit limit
    for data in (b"{nope", b'{"dim": "\xff"}', b"[" * 100000, b'{"dim": ' + b"9" * 5000 + b"}"):
        bad.write_bytes(data)
        code, _, err = run_cli(capsys, "check", str(bad), example_files["star"], "--kinds", "compatible")
        assert code == 2 and "input error" in err, data[:16]
        assert "Traceback" not in err


@pytest.mark.parametrize(
    "doc",
    [
        {"dim": 1, "field": "Q", "table": [[0, 0, 0, "1/0"]]},
        {"dim": True, "field": "Q", "table": [[0, 0, 0, "1"]]},
        {"dim": 2, "field": "Q", "table": [[True, 0, 0, "1"]]},
        {"dim": 2**127 - 1, "field": "Q", "table": []},
    ],
    ids=["zero-denominator", "bool-dim", "bool-index", "huge-dim"],
)
def test_invariants_malformed_algebra_exit_two(tmp_path, capsys, doc):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    code, _, err = run_cli(capsys, "invariants", str(path))
    assert code == 2 and "input error" in err
    assert "Traceback" not in err


def test_check_unknown_kind_exit_two(example_files, capsys):
    code, _, err = run_cli(
        capsys, "check", example_files["algebra"], example_files["star"], "--kinds", "sideways"
    )
    assert code == 2


def test_check_dimension_mismatch_exit_three(tmp_path, example_files, capsys):
    band = tmp_path / "band.json"
    band.write_text(json.dumps(algebra_to_json(rectangular_band_algebra(BandSpec(2, 2)))))
    code, _, err = run_cli(
        capsys, "check", str(band), example_files["star"], "--kinds", "compatible"
    )
    assert code == 3 and "mismatch" in err


def test_check_field_mismatch_exit_three(tmp_path, example_files, capsys):
    alg3 = json.loads((open(example_files["algebra"]).read()))
    alg3["field"] = {"Fp": 5}
    other = tmp_path / "mod5.json"
    other.write_text(json.dumps(alg3))
    code, _, _ = run_cli(capsys, "check", str(other), example_files["star"], "--kinds", "compatible")
    assert code == 3


def test_check_nonassociative_base_exit_four(tmp_path, example_files, capsys):
    doc = {
        "dim": 2,
        "field": "Q",
        "labels": ["a", "b"],
        "table": [[0, 0, 1, "1"], [1, 0, 0, "1"]],
    }
    bad = tmp_path / "nonassoc.json"
    bad.write_text(json.dumps(doc))
    code, _, err = run_cli(capsys, "check", str(bad), example_files["star"], "--kinds", "compatible")
    assert code == 4 and "precondition" in err


def test_solve_band_dimensions(tmp_path, capsys):
    band = tmp_path / "band.json"
    band.write_text(json.dumps(algebra_to_json(rectangular_band_algebra(BandSpec(2, 2)))))
    code, out, _ = run_cli(capsys, "solve", str(band), "--kind", "id-matching", "--machine")
    assert code == 0
    doc = json.loads(out.strip())
    assert doc["dimension"] == 4
    code, out, _ = run_cli(capsys, "solve", str(band), "--kind", "totally-compatible", "--machine")
    assert json.loads(out.strip())["dimension"] == 1


def test_solve_matrix_swap_dimension(tmp_path, capsys):
    from bicompat.builders import matrix_algebra

    m2 = tmp_path / "m2.json"
    m2.write_text(json.dumps(algebra_to_json(matrix_algebra(2, QQ))))
    code, out, _ = run_cli(capsys, "solve", str(m2), "--kind", "swap-matching", "--machine")
    assert code == 0
    assert json.loads(out.strip())["dimension"] == 1


def test_solve_over_budget_exit_two(tmp_path, capsys):
    path = tmp_path / "zero17.json"
    path.write_text(json.dumps(algebra_to_json(zero_algebra(17, QQ))))
    start = time.perf_counter()
    code, _, err = run_cli(capsys, "solve", str(path), "--kind", "compatible")
    assert time.perf_counter() - start < 1.0
    assert code == 2 and "input error" in err
    assert f"budget of {MAX_UNKNOWNS}" in err


def test_invariants_matrix_unit(tmp_path, capsys):
    from bicompat.builders import matrix_algebra

    m2 = tmp_path / "m2.json"
    m2.write_text(json.dumps(algebra_to_json(matrix_algebra(2, QQ))))
    code, out, _ = run_cli(capsys, "invariants", str(m2), "--machine")
    doc = json.loads(out.strip())
    assert doc["two_sided_unit"] == {"particular": ["1", "0", "0", "1"], "affine_dim": 0}


def test_invariants_band(tmp_path, capsys):
    band = tmp_path / "band.json"
    band.write_text(json.dumps(algebra_to_json(rectangular_band_algebra(BandSpec(2, 2)))))
    code, out, _ = run_cli(capsys, "invariants", str(band), "--machine")
    assert code == 0
    doc = json.loads(out.strip())
    assert doc["associative"] is True
    assert doc["annihilator_dim"] == 1
    assert doc["centroid_dim"] == 1
    assert doc["two_sided_unit"] is None


def test_invariants_zero_algebra(tmp_path, capsys):
    doc = {"dim": 2, "field": "Q", "labels": ["u", "v"], "table": []}
    zf = tmp_path / "zero.json"
    zf.write_text(json.dumps(doc))
    code, out, _ = run_cli(capsys, "invariants", str(zf), "--machine")
    report = json.loads(out.strip())
    assert report["annihilator_dim"] == 2 and report["idempotent"] is False


def test_free_workflow(tmp_path, capsys):
    star = {
        "field": "Q",
        "vars": ["x", "y"],
        "table": {
            "x,x": [["x", "1"]],
            "x,y": [["x", "1"]],
            "y,x": [["y", "1"]],
            "y,y": [["y", "1"]],
        },
    }
    sf = tmp_path / "star.json"
    sf.write_text(json.dumps(star))
    code, out, _ = run_cli(capsys, "free", "check-star", str(sf))
    assert code == 0 and "holds" in out
    code, out, _ = run_cli(capsys, "free", "extend", str(sf), "--left", "yx", "--right", "yx")
    assert code == 0 and "yxx" in out
    code, out, _ = run_cli(capsys, "free", "verify", str(sf), "--degree", "4", "--machine")
    assert code == 0 and json.loads(out.strip())["verified"] is True
    code, out, _ = run_cli(
        capsys, "free", "centroid-dim", "--mode", "commutative", "--vars", "x", "--degree", "3"
    )
    assert code == 0 and out.strip().endswith("3")


def test_free_verify_degree_and_letter_budgets(tmp_path, capsys):
    star = {"field": "Q", "vars": ["x", "y"], "table": {"x,y": [["xy", "1"]], "y,x": [["yx", "1"]]}}
    sf = tmp_path / "star.json"
    sf.write_text(json.dumps(star))
    code, out, _ = run_cli(capsys, "free", "verify", str(sf), "--degree", "5", "--machine")
    assert code == 0 and json.loads(out.strip())["verified"] is True
    # without --degree the degree is max image degree + 3, the least that checks a word triple
    code, out, _ = run_cli(capsys, "free", "verify", str(sf), "--machine")
    assert code == 0 and json.loads(out.strip()) == {"degree": 5, "verified": True}
    # degree - max image degree < 3 checks no word triple
    for degree in ("4", "0"):
        code, out, err = run_cli(capsys, "free", "verify", str(sf), "--degree", degree)
        assert code == 2 and "at least 5" in err and out == ""
    # the letter triples decide every degree, so a large one is answered at once
    start = time.perf_counter()
    code, out, _ = run_cli(capsys, "free", "verify", str(sf), "--degree", "40", "--machine")
    assert code == 0 and json.loads(out.strip()) == {"degree": 40, "verified": True}
    assert time.perf_counter() - start < 1.0
    letters = [chr(ord("A") + i) for i in range(33)]
    sf.write_text(json.dumps({"field": "Q", "vars": letters, "table": {}}))
    for cmd in ("check-star", "verify"):
        code, _, err = run_cli(capsys, "free", cmd, str(sf))
        assert code == 2 and "at most 32" in err


def test_free_centroid_dim_budget(capsys):
    many = "".join(chr(ord("A") + i) for i in range(32))
    for mode, letters, degree in (("nc", "xy", "40"), ("nc", many, "3"), ("commutative", many, "3")):
        start = time.perf_counter()
        argv = ("free", "centroid-dim", "--mode", mode, "--vars", letters, "--degree", degree)
        code, out, err = run_cli(capsys, *argv)
        assert code == 2 and "over 64 words or monomials" in err and out == ""
        assert time.perf_counter() - start < 1.0
    argv = ("free", "centroid-dim", "--mode", "nc", "--vars", "xy", "--degree", "3", "--machine")
    code, out, _ = run_cli(capsys, *argv)
    assert code == 0 and json.loads(out.strip())["dim"] == 17


def test_free_failing_star_exit_one(tmp_path, capsys):
    star = {"field": "Q", "vars": ["x", "y"], "table": {"x,y": [["x", "1"]]}}
    sf = tmp_path / "bad_star.json"
    sf.write_text(json.dumps(star))
    code, out, _ = run_cli(capsys, "free", "check-star", str(sf))
    assert code == 1 and "FAILS" in out


def test_paper_single_entry(capsys):
    code, out, _ = run_cli(capsys, "paper", "--only", "example-3dim", "--machine")
    assert code == 0
    doc = json.loads(out.strip())
    assert doc["id"] == "example-3dim" and doc["ok"] is True


def test_paper_unknown_entry_exit_two(capsys):
    code, _, err = run_cli(capsys, "paper", "--only", "nope")
    assert code == 2 and "known entries" in err


def test_console_script_installed():
    proc = subprocess.run(
        [sys.executable, "-m", "bicompat.cli", "paper", "--only", "lemma-4.4", "--machine"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout.strip())["ok"] is True


# -- fuzzed documents: every exit is a contract code, never a traceback -----

_JSON = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 6) | st.floats(allow_nan=False) | st.text(max_size=3),
    lambda kids: st.lists(kids, max_size=3) | st.dictionaries(st.text(max_size=3), kids, max_size=3),
    max_leaves=6,
)
_DROP = object()  # spoils a document by deleting the key or item
_BAD = {
    str: st.sampled_from(["1/0", "-3/00", "1/-2", "2.5", "x", "", "F5", "x,z"]),
    int: st.sampled_from([-1, 0, 3, 2**127 - 1, True, 1.0, "0", None]),
}


def _coeff(field):
    """Strings of the coefficient syntax, zero denominators included."""
    den = st.none() | (st.integers(0, 4) if field == "Q" else st.nothing())
    return st.builds(lambda a, b: str(a) if b is None else f"{a}/{b}", st.integers(-99, 99), den)


def _paths(doc, prefix=()):
    yield prefix
    items = doc.items() if isinstance(doc, dict) else enumerate(doc) if isinstance(doc, list) else ()
    for key, value in items:
        yield from _paths(value, prefix + (key,))


@st.composite
def _spoiled(draw, doc):
    """doc as it is, or with one value in it (the whole, a key, an item) replaced
    by junk, mostly junk of the same type."""
    paths = list(_paths(doc))
    path = draw(st.sampled_from([None] * 2 * len(paths) + paths))
    if path is None:
        return doc
    parent, old = None, doc
    for key in path:
        parent, old = old, old[key]
    bad = _BAD.get(type(old), _JSON)
    junk = draw(st.sampled_from([bad, bad, bad, bad, _JSON, st.just(_DROP)]).flatmap(lambda junk: junk))
    if parent is None:
        return None if junk is _DROP else junk
    if junk is _DROP:
        del parent[key]
    else:
        parent[key] = junk
    return doc


@st.composite
def _tensor_doc(draw, key, dim, field):
    """An algebra ("table") or product ("product") document, valid or spoiled in one place."""
    index = st.integers(0, dim - 1)
    doc = {
        "dim": dim,
        "field": field,
        key: draw(
            st.lists(st.tuples(index, index, index, _coeff(field)).map(list), max_size=6)
            | st.just(algebra_to_json(rectangular_band_algebra(BandSpec(1, dim)))["table"])
        ),
    }
    if draw(st.booleans()):
        doc["labels"] = [f"b{i}" for i in range(dim)]
    return draw(_spoiled(doc))


@st.composite
def _starmap_doc(draw):
    word = st.sampled_from(["x", "y", "xy", "yx", "xyx", ""])
    keys = draw(st.lists(st.sampled_from(["x,y", "x,x", "y,x", "y,y"]), max_size=4, unique=True))
    field = draw(st.sampled_from(["Q", {"Fp": 3}]))
    doc = {
        "field": field,
        "vars": ["x", "y"],
        "table": {key: draw(st.lists(st.tuples(word, _coeff(field)).map(list), max_size=3)) for key in keys},
    }
    return draw(_spoiled(doc))


@st.composite
def _quiver_doc(draw):
    """A quiver document, valid or spoiled in one place: a few arrows (cycles and
    out-of-range targets included), or a chain of m-fold arrows, whose paths
    grow as m^length."""
    n = draw(st.integers(1, 12))
    vertex = st.integers(0, n - 1)
    arrow = st.tuples(vertex, vertex).map(lambda p: [min(p), max(p) + 1]) | st.tuples(vertex, vertex).map(list)
    chain = st.integers(1, 4).map(lambda m: [[i, i + 1] for i in range(n - 1)] * m)
    return draw(_spoiled({"vertices": n, "arrows": draw(st.lists(arrow, max_size=8) | chain)}))


_KINDS = st.sampled_from(["compatible", "id-matching,swap-matching", "totally-compatible", "swap-matching", "nope"])


def _parses(load, doc):
    try:
        load(doc)
    except Exception:
        return False
    return True


# Refusals come before any work: an input error exits within this many seconds.
REFUSAL_S = 1.0

# Degree caps for the free commands, each tried on every drawn input.  Caps up
# to 6 run admitted centroid-dim calls that stay cheap, and every cap from 65 up
# is over MAX_CENTROID_CARRIER, so those inputs must be refused quickly.  verify
# decides every cap on the letter triples, so it must answer every cap quickly.
_CAPS = (-1, 0, 2, 3, 4, 6, 65, 10**6, 10**12)
# gen's --n, --rows and --cols: every size whose algebra is over MAX_DIM is refused quickly
_SIZES = (-1, 0, 1, 5, 6, 33, 10**6)
# centroid-dim's --mode, --vars and --field
_CENTROID_ARGS = st.tuples(
    st.sampled_from(["nc", "commutative"]),
    st.sampled_from(["xy", "x", "xyz", "xx", ""]),
    st.sampled_from(["Q", "F5", "F4"]),
)


@settings(derandomize=True, deadline=None, max_examples=210)
@given(
    data=st.data(),
    command=st.sampled_from(
        ["check", "solve", "invariants", "check-star", "verify", "verify-degree", "centroid-dim"]
        + ["gen-size", "gen-path"]
    ),
    kinds=_KINDS,
    machine=st.booleans(),
)
def test_fuzzed_documents_exit_by_contract(tmp_path_factory, data, command, kinds, machine):
    dim = data.draw(st.integers(1, 3))
    field = data.draw(st.sampled_from(["Q", {"Fp": 2}, {"Fp": 5}]))
    docs = {
        "algebra": data.draw(_tensor_doc("table", dim, field)),
        "product": data.draw(_tensor_doc("product", dim, field)),
        "starmap": data.draw(_starmap_doc()),
    }
    if command == "gen-path":
        docs["quiver"] = data.draw(_quiver_doc())
    tmp = tmp_path_factory.mktemp("fuzz")
    paths = {}
    for name, doc in docs.items():
        paths[name] = str(tmp / f"{name}.json")
        with open(paths[name], "w", encoding="utf-8") as fh:
            json.dump(doc, fh)
    if command == "verify-degree":
        argvs = [["free", "verify", paths["starmap"], "--degree", str(cap)] for cap in _CAPS]
    elif command == "centroid-dim":
        mode, letters, fname = data.draw(_CENTROID_ARGS)
        argvs = [
            ["free", "centroid-dim", "--mode", mode, "--vars", letters, "--degree", str(cap), "--field", fname]
            for cap in _CAPS
        ]
    elif command == "gen-size":
        cols = str(data.draw(st.sampled_from(_SIZES)))
        argvs = [
            argv
            for size in map(str, _SIZES)
            for argv in (["gen", "matrix", "--n", size], ["gen", "band", "--rows", size, "--cols", cols])
        ]
    else:
        argvs = [
            {
                "check": ["check", paths["algebra"], paths["product"], "--kinds", kinds],
                "solve": ["solve", paths["algebra"], "--kind", kinds],
                "invariants": ["invariants", paths["algebra"]],
                "check-star": ["free", "check-star", paths["starmap"]],
                "verify": ["free", "verify", paths["starmap"]],
                "gen-path": ["gen", "path", "--quiver", paths.get("quiver")],
            }[command]
        ]
    for argv in argvs:
        argv += ["--machine"] if machine and argv[0] != "gen" else []
        err = io.StringIO()
        start = time.perf_counter()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            try:
                code = main(argv)
            except SystemExit as exc:  # argparse usage errors
                code = exc.code
        elapsed = time.perf_counter() - start
        assert code in (0, 1, 2, 3, 4)
        assert "Traceback" not in err.getvalue()
        if code == 2 or command == "verify-degree":
            assert elapsed < REFUSAL_S, (argv, elapsed)
        if code == 1:
            if command == "check":
                assert _parses(algebra_from_json, docs["algebra"]) and _parses(product_from_json, docs["product"])
            else:
                assert command == "check-star"
                assert _parses(starmap_from_json, docs["starmap"])
