import hashlib
import json
import os
import resource
import subprocess
import sys
from pathlib import Path

import pytest
from jsonschema import Draft202012Validator

from indfree import (
    CapacityError,
    DegenerateForbiddenError,
    IndfreeError,
    InfeasibleFamilyError,
    InternalInvariantError,
    ParameterError,
    ParseError,
    RangeError,
    ValidationError,
    complete_graph,
    decode_graph6,
    disjoint_union,
    empty_graph,
    encode_graph6,
    enumerate_nonisomorphic,
    is_isomorphic,
    parse_graph,
    path_graph,
    uep_witness,
)
from indfree.cli import BOUNDS_JSON_CAP, EXIT_CODES, build_parser, main

SCHEMA_DIR = Path(__file__).resolve().parent.parent / "schemas"
SCRIPTS_DIR = Path(__file__).resolve().parent.parent / "scripts"
SRC_DIR = Path(__file__).resolve().parent.parent / "src"
# child interpreters import the package from this checkout's src
CHILD_ENV = {
    **os.environ,
    "PYTHONPATH": os.pathsep.join(filter(None, [str(SRC_DIR), os.environ.get("PYTHONPATH")])),
}


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_parser_is_built_once_and_keeps_no_state(capsys):
    def outcome(argv):
        try:
            code = main(argv)
        except SystemExit as e:
            code = e.code
        captured = capsys.readouterr()
        return code, captured.out, captured.err

    def fresh(argv):
        build_parser.cache_clear()
        return outcome(argv)

    good = ["pairs", "paw", "-n", "6", "--json"]
    bad = ["pairs", "paw", "-n", "six"]
    want_good, want_bad = fresh(good), fresh(bad)
    assert want_good[0] == 0 and want_bad[0] == 2
    assert build_parser() is build_parser()
    assert outcome(good) == want_good
    assert outcome(bad) == want_bad
    assert outcome(good) == want_good


def check_schema(name: str, payload: dict):
    schema = json.loads((SCHEMA_DIR / f"{name}.schema.json").read_text())
    Draft202012Validator(schema).validate(payload)


# classify


def test_classify_paw_human(capsys):
    code, out, _ = run(capsys, "classify", "paw")
    assert code == 0
    assert "Feasible" in out
    assert "H(4,2,0)" in out


def test_classify_diamond_json(capsys):
    code, out, _ = run(capsys, "classify", "diamond", "--json")
    assert code == 0
    data = json.loads(out)
    check_schema("classify", data)
    assert data["verdict"] == "Infeasible"
    assert data["tnf_kind"] == "CliqueMinusEdge"
    assert data["k"] == 4


def test_classify_h_parameter_form(capsys):
    code, out, _ = run(capsys, "classify", "H:3,1,1", "--json")
    assert code == 0
    data = json.loads(out)
    check_schema("classify", data)
    assert data["verdict"] == "Feasible"
    assert data["h"] == {"p": 3, "q": 1, "r": 1}


def test_classify_general_graph(capsys):
    code, out, _ = run(capsys, "classify", "claw", "--json")
    data = json.loads(out)
    check_schema("classify", data)
    assert data["tag"] == "General"
    assert data["h"] is None


def test_classify_edge_list_flag(capsys):
    code, out, _ = run(capsys, "classify", "--edges", "4;0-1,0-2,1-2,0-3")
    assert code == 0
    assert "H(4,2,0)" in out


def test_classify_parse_error_exit(capsys):
    code, _, err = run(capsys, "classify", "no_such_graph_name")
    assert code == 2
    assert "error:" in err


@pytest.mark.parametrize(
    "spec, token, offset",
    [
        ("H:4,X,1", "'X'", 4),
        ("  path:a", "'a'", 7),
        ("H:--4,1,1", "'--4'", 2),
        ("path:²", "'²'", 5),
        ("H:٤,1,1", "'٤'", 2),
        ("3;0-²", "'0-²'", 2),
        ("\u00a0H:4,X,1", "'X'", 6),
        ("H:4,\u00a01,X", "'X'", 8),
        ("3;0-1,\u00a01-2,1-x", "'1-x'", 12),
        ("  A!", "'!'", 3),
    ],
)
def test_classify_parse_error_offset(capsys, spec, token, offset):
    # offsets count UTF-8 bytes of the text as typed, leading blanks
    # included, and the token is quoted as typed
    code, _, err = run(capsys, "classify", spec)
    assert code == 2
    assert token in err
    assert err.rstrip().endswith(f"(at byte {offset})")


# witness


def test_witness_claw_json(capsys):
    code, out, _ = run(capsys, "witness", "claw", "6", "9", "--verify", "--json")
    assert code == 0
    data = json.loads(out)
    check_schema("witness", data)
    assert data["construction"] == "UEP"
    assert data["verified"] is True
    g = decode_graph6(data["graph6"])
    assert g.order == 6 and g.edge_count == 9
    assert is_isomorphic(g, uep_witness(6, 9))


def test_witness_paw_full_clique(capsys):
    code, out, _ = run(capsys, "witness", "paw", "5", "10")
    assert code == 0
    assert decode_graph6(out.splitlines()[0]) == complete_graph(5)


def test_witness_tnf_exit(capsys):
    code, _, err = run(capsys, "witness", "diamond", "5", "4")
    assert code == 5
    assert "CliqueMinusEdge" in err


def test_witness_degenerate_single_vertex_exit(capsys):
    code, _, err = run(capsys, "witness", "complete:1", "5", "4")
    assert code == 5


def test_witness_range_exit(capsys):
    code, _, err = run(capsys, "witness", "paw", "4", "7")
    assert code == 3
    assert "range" in err.lower() or "out of" in err


@pytest.mark.parametrize(
    "n, m, named",
    [
        ("-1", "0", "vertex count must be non-negative, got -1"),
        ("3", "4", "edge count 4"),
        # the range checks come before the cap
        ("65", "-1", "edge count -1"),
    ],
)
def test_witness_range_message_names_bad_argument(capsys, n, m, named):
    code, _, err = run(capsys, "witness", "paw", n, m)
    assert code == 3
    assert named in err


def test_witness_checks_the_cap_before_building():
    # C(n,2) is in range, so only the 64-vertex cap stops this; checked
    # late, the builder counted a clique order up to 2e9 first
    proc = subprocess.run(
        [sys.executable, "-m", "indfree", "witness", "paw", "2000000000", "1999999999000000000"],
        capture_output=True,
        text=True,
        env=CHILD_ENV,
        timeout=20,
    )
    assert proc.returncode == 4
    assert proc.stderr == "error: order 2000000000 exceeds the cap of 64 vertices\n"


@pytest.mark.parametrize(
    "family, order",
    [("path", 10**12), ("cycle", 10**12), ("star", 10**12 + 1), ("matching", 2 * 10**12)],
)
def test_classify_checks_the_family_cap_before_building(family, order):
    # these families once listed their edges before the cap was checked,
    # so under an address-space limit path:30000000 ended in a
    # MemoryError traceback, exit 1
    proc = under_a_memory_limit("classify", f"{family}:{10**12}")
    assert proc.returncode == 4
    assert proc.stderr == f"error: order {order} exceeds the cap of 64 vertices\n"


def test_witness_out_file(capsys, tmp_path):
    target = tmp_path / "wit.json"
    code, out, _ = run(
        capsys, "witness", "paw", "5", "9", "--json", "--out", str(target)
    )
    assert code == 0
    assert out == ""
    data = json.loads(target.read_text())
    check_schema("witness", data)


def test_witness_out_unwritable_exit(capsys, tmp_path):
    target = tmp_path / "missing" / "wit.txt"
    code, out, err = run(capsys, "witness", "claw", "8", "13", "--out", str(target))
    assert code == 8
    assert out == ""
    assert err.startswith("error: ")
    assert not target.exists()


def test_witness_verify_order_64_k3k2(capsys):
    # the host deletes many disjoint edges from a clique, which only
    # block-swap pruning exchanges whole: the verifying miss must still
    # finish quickly
    code, out, _ = run(capsys, "witness", "H:6,2,1", "64", "1920", "--verify")
    assert code == 0
    assert decode_graph6(out.splitlines()[0]).edge_count == 1920


def test_witness_order_64_graph6(capsys):
    code, out, _ = run(capsys, "witness", "claw", "64", "10", "--json")
    assert code == 0
    data = json.loads(out)
    g = decode_graph6(data["graph6"])
    assert (g.order, g.edge_count) == (64, 10)


# pairs


def test_pairs_two_pattern_family_gap(capsys):
    code, out, _ = run(
        capsys, "pairs", "path:3", "--edges", "4;0-1,0-2,1-2", "-n", "5", "--json"
    )
    assert code == 0
    data = json.loads(out)
    assert data["feasible"][3] is False


def test_pairs_json(capsys):
    code, out, _ = run(
        capsys,
        "pairs",
        "H:3,1,1",
        "--edges",
        "4;0-1,0-2,1-2",
        "-n",
        "5",
        "--json",
    )
    assert code == 0
    data = json.loads(out)
    check_schema("pairs", data)
    assert data["n"] == 5
    assert data["feasible"][3] is False
    assert data["f"] == 3


def test_pairs_paw_claw_csv(capsys):
    code, out, _ = run(capsys, "pairs", "paw", "claw", "-n", "5", "--csv")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "n,m,feasible"
    assert "5,7,false" in lines


def test_pairs_all_feasible_human(capsys):
    code, out, _ = run(capsys, "pairs", "claw", "-n", "6")
    assert code == 0
    assert "all edge counts feasible" in out


def test_pairs_capacity_exit(capsys):
    code, _, err = run(capsys, "pairs", "claw", "-n", "9")
    assert code == 4


def test_pairs_checks_the_cap_before_canonicalizing(capsys, monkeypatch):
    def refuse(g):
        raise AssertionError("canonical_form called")

    monkeypatch.setattr("indfree.enumeration.canonical_form", refuse)
    code, _, err = run(capsys, "pairs", "cycle:16", "-n", "9")
    assert code == 4
    assert "caps at n = 8" in err
    code, _, _ = run(capsys, "pairs", "cycle:16", "-n", "-1")
    assert code == 3


def test_pairs_needs_a_graph(capsys):
    code, _, err = run(capsys, "pairs", "-n", "5")
    assert code == 2


# bounds


def test_bounds_clique_minus_edge(capsys):
    code, out, _ = run(capsys, "bounds", "CliqueMinusEdge", "3", "6", "--json")
    assert code == 0
    data = json.loads(out)
    check_schema("bounds", data)
    assert data["infeasible"] == [13, 14]
    assert data["exact"] is False


def test_bounds_clique_exact(capsys):
    code, out, _ = run(capsys, "bounds", "Clique", "3", "6", "--json")
    data = json.loads(out)
    check_schema("bounds", data)
    assert data["infeasible"] == list(range(10, 16))
    assert data["exact"] is True


def test_bounds_empty_mirror(capsys):
    code, out, _ = run(capsys, "bounds", "Empty", "3", "6", "--json")
    data = json.loads(out)
    check_schema("bounds", data)
    assert data["infeasible"] == list(range(0, 6))
    assert data["exact"] is True


def test_bounds_human(capsys):
    code, out, _ = run(capsys, "bounds", "EmptyPlusEdge", "4", "7")
    assert code == 0
    assert "known infeasible" in out


def test_bounds_human_at_large_n(capsys):
    code, out, _ = run(capsys, "bounds", "Clique", "3", "20000")
    assert code == 0
    assert "known infeasible m: [100000001, 199990000]" in out


def under_a_memory_limit(*argv):
    # a process past its address-space limit fails here instead of
    # exhausting the machine's memory
    def limit():
        resource.setrlimit(resource.RLIMIT_AS, (3 << 29, 3 << 29))

    return subprocess.run(
        [sys.executable, "-m", "indfree", *argv],
        capture_output=True,
        text=True,
        env=CHILD_ENV,
        preexec_fn=limit,
        timeout=60,
    )


def bounds_json_under_a_memory_limit(n, out):
    return under_a_memory_limit("bounds", "Clique", "3", str(n), "--json", "--out", str(out))


def test_bounds_json_caps_the_listed_region(tmp_path):
    out = tmp_path / "bounds.json"
    # 24,995,000 entries once ended in a MemoryError traceback, exit 1
    proc = bounds_json_under_a_memory_limit(10000, out)
    assert proc.returncode == 4
    assert proc.stderr == f"error: bounds --json lists at most {BOUNDS_JSON_CAP} edge counts, got 24995000\n"
    assert not out.exists()
    # 4,192,256 entries fit under the cap and the limit
    proc = bounds_json_under_a_memory_limit(4096, out)
    assert (proc.returncode, proc.stderr) == (0, "")
    with open(out, "rb") as fh:
        head = fh.read(200).decode()
        fh.seek(-100, os.SEEK_END)
        tail = fh.read().decode()
    assert '"infeasible": [\n    4194305,\n' in head
    assert tail.endswith("    8386560\n  ],\n  \"exact\": true\n}\n")
    # len() of this region would overflow
    proc = bounds_json_under_a_memory_limit(10**10, out)
    assert proc.returncode == 4
    assert proc.stderr.endswith(" got 24999999995000000000\n")


def test_bounds_parameter_exit(capsys):
    code, _, _ = run(capsys, "bounds", "Clique", "1", "5")
    assert code == 7


@pytest.mark.parametrize(
    "k, n, code, message",
    [
        ("3", "0", 3, "vertex count must be at least 1, got 0"),
        ("3", "-1", 3, "vertex count must be at least 1, got -1"),
        # a bad k is reported first
        ("1", "0", 7, "need k >= 2, got k=1"),
    ],
    ids=["n=0", "n=-1", "k=1"],
)
def test_bounds_vertex_count_exits_3(capsys, k, n, code, message):
    for kind in ("Clique", "CliqueMinusEdge", "Empty", "EmptyPlusEdge"):
        for form in ([], ["--json"]):
            assert run(capsys, "bounds", kind, k, n, *form) == (code, "", f"error: {message}\n")


# encode / decode


def test_encode_decode_round_trip(capsys):
    code, out, _ = run(capsys, "encode", "paw")
    assert code == 0
    g6 = out.strip()
    code, out, _ = run(capsys, "decode", g6)
    assert code == 0
    assert is_isomorphic(parse_graph(out.strip()), parse_graph("paw"))


def test_encode_json(capsys):
    code, out, _ = run(capsys, "encode", "empty:5", "--json")
    data = json.loads(out)
    check_schema("encode", data)
    assert data["graph6"] == "D??"


def test_decode_json(capsys):
    code, out, _ = run(capsys, "decode", "C~", "--json")
    data = json.loads(out)
    check_schema("decode", data)
    assert data["order"] == 4
    assert data["edge_count"] == 6


def test_decode_bad_string_exit(capsys):
    code, _, err = run(capsys, "decode", "D?")
    assert code == 2


@pytest.mark.parametrize(
    "text, offset",
    [
        ("  D?", 4),
        ("\u00a0D?", 4),
        ("  D\x01?", 3),
        ("\u00a0D\x01?", 3),
        # one character too many, after a two-byte one
        ("\u00a0D\u00e9??", 6),
    ],
)
def test_decode_offset_counts_bytes_as_typed(capsys, text, offset):
    # decode and classify report the same offset for the same text:
    # UTF-8 bytes as typed, leading blanks included
    code, _, err = run(capsys, "decode", text)
    assert code == 2
    assert err.rstrip().endswith(f"(at byte {offset})")
    if text == "\u00a0D\u00e9??":
        # the length, too, counts the 5 bytes after the blank
        assert err == "error: graph6 string for order 5 needs 3 bytes, got 5 (at byte 6)\n"
    code, _, err = run(capsys, "classify", text)
    assert code == 2
    assert err.rstrip().endswith(f"(at byte {offset})")


def test_parse_graph_offset_past_a_lone_surrogate():
    # a str from a caller may hold a surrogate that escapes no byte; the
    # offset counts the three bytes it would take, and no UnicodeError leaks
    with pytest.raises(ParseError) as err:
        parse_graph("D?\ud800?")
    assert err.value.offset == 5


def test_named_specifiers_round_trip(capsys):
    names = [
        "claw", "paw", "diamond", "complete:4", "empty:3", "path:4",
        "cycle:5", "star:4", "matching:2", "H:4,2,1", "S:2,3", "Q:5,1,1,0",
    ]
    for name in names:
        code, out, _ = run(capsys, "encode", name)
        assert code == 0
        assert is_isomorphic(decode_graph6(out.strip()), parse_graph(name))


@pytest.mark.parametrize(
    "command", [["classify"], ["encode"], ["witness", "5", "3"]], ids=["classify", "encode", "witness"]
)
@pytest.mark.parametrize(
    "spec, named",
    [
        ("star:-1", "leaves, got -1"),
        ("star:-2", "leaves, got -2"),
        ("matching:-1", "edges, got -1"),
    ],
    ids=["star:-1", "star:-2", "matching:-1"],
)
def test_negative_catalog_count_exits_7(capsys, command, spec, named):
    code, out, err = run(capsys, command[0], spec, *command[1:])
    assert code == 7
    assert out == ""
    assert err.startswith("error: ") and named in err


def test_parameter_error_exit(capsys):
    code, _, _ = run(capsys, "classify", "H:3,9,0")
    assert code == 7


def test_module_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "indfree", "classify", "paw"],
        capture_output=True,
        text=True,
        env=CHILD_ENV,
    )
    assert proc.returncode == 0
    assert "Feasible" in proc.stdout


@pytest.mark.parametrize(
    "argv",
    [
        ["-m", "indfree", "pairs", "paw", "-n", "6", "--json"],
        [str(SCRIPTS_DIR / "feasible_pair_tables.py"), "paw", "--n-max", "5"],
        [str(SCRIPTS_DIR / "witness_sweep.py"), "--max-order", "4", "--max-n", "4"],
    ],
    ids=["cli", "tables-script", "sweep-script"],
)
def test_closed_stdout_exits_8_without_traceback(argv):
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = subprocess.run(
            [sys.executable, *argv],
            stdout=write_end,
            stderr=subprocess.PIPE,
            text=True,
            env=CHILD_ENV,
        )
    finally:
        os.close(write_end)
    assert proc.returncode == 8
    assert proc.stderr.startswith("error: ")
    assert proc.stderr.count("\n") == 1
    assert "Traceback" not in proc.stderr
    assert "Exception ignored" not in proc.stderr


def test_exit_codes_are_the_documented_numbers():
    # the table in the cli docstring and the README
    assert EXIT_CODES == {
        ParseError: 2,
        RangeError: 3,
        CapacityError: 4,
        InfeasibleFamilyError: 5,
        DegenerateForbiddenError: 5,
        InternalInvariantError: 6,
        ParameterError: 7,
        ValidationError: 7,
        OSError: 8,
    }


def test_every_package_error_has_an_exit_code():
    pending = list(IndfreeError.__subclasses__())
    assert pending
    while pending:
        cls = pending.pop()
        assert any(base in EXIT_CODES for base in cls.__mro__), cls
        pending += cls.__subclasses__()


# output pins: sha256 over "<exit code>\n<stdout>" of each command in
# turn, recorded before classify and pairs --json moved onto classify
# and table_to_json


def pinned_digest(capsys, argvs) -> str:
    h = hashlib.sha256()
    for argv in argvs:
        code, out, _ = run(capsys, *argv)
        if "--out" in argv:
            # stdout is empty; the file takes its place
            out = Path(argv[argv.index("--out") + 1]).read_text()
        h.update(f"{code}\n{out}".encode())
    return h.hexdigest()


CLASS_CODES = [encode_graph6(g) for n in range(1, 7) for g in enumerate_nonisomorphic(n)]


def test_classify_text_pinned(capsys):
    digest = pinned_digest(capsys, [["classify", c] for c in CLASS_CODES])
    assert digest == "566bd4000da3d814151b375761623a04c1fc7bd5cf2a99cc86dc3c7d1b07acc9"


def test_classify_json_pinned(capsys):
    digest = pinned_digest(capsys, [["classify", c, "--json"] for c in CLASS_CODES])
    assert digest == "893898eb6c49b290e0aecba5e9e2322350381beb8fbe018996285522de37234d"


def test_pairs_json_and_csv_pinned(capsys):
    p3_k1 = encode_graph6(disjoint_union(path_graph(3), empty_graph(1)))
    k3_k1 = encode_graph6(disjoint_union(complete_graph(3), empty_graph(1)))
    families = [["paw"], ["claw"], [p3_k1, k3_k1], ["cycle:4"]]
    argvs = [
        ["pairs", *family, "-n", str(n), form]
        for family in families
        for n in range(1, 8)
        for form in ("--json", "--csv")
    ]
    digest = pinned_digest(capsys, argvs)
    assert digest == "100d2bbcbbcf143f0513fdfc9b5b64d85511a65514d6830e1152be7d80717649"


# the pins below were recorded before the commands returned their --json
# documents as dicts for main to write

FORMS = ([], ["--json"])
KINDS = ["Clique", "CliqueMinusEdge", "Empty", "EmptyPlusEdge"]


def test_witness_text_and_json_pinned(capsys):
    # every m from one below the range to one above it, a blocked shape,
    # the single vertex, an edge-list input and a verified order-64 host
    specs = [
        ["claw"], ["paw"], ["cycle:4"], ["H:4,2,1"], ["S:2,3"], ["Q:5,1,1,0"],
        ["--edges", "4;0-1,1-2"], ["diamond"], ["complete:1"],
    ]
    argvs = [
        ["witness", *spec, str(n), str(m), *form]
        for spec in specs
        for n in (4, 7)
        for m in range(-1, n * (n - 1) // 2 + 2)
        for form in FORMS
    ]
    argvs += [["witness", "H:5,2,0", "64", "1500", "--verify", *form] for form in FORMS]
    digest = pinned_digest(capsys, argvs)
    assert digest == "f391535ffc3d8dec848f60514edb7318c7b1b81725aa54a46e1fbd984ee6849c"


def test_bounds_text_and_json_pinned(capsys):
    # a bad k exits 7; Clique and Empty at n = 100 list 2450 edge counts
    argvs = [
        ["bounds", kind, str(k), str(n), *form]
        for kind in KINDS
        for k in (1, 2, 3, 5)
        for n in (1, 2, 6, 11, 100)
        for form in FORMS
    ]
    digest = pinned_digest(capsys, argvs)
    assert digest == "d2b9f72b4e59f85a3cd1b1f5d61df647f925388dec5bf519c52432a99b1c11d6"


def test_encode_and_decode_text_and_json_pinned(capsys):
    specs = [
        "claw", "paw", "diamond", "complete:4", "empty:3", "path:4", "cycle:5", "star:4",
        "matching:2", "H:4,2,1", "S:2,3", "Q:5,1,1,0", "5;0-1,1-2,2-3,3-4", "4;", "complete:64",
        "path:63", "no_such_graph_name", "H:3,9,0",
    ]
    argvs = [["encode", spec, *form] for spec in specs for form in FORMS]
    argvs += [["encode", "--edges", "3;0-1,1-2", *form] for form in FORMS]
    codes = CLASS_CODES + [encode_graph6(complete_graph(64)), "D?", "  D\x01?"]
    argvs += [["decode", code, *form] for code in codes for form in FORMS]
    digest = pinned_digest(capsys, argvs)
    assert digest == "b68f4ca1fef24183eb360ba1371535cb1604c230b1a6777ff86a5c176322756a"


def test_out_files_pinned(capsys, tmp_path):
    out = str(tmp_path / "out")
    commands = [
        ["witness", "paw", "8", "20"],
        ["bounds", "Clique", "3", "100"],
        ["encode", "H:4,2,1"],
        ["decode", "G~~~~w"],
        ["classify", "paw"],
    ]
    argvs = [[*command, *form, "--out", out] for command in commands for form in FORMS]
    digest = pinned_digest(capsys, argvs)
    assert digest == "b87d86e49fcad97a57bb2700d32c276d47116aa0c9144ceea4a823cc09585180"
