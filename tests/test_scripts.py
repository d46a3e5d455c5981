import importlib.util
import os
import sys
from pathlib import Path

import pytest

from indfree import FamilySpec, feasible_pairs, parse_graph, table_to_csv

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def load_script(name):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


@pytest.fixture(scope="module")
def tables_script():
    return load_script("feasible_pair_tables")


@pytest.mark.parametrize(
    "argv, code",
    [
        (["paw", "--n-max", "9"], 4),
        (["paw", "--n-min", "5", "--n-max", "4"], 3),
        (["paw", "--n-min", "-1", "--n-max", "3"], 3),
        (["H:x"], 2),
    ],
)
def test_tables_script_errors_before_any_table(tables_script, capsys, argv, code):
    assert tables_script.main(argv) == code
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error: ")


@pytest.fixture(scope="module")
def sweep_script():
    return load_script("witness_sweep")


@pytest.mark.parametrize(
    "argv",
    [["--max-order", "9"], ["--max-n", "65"], ["--max-order", "-1"], ["--max-n", "-1"]],
)
def test_sweep_script_errors_before_any_sweep(sweep_script, capsys, argv):
    # exit 3 for a negative bound, 4 over a cap
    assert sweep_script.main(argv) == (3 if argv[1] == "-1" else 4)
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error: ")
    assert err.count("\n") == 1


def test_sweep_script_stops_one_pattern_after_stdout_closes(sweep_script, monkeypatch, capsys):
    read_end, write_end = os.pipe()
    os.set_blocking(read_end, False)
    first = []
    calls = 0
    sweep_pattern = sweep_script.sweep_pattern

    def counted(pattern, max_n):
        nonlocal calls
        calls += 1
        if calls == 2:
            # the reader takes what the first pattern printed and goes away
            try:
                first.append(os.read(read_end, 4096))
            except BlockingIOError:
                pass
            os.close(read_end)
        return sweep_pattern(pattern, max_n)

    monkeypatch.setattr(sweep_script, "sweep_pattern", counted)
    out = open(write_end, "w")
    monkeypatch.setattr(sys, "stdout", out)
    try:
        code = sweep_script.main(["--max-order", "4", "--max-n", "4"])
    finally:
        out.close()
        if calls < 2:
            os.close(read_end)
    # seven patterns on 4 vertices are not blocked; the sweep stops at the
    # second, whose line finds the reader gone
    assert code == 8
    assert calls == 2
    assert len(first) == 1 and first[0].count(b"\n") == 1
    assert b"order=4" in first[0]
    err = capsys.readouterr().err
    assert err.startswith("error: ")
    assert err.count("\n") == 1


def test_tables_script_csv_is_table_to_csv(tables_script, capsys, tmp_path):
    path = tmp_path / "rows.csv"
    specs = ["4;0-1,0-2", "4;0-1,0-2,1-2"]
    assert tables_script.main(specs + ["--n-max", "6", "--csv", str(path)]) == 0
    assert "n=5  [###.#######]  f=3 F=3" in capsys.readouterr().out
    family = FamilySpec([parse_graph(s) for s in specs])
    want = [table_to_csv(feasible_pairs(family, n)) for n in (4, 5, 6)]
    lines = path.read_text().splitlines()
    assert lines[0] == "n,m,feasible"
    assert lines[1:] == [row for text in want for row in text.splitlines()[1:]]


def test_tables_script_unwritable_csv_exit(tables_script, capsys, tmp_path):
    path = tmp_path / "missing" / "rows.csv"
    assert tables_script.main(["paw", "--n-max", "5", "--csv", str(path)]) == 8
    assert capsys.readouterr().err.startswith("error: ")
