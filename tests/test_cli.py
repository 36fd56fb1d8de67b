import json

import numpy as np
import pytest

from cubicforms import cli, enumeration
from cubicforms.cli import MAX_DENSITY_X, main
from cubicforms.enumeration import MAX_LIMIT
from cubicforms.series import CheckReport


def run_cli(args, tmp_path):
    out = tmp_path / "out.txt"
    code = main(args + ["--output", str(out)])
    return code, out.read_text()


def test_enumerate_json_lines(tmp_path):
    code, text = run_cli(
        ["enumerate", "--lattice", "1", "--sign", "pos", "--max", "1"], tmp_path
    )
    assert code == 0
    lines = text.strip().splitlines()
    assert lines[0] == "schema:1"
    assert len(lines) == 2
    rec = json.loads(lines[1])
    assert rec["lattice"] == 1 and rec["sign"] == "+" and rec["n"] == 1
    assert rec["stab"] == 3 and rec["irreducible"] is False


def test_enumerate_left_column_summary(tmp_path):
    code, text = run_cli(
        ["enumerate", "--lattice", "1", "--sign", "neg", "--max", "51"], tmp_path
    )
    assert code == 0
    recs = [json.loads(l) for l in text.strip().splitlines()[1:]]
    ns = sorted({r["n"] for r in recs})
    assert len(ns) == 25  # 25 populated rows of the left table


def test_enumerate_empty(tmp_path):
    code, text = run_cli(
        ["enumerate", "--lattice", "4", "--sign", "pos", "--max", "2"], tmp_path
    )
    assert code == 0
    assert text.strip() == "schema:1"


def _json_dumps_lines(table) -> str:
    """The enumerate output written row by row with json.dumps."""
    lines = ["schema:1"]
    for n, rep, stab, irred in table.rows():
        d = {"lattice": table.lattice, "sign": table.sign, "n": n, "rep": rep,
             "stab": stab, "irreducible": irred}
        lines.append(json.dumps(d, separators=(",", ":")))
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize("block", [cli._ENUMERATE_BLOCK, 7])
@pytest.mark.parametrize(
    "lattice, sign, max_index",
    [(1, "pos", 300), (1, "neg", 300), (2, "pos", 300), (7, "neg", 300),
     (9, "pos", 400), (4, "pos", 2)],
)
def test_enumerate_lines_equal_json_dumps(tmp_path, monkeypatch, block, lattice, sign,
                                          max_index):
    monkeypatch.setattr(cli, "_ENUMERATE_BLOCK", block)
    code, text = run_cli(
        ["enumerate", "--lattice", str(lattice), "--sign", sign, "--max", str(max_index)],
        tmp_path,
    )
    assert code == 0
    table = enumeration.enumerate_classes(lattice, "+" if sign == "pos" else "-", max_index)
    assert text == _json_dumps_lines(table)
    if max_index == 2:  # L4+ has no orbit of index <= 2
        assert len(table) == 0
    else:
        assert len(table) > 7  # a block of 7 rows splits the selection
    if lattice == 1:
        # the rows the format must cover: stabilizer 3, both irreducibility
        # values and negative coefficients
        assert (table.stab == 3).any() == (sign == "pos")
        assert table.irred.any() and not table.irred.all()
        assert (table.reps < 0).any()


def test_coeffs_csv(tmp_path):
    code, text = run_cli(
        ["coeffs", "--lattice", "1", "--sign", "pos", "--max", "16"], tmp_path
    )
    assert code == 0
    lines = text.strip().splitlines()
    assert lines[0] == "schema:1"
    assert lines[1] == "n,weighted,unweighted,irreducible_weighted,reducible_weighted"
    rows = {l.split(",")[0]: l for l in lines[2:]}
    assert rows["1"].split(",")[1] == "1/3"
    assert rows["16"].split(",")[1] == "4/3"


def test_table_dump_golden(tmp_path):
    code, text = run_cli(["table", "--side", "right", "--dump-golden"], tmp_path)
    assert code == 0
    lines = text.strip().splitlines()
    assert len(lines) == 27  # schema + header + 25 rows
    assert lines[2] == "1,1,1,1,0,1,1,1,1,0,0"


def test_table_computed_matches_golden(tmp_path):
    _, computed = run_cli(["table", "--side", "left"], tmp_path)
    _, golden = run_cli(["table", "--side", "left", "--dump-golden"], tmp_path)
    assert computed == golden


def test_workers_byte_identical(tmp_path):
    _, a = run_cli(
        ["enumerate", "--lattice", "3", "--sign", "neg", "--max", "40"], tmp_path
    )
    _, b = run_cli(
        ["enumerate", "--lattice", "3", "--sign", "neg", "--max", "40", "--workers", "3"],
        tmp_path,
    )
    assert a == b


def test_verify_suite_exit_codes(tmp_path):
    code, text = run_cli(["verify", "--suite", "congruence"], tmp_path)
    assert code == 0
    assert "[PASS]" in text


def test_verify_rank(tmp_path):
    code, text = run_cli(["verify", "--suite", "rank"], tmp_path)
    assert code == 0
    assert "rank = 14" in text


def test_density_csv(tmp_path):
    code, text = run_cli(
        ["density", "--lattice", "1", "--sign", "pos", "--max", "1000",
         "--checkpoints", "3"],
        tmp_path,
    )
    assert code == 0
    lines = text.strip().splitlines()
    assert lines[0] == "schema:1"
    assert lines[1].startswith("X,S_unweighted,S_weighted,prediction")
    assert len(lines) >= 4


def test_usage_errors():
    assert (
        main(
            ["density", "--lattice", "1", "--sign", "pos", "--max", "1000",
             "--checkpoints", "0"]
        )
        == 2
    )
    assert (
        main(["density", "--lattice", "1", "--sign", "pos", "--max", str(10 ** 8)])
        == 2
    )
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--suite", "bogus"])
    assert exc.value.code == 2
    # verify bounds are checked before any suite runs
    assert main(["verify", "--suite", "oracle", "--max", "0"]) == 2
    assert main(["verify", "--suite", "oracle", "--box", "0"]) == 2
    assert main(["verify", "--suite", "oracle", "--box", "-3"]) == 2
    over = str(MAX_DENSITY_X + 1)
    assert main(["verify", "--suite", "density", "--max", over]) == 2
    assert main(["verify", "--suite", "all", "--max", over]) == 2
    # enumerate and coeffs stop at the int64 bound, scaled by 27 on even
    # lattices, before any enumeration runs
    assert main(["enumerate", "--lattice", "2", "--sign", "pos", "--max", "200000000"]) == 2
    for command, lattice, max_index in (
        ("enumerate", "1", MAX_LIMIT + 1),
        ("coeffs", "1", MAX_LIMIT + 1),
        ("enumerate", "2", MAX_LIMIT // 27 + 1),
        ("coeffs", "4", MAX_LIMIT // 27 + 1),
    ):
        argv = [command, "--lattice", lattice, "--sign", "neg", "--max", str(max_index)]
        assert main(argv) == 2
    # so do the suites that build the series of the even lattices
    for suite in ("relations", "lambda", "oracle"):
        assert main(["verify", "--suite", suite, "--max", str(MAX_LIMIT // 27 + 1)]) == 2


def test_verify_rejects_box_past_int64_bound(monkeypatch):
    def no_scan(box, p_limit, family):
        raise AssertionError("box scan started")

    monkeypatch.setattr(enumeration, "_box_survivors", no_scan)
    # the oracle's stability re-run scans at (3 box + 1) // 2 <= MAX_BOX
    top = 2 * enumeration.MAX_BOX // 3
    for suite in ("oracle", "all"):
        assert main(["verify", "--suite", suite, "--box", str(top + 1)]) == 2
    passed = CheckReport("oracle stand-in", True, [])
    monkeypatch.setattr(cli, "verify_oracle", lambda max_index, box, workers: passed)
    assert main(["verify", "--suite", "oracle", "--box", str(top)]) == 0


def test_verify_oracle_names_a_class_missing_one_copy(monkeypatch):
    # The enumeration's multiset against an oracle stand-in that lacks one
    # copy of a repeated class (L1-) or holds an extra copy (L1+): each
    # surplus copy is named, though the class itself is on both sides.
    def stand_in(lattice, sign, max_index, box, check_stability):
        table = enumeration.enumerate_classes(lattice, sign, max_index)
        idx = np.arange(len(table))
        if (lattice, sign) == (1, "-"):
            assert table.class_multiset().count((16, 1, False)) == 2
            idx = np.delete(idx, np.flatnonzero(table.n == 16)[0])
        elif (lattice, sign) == (1, "+"):
            idx = np.append(idx, 0)
        return enumeration.ClassTable(
            lattice, sign, table.n[idx], table.reps[idx], table.stab[idx], table.irred[idx]
        )

    monkeypatch.setattr(cli, "brute_force_classes", stand_in)
    assert str(cli.verify_oracle(23, box=5)) == (
        "[FAIL] oracle equivalence (index <= 23, box 5)\n"
        "    (L1, +): enumeration and oracle disagree; "
        "fast-only [], oracle-only [(1, 3, False)]\n"
        "    (L1, -): enumeration and oracle disagree; "
        "fast-only [(16, 1, False)], oracle-only []"
    )


def test_mutation_flips_verify(tmp_path, monkeypatch):
    # perturbing a single golden entry must flip the tables suite to FAIL
    import cubicforms.golden as gold

    rows = list(gold.RIGHT_ROWS)
    n, vals = rows[0]
    rows[0] = (n, tuple(v + 1 for v in vals[:1]) + vals[1:])
    monkeypatch.setattr(gold, "GOLDEN_RIGHT", gold.GoldenTable("right", tuple(rows)))
    code = main(["verify", "--suite", "tables", "--output", str(tmp_path / "o")])
    assert code == 1
