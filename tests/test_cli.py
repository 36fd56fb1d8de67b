import json

import numpy as np
import pytest

from cubicforms import cli, enumeration
from cubicforms.cli import main
from cubicforms.enumeration import MAX_LIMIT, master_classes
from cubicforms.forms import index_scale
from cubicforms.series import CheckReport, CoefficientSeries, count_orbits


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


def _json_dumps_lines(table, class_rows) -> str:
    """The enumerate output written row by row with json.dumps."""
    lines = ["schema:1"]
    for n, rep, stab, irred in class_rows(table):
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
def test_enumerate_lines_equal_json_dumps(tmp_path, monkeypatch, class_rows, block, lattice,
                                          sign, max_index):
    monkeypatch.setattr(cli, "_ENUMERATE_BLOCK", block)
    code, text = run_cli(
        ["enumerate", "--lattice", str(lattice), "--sign", sign, "--max", str(max_index)],
        tmp_path,
    )
    assert code == 0
    table = enumeration.enumerate_classes(lattice, "+" if sign == "pos" else "-", max_index)
    assert text == _json_dumps_lines(table, class_rows)
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


def _str_lines(pieces, block=slice(None)) -> bytes:
    """The rows of _format_rows(pieces, block) written with str(int) per value."""
    columns = [p[0] if isinstance(p, tuple) else p for p in pieces if not isinstance(p, bytes)]
    out = b""
    for i in range(len(columns[0]))[block]:
        for p in pieces:
            if isinstance(p, bytes):
                out += p
            elif isinstance(p, tuple):
                out += p[1] if p[0][i] else p[2]
            else:
                out += str(int(p[i])).encode()
    return out


_INT64_MAX = 2 ** 63 - 1


def test_format_rows_equals_str():
    edge = [0, 1, 9, 10, 99, 100, _INT64_MAX] + [10 ** k for k in range(19)]
    edge += [10 ** k - 1 for k in range(1, 19)]
    values = np.array(sorted(set(edge + [-v for v in edge])), dtype=np.int64)
    rng = np.random.default_rng(7)
    # every digit count in one block, in random order
    scales = 10 ** rng.integers(0, 19, size=2000)
    spread = rng.integers(-scales, scales, dtype=np.int64)
    for col in (values, spread):
        other = col[::-1].copy()  # a field of another width in the same row
        mask = rng.integers(0, 2, size=len(col)).astype(bool)
        pieces = [b"<", col, b",", other, b"|", (mask, b"true", b"false"), b"/",
                  (~mask, b"", b"/3"), b">\n"]
        # the whole column, one row, a few rows
        for block in (slice(None), slice(0, 1), slice(5, 6), slice(3, 17)):
            assert cli._format_rows(pieces, block) == _str_lines(pieces, block)
    # a block of one column only, and an empty block
    assert cli._format_rows([np.array([-7, 0, 12], dtype=np.int64)]) == b"-7012"
    assert cli._format_rows([b"x", values[:0], b"\n"]) == b""
    assert cli._format_rows([b"x", values, b"\n"], slice(len(values), None)) == b""


def test_format_rows_field_widths():
    # each field at its own width: a column whose widest value is negative,
    # an all-zero column, +-INT64_MAX beside a one-digit column, magnitudes
    # on both sides of the int32 digit arithmetic's 2^31, and choice
    # constants of unequal lengths on both sides
    mask = np.array([True, False, False])
    cases = [
        [np.array([-99, 5, -1], dtype=np.int64), b";", np.zeros(3, dtype=np.int64), b"\n"],
        [np.array([_INT64_MAX, -_INT64_MAX, 0], dtype=np.int64), b",",
         np.array([3, -4, 0], dtype=np.int64), b"\n"],
        [np.array([2 ** 31 - 1, -2 ** 31, 1 - 2 ** 31], dtype=np.int64), b" ",
         np.array([2 ** 31, 9, -2 ** 31], dtype=np.int64), b"\n"],
        [np.array([7, 0, 1], dtype=np.int8), (mask, b"a", b"bcd"), (~mask, b"xyz", b""), b"\n"],
    ]
    for pieces in cases:
        for block in (slice(None), slice(1, 2), slice(2, 3)):
            assert cli._format_rows(pieces, block) == _str_lines(pieces, block)
    assert cli._format_rows(cases[0]) == b"-99;0\n5;0\n-1;0\n"


def test_format_rows_rejects_int64_min():
    # np.abs wraps at INT64_MIN; the kernel must refuse it, not misprint it
    col = np.array([5, np.iinfo(np.int64).min, -3], dtype=np.int64)
    with pytest.raises(ValueError):
        cli._format_rows([col, b"\n"])
    assert cli._format_rows([col, b"\n"], slice(2, 3)) == b"-3\n"


@pytest.mark.parametrize("block", [cli._ENUMERATE_BLOCK, 7])
@pytest.mark.parametrize(
    "lattice, sign, max_index",
    [(1, "pos", 2000), (1, "neg", 2000), (2, "pos", 300), (7, "neg", 300),
     (9, "pos", 400), (4, "pos", 2)],
)
def test_coeffs_equals_fraction_rows(tmp_path, monkeypatch, reference_coeffs_text, block,
                                     lattice, sign, max_index):
    monkeypatch.setattr(cli, "_ENUMERATE_BLOCK", block)
    code, text = run_cli(
        ["coeffs", "--lattice", str(lattice), "--sign", sign, "--max", str(max_index)],
        tmp_path,
    )
    assert code == 0
    pair = (lattice, "+" if sign == "pos" else "-")
    master = master_classes(max_index * index_scale(lattice))
    s = CoefficientSeries(*pair, max_index, count_orbits([master], *pair, max_index))
    assert text == reference_coeffs_text(s)
    weighted = s.thirds()
    # indices with a_n = 0 are left out
    assert (weighted[1:] == 0).any()
    if max_index == 2:  # L4+ has no orbit of index <= 2
        assert not weighted.any()
    else:
        assert (weighted != 0).sum() > 7  # a block of 7 rows splits the rows
    if sign == "pos" and lattice in (1, 2, 9):
        # stab-3 orbits give thirds that are not whole numbers
        split = [s.thirds(irreducible=i) for i in (None, True, False)]
        assert any((w % 3 != 0).any() for w in split)


def test_coeffs_and_density_build_no_master(tmp_path, monkeypatch):
    # the one-shot commands read the stratum tasks of their sign chunk by
    # chunk: each orbit stream they run has one sign, where a master's
    # stream has both (sign None)
    signs = []
    task_orbits = enumeration._task_orbits

    def recording(tasks, limit, sign, sublattice):
        signs.append(sign)
        return task_orbits(tasks, limit, sign, sublattice)

    monkeypatch.setattr(enumeration, "_task_orbits", recording)
    for argv in (
        ["enumerate", "--lattice", "3", "--sign", "neg", "--max", "2000"],
        ["enumerate", "--lattice", "8", "--sign", "pos", "--max", "300"],
        ["coeffs", "--lattice", "1", "--sign", "neg", "--max", "2000"],
        ["coeffs", "--lattice", "2", "--sign", "pos", "--max", "300"],
        ["density", "--lattice", "1", "--sign", "pos", "--max", "2000"],
        ["density", "--lattice", "4", "--sign", "neg", "--max", "300"],
    ):
        code, text = run_cli(argv, tmp_path)
        assert code == 0 and text.count("\n") > 5, argv
    assert sorted(signs) == ["+"] * 3 + ["-"] * 3


@pytest.mark.parametrize(
    "argv",
    [["enumerate", "--lattice", "6", "--sign", "neg", "--max", "500"],
     ["coeffs", "--lattice", "1", "--sign", "pos", "--max", "500"]],
)
def test_stdout_equals_output_file(tmp_path, capsys, argv):
    _, text = run_cli(argv, tmp_path)
    capsys.readouterr()
    assert main(argv) == 0
    assert capsys.readouterr().out == text
    assert text.count("\n") > 10


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


def test_workers_below_one_is_a_usage_error(monkeypatch):
    def no_work(tasks):
        raise AssertionError("stratum work started")

    monkeypatch.setattr(enumeration, "_stratum_chunks", no_work)
    for workers in ("0", "-1"):
        assert main(["enumerate", "--lattice", "1", "--sign", "neg", "--max", "100",
                     "--workers", workers]) == 2
        assert main(["verify", "--suite", "tables", "--workers", workers]) == 2
        assert main(["density", "--lattice", "1", "--sign", "pos", "--max", "100",
                     "--workers", workers]) == 2


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
    # density stops at the int64 bound of enumerate and coeffs, scaled by 27
    # on even lattices
    for lattice, max_x in (("1", MAX_LIMIT + 1), ("2", MAX_LIMIT // 27 + 1)):
        assert main(["density", "--lattice", lattice, "--sign", "pos", "--max", str(max_x)]) == 2
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--suite", "bogus"])
    assert exc.value.code == 2
    # verify bounds are checked before any suite runs
    assert main(["verify", "--suite", "oracle", "--max", "0"]) == 2
    assert main(["verify", "--suite", "oracle", "--box", "0"]) == 2
    assert main(["verify", "--suite", "oracle", "--box", "-3"]) == 2
    # the density suite counts L1+ up to the int64 bound; all is held to the
    # bound of every suite it runs, the oracle's 4 * box (400) the least
    assert main(["verify", "--suite", "density", "--max", str(MAX_LIMIT + 1)]) == 2
    assert main(["verify", "--suite", "all", "--max", "401"]) == 2
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
    monkeypatch.setattr(cli, "verify_oracle", lambda max_index, box: passed)
    assert main(["verify", "--suite", "oracle", "--box", str(top)]) == 0


def test_oracle_refuses_an_index_past_four_boxes(monkeypatch):
    # past index 4 * box some orbit has no form in the box
    # (enumeration._check_reach): verify_oracle raises ValueError, and the
    # oracle and all suites exit 2, before any master build or box scan
    def no_work(*args):
        raise AssertionError("a master build or box scan started")

    monkeypatch.setattr(enumeration, "_stratum_chunks", no_work)
    monkeypatch.setattr(enumeration, "_box_survivors", no_work)
    with pytest.raises(ValueError, match=r"index 401 exceeds 4 \* box = 400"):
        cli.verify_oracle(401, 100)
    assert main(["verify", "--suite", "oracle", "--max", "401"]) == 2
    assert main(["verify", "--suite", "all", "--max", "3700000"]) == 2
    assert main(["verify", "--suite", "oracle", "--max", "1213", "--box", "303"]) == 2
    passed = CheckReport("oracle stand-in", True, [])
    monkeypatch.setattr(cli, "verify_oracle", lambda max_index, box: passed)
    assert main(["verify", "--suite", "oracle", "--max", "400"]) == 0
    assert main(["verify", "--suite", "oracle", "--max", "1200", "--box", "303"]) == 0


def test_box_is_read_by_the_oracle_only(monkeypatch, capsys):
    # an explicit --box with a suite that does not read it is a usage error
    # before any suite runs (decomps checks its own box, 20); without one
    # the oracle reads 100
    def no_check(args):
        raise AssertionError("a suite ran")

    for suite in ("decomps", "relations", "density"):
        monkeypatch.setitem(cli._CHECKS, suite, no_check)
        assert main(["verify", "--suite", suite, "--box", "40"]) == 2
        err = capsys.readouterr().err
        assert f"--box is read by the oracle and all suites only, not {suite}" in err
    assert main(["verify", "--suite", "oracle", "--max", "10"]) == 0
    assert capsys.readouterr().out == "[PASS] oracle equivalence (index <= 10, box 100)\n"


def test_verify_oracle_names_a_class_missing_one_copy(monkeypatch):
    # The enumeration's multiset against an oracle stand-in that lacks one
    # copy of a repeated class (L1-) or holds an extra copy (L1+): each
    # surplus copy is named, though the class itself is on both sides.
    def stand_in(lattice, sign, max_index, box, *, _groupings):
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

    # the stand-in is the per-pair step (brute_force_classes with the
    # sublattice's groupings), and it reads no box, so the oracle's reach
    # (23 > 4 * 5) is not what this test checks
    monkeypatch.setattr(cli, "brute_force_classes", stand_in)
    monkeypatch.setattr(cli, "_check_reach", lambda max_index, box: None)
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
