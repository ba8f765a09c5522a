"""Command-line interface: pipelines, formats, caching, comparison."""

import argparse
import functools
import hashlib
import json
import os
from unittest import mock

import pytest

from symhom import __version__, cli, deltas
from symhom.bar import hr_via_bar
from symhom.betti import BettiTable
from symhom.commalg import abelianize
from symhom.findim import (FinDimAlgebra, dual_numbers_algebra,
                           truncated_poly_algebra)
from symhom.freealg import FreeDGAlgebra, dual_numbers_resolution
from symhom.lie import DGLie, hs_env_via_cobar, sl2
from symhom.repfun import hr_n


def run(capsys, *argv):
    code = cli.main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_hs_dg_human(capsys):
    code, out, _ = run(capsys, "hs", "dual-numbers", "--pipeline", "dg",
                       "--deg-cap", "3", "--weight-cap", "5")
    assert code == 0
    assert "h\\w" in out and "total" in out


def test_hs_json_format(capsys):
    code, out, _ = run(capsys, "hs", "dual-numbers", "--pipeline", "dg",
                       "--deg-cap", "3", "--weight-cap", "5",
                       "--format", "json")
    assert code == 0
    table = BettiTable.from_json(out)
    assert table.get(0, 0) == 1 and table.get(2, 3) == 1


def test_hs_csv_format(capsys):
    code, out, _ = run(capsys, "hs", "dual-numbers", "--pipeline", "dg",
                       "--deg-cap", "2", "--weight-cap", "3",
                       "--format", "csv")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0].startswith("hdeg,")
    assert len(lines) == 4


def test_hs_bar_pipeline(capsys):
    code, out, _ = run(capsys, "hs", "dual-numbers", "--pipeline", "bar",
                       "--deg-cap", "2", "--weight-cap", "4",
                       "--format", "json")
    assert code == 0
    assert BettiTable.from_json(out).get(0, 1) == 1


def test_hs_cobar_and_closed_form(capsys):
    code1, out1, _ = run(capsys, "hs", "sl2", "--pipeline", "cobar",
                         "--deg-cap", "3", "--weight-cap", "4",
                         "--format", "json")
    code2, out2, _ = run(capsys, "hs", "sl2", "--pipeline", "closed-form",
                         "--deg-cap", "3", "--weight-cap", "4",
                         "--format", "json")
    assert code1 == code2 == 0
    assert out1 == out2


def test_hr_command(capsys):
    code, out, _ = run(capsys, "hr", "free:1", "--n", "2",
                       "--deg-cap", "2", "--weight-cap", "3",
                       "--format", "json")
    assert code == 0
    table = BettiTable.from_json(out)
    assert table.degree_total(1) == table.degree_total(2) == 0


def test_hs0_hc0_commands(capsys):
    code, out, _ = run(capsys, "hs0", "dual-numbers", "--format", "json")
    assert code == 0 and json.loads(out) == 2
    code, out, _ = run(capsys, "hc0", "m2", "--format", "json")
    assert code == 0 and json.loads(out) == 1


def test_ce_command(capsys):
    code, out, _ = run(capsys, "ce", "sl2", "--deg-cap", "3")
    assert code == 0
    assert out.strip() == "[1, 0, 0, 1]"


def test_deltas_compose(capsys):
    code, out, _ = run(capsys, "deltaS", "compose",
                       "(x1 x0)|(x2)", "(x0 x1)")
    assert code == 0
    assert out.strip() == "(x1 x0 x2)"


def test_deltas_factor(capsys):
    code, out, _ = run(capsys, "deltaS", "factor", "(x1 x0)|(x2)")
    assert code == 0
    assert "sigma:" in out and "monotone: (x0 x1)|(x2)" in out


def test_deltas_psi(capsys):
    code, out, _ = run(capsys, "deltaS", "psi", "(x1 x0)|(x2)")
    assert code == 0
    assert "X0 -> x1 x0" in out and "X1 -> x2" in out


def test_deltas_arity_error_is_graceful(capsys):
    code, _, err = run(capsys, "deltaS", "compose",
                       "(x1 x0)|(x2)", "(x0)|(x2 x1)")
    assert code == 2
    assert err.startswith("error:")


def test_compare_agreement(capsys):
    spec = "hs dual-numbers --pipeline %s --deg-cap 2 --weight-cap 4"
    code, out, _ = run(capsys, "compare", spec % "dg", spec % "bar")
    assert code == 0
    assert "agree" in out


def test_compare_mismatch(capsys):
    left = "hs dual-numbers --pipeline dg --deg-cap 2 --weight-cap 4"
    right = "hs free:1 --pipeline bar --deg-cap 2 --weight-cap 4"
    code, out, _ = run(capsys, "compare", left, right)
    assert code == 1
    assert "mismatch" in out


def test_compare_on_different_caps_warns_and_reads_the_shared_caps(capsys):
    # the dg table has entries beyond (deg 2, weight 4); diff skips them
    code, out, err = run(
        capsys, "compare",
        "hs dual-numbers --pipeline dg --deg-cap 3 --weight-cap 5",
        "hs dual-numbers --pipeline bar --deg-cap 2 --weight-cap 4")
    assert code == 0
    assert out == "tables agree on shared caps (deg<=2, weight<=4)\n"
    assert err == ("warning: cap mismatch, comparing on "
                   "(deg<=2, weight<=4)\n")


def test_compare_poly_bar_and_cobar_agree(capsys):
    # poly:N is k[x_1..x_N] on both routes
    spec = "hs poly:2 --pipeline %s --deg-cap 2 --weight-cap 3"
    code, out, _ = run(capsys, "compare", spec % "bar", spec % "cobar")
    assert code == 0
    assert "agree" in out


def test_dg_hr_and_bar_print_one_k2_table(capsys):
    # hr is hs --pipeline dg, and both routes read --n
    caps = ("--n", "2", "--deg-cap", "2", "--weight-cap", "4",
            "--format", "json")
    outs = set()
    for argv in (["hs", "dual-numbers"], ["hr", "dual-numbers"],
                 ["hs", "dual-numbers", "--pipeline", "bar"]):
        code, out, _ = run(capsys, *argv, *caps)
        assert code == 0
        outs.add(out)
    (out,) = outs
    assert BettiTable.from_json(out).get(0, 1) == 4  # the x_ab, a, b <= 2


@pytest.mark.parametrize("left", ["hs dual-numbers", "hr dual-numbers"])
def test_compare_dg_or_hr_and_bar_agree_at_n_2(capsys, left):
    caps = " --n 2 --deg-cap 2 --weight-cap 4"
    code, out, _ = run(capsys, "compare", left + caps,
                       "hs dual-numbers --pipeline bar" + caps)
    assert code == 0
    assert "agree" in out


@pytest.mark.parametrize("argv", [
    ["hs", "sl2", "--n", "2"],
    ["hs", "sl2", "--pipeline", "closed-form", "--n", "3"],
])
def test_lie_pipeline_refuses_n_other_than_1(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == ""
    assert err.startswith("error:") and err.count("\n") == 1
    assert "no k^n form" in err


def test_parser_is_built_once_per_process(capsys, monkeypatch):
    cli.main(["deltaS", "psi", "(x0)"])
    built = []
    real_init = argparse.ArgumentParser.__init__

    def counting_init(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        real_init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
    spec = "hs dual-numbers --pipeline %s --deg-cap 1 --weight-cap 2"
    for argv in (["deltaS", "factor", "(x1 x0)"],
                 ["compare", spec % "dg", spec % "bar"],
                 ["hr", "free:1", "--deg-cap", "1", "--weight-cap", "2"]):
        assert cli.main(argv) == 0
    assert built == []


def _outcome(capsys, argv):
    """(exit code, stdout) of one main call; an argparse rejection exits
    through SystemExit."""
    try:
        code = cli.main(argv)
    except SystemExit as exc:
        code = exc.code
    return code, capsys.readouterr().out


def test_no_parse_leaks_into_the_next(capsys):
    # hr sets pipeline and --n; hs takes the default pipeline and caps; a
    # rejected parse, a compare that re-parses, and an unrelated command
    spec = "hs dual-numbers --pipeline %s --deg-cap 2 --weight-cap 4"
    jobs = [
        ["hr", "dual-numbers", "--n", "2", "--deg-cap", "2",
         "--weight-cap", "3", "--format", "json"],
        ["hs", "dual-numbers", "--format", "json"],
        ["hs", "dual-numbers", "--deg-cap", "-1"],
        ["compare", spec % "dg", spec % "bar"],
        ["deltaS", "psi", "(x1 x0)|(x2)"],
    ]
    fresh = []
    for argv in jobs:
        cli.build_parser.cache_clear()  # each job on a parser of its own
        fresh.append(_outcome(capsys, argv))
    forward = [_outcome(capsys, argv) for argv in jobs]
    backward = [_outcome(capsys, argv) for argv in reversed(jobs)][::-1]
    assert forward == backward == fresh
    assert [code for code, _ in fresh] == [0, 0, 2, 0, 0]


def test_poly_in_twenty_variables_runs_on_bar(capsys):
    # the truncated algebra has C(22, 2) = 231 monomials
    code, out, _ = run(capsys, "hs", "poly:20", "--pipeline", "bar",
                       "--deg-cap", "1", "--weight-cap", "2",
                       "--format", "json")
    table = BettiTable.from_json(out)
    assert code == 0
    assert [table.get(0, w) for w in range(3)] == [1, 20, 210]
    assert table.get(1, 2) == 190  # C(20, 2)


def test_cache_round_trip(tmp_path, capsys):
    args = ("hs", "dual-numbers", "--pipeline", "dg", "--deg-cap", "2",
            "--weight-cap", "4", "--format", "json",
            "--cache-dir", str(tmp_path))
    code1, out1, _ = run(capsys, *args)
    files = os.listdir(tmp_path)
    assert code1 == 0 and len(files) == 1
    record = json.loads((tmp_path / files[0]).read_text())
    assert "result" in record and "wall_time" in record
    code2, out2, _ = run(capsys, *args)
    assert code2 == 0 and out2 == out1  # byte-identical replay


def test_cache_env_var(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("SYMHOM_CACHE_DIR", str(tmp_path))
    code, _, _ = run(capsys, "hs", "dual-numbers", "--pipeline", "dg",
                     "--deg-cap", "1", "--weight-cap", "2")
    assert code == 0
    assert os.listdir(tmp_path)


def test_unwritable_cache_dir_is_a_one_line_error(tmp_path, capsys):
    # the cache dir is a file: reading an entry misses, writing one fails
    path = tmp_path / "not-a-dir"
    path.write_text("")
    code, out, err = run(capsys, "hs", "dual-numbers", "--deg-cap", "1",
                         "--weight-cap", "2", "--cache-dir", str(path))
    assert code == 2 and out == ""
    assert err.startswith("error: cache dir %s " % path)
    assert err.count("\n") == 1


def test_selftest(capsys):
    code, out, _ = run(capsys, "selftest")
    assert code == 0
    assert "FAIL" not in out


def test_unknown_input_exits(capsys):
    with pytest.raises(SystemExit):
        cli.main(["hs", "no-such-thing", "--pipeline", "bar"])


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["--version"])
    assert exc.value.code == 0


def test_json_input_round_trip(tmp_path, capsys):
    path = tmp_path / "res.json"
    path.write_text(dual_numbers_resolution(3).to_json())
    code, out, _ = run(capsys, "hs", str(path), "--deg-cap", "2",
                       "--weight-cap", "4", "--format", "json")
    code2, out2, _ = run(capsys, "hs", "dual-numbers", "--pipeline", "dg",
                         "--deg-cap", "2", "--weight-cap", "4",
                         "--format", "json")
    assert code == code2 == 0
    assert out == out2


def _other_job(record):
    record["job"]["deg_cap"] = 99
    record["result"]["entries"] = []


def _bad_entries(record):
    record["result"]["entries"] = 5


def _no_deg_cap(record):
    del record["result"]["deg_cap"]


def _other_caps(record):
    record["result"]["weight_cap"] = 3


def _past_the_caps(record):
    record["result"]["entries"].append([2, 5, 1])


def _float_dimension(record):
    record["result"]["entries"][0][2] = 1.5


def _float_position(record):
    record["result"]["entries"][1][0] = 0.5


def _bool_position(record):
    record["result"]["entries"][1][0] = True


def _float_cap(record):
    record["result"]["weight_cap"] = 4.0


def _bool_cap(record):
    record["result"]["deg_cap"] = True  # equals the job's deg_cap 1


def _repeated_entry(record):
    record["result"]["entries"].append(record["result"]["entries"][0])


@pytest.mark.parametrize("damage", [None, _other_job, _bad_entries,
                                    _no_deg_cap, _other_caps,
                                    _past_the_caps, _float_dimension,
                                    _float_position, _bool_position,
                                    _float_cap, _bool_cap, _repeated_entry],
                         ids=["truncate", "other-job", "bad-entries",
                              "no-deg-cap", "other-caps", "past-the-caps",
                              "float-dimension", "float-position",
                              "bool-position", "float-cap", "bool-cap",
                              "repeated-entry"])
def test_damaged_cache_entry_is_a_miss_and_rewritten(tmp_path, capsys,
                                                     damage):
    args = ("hs", "dual-numbers", "--pipeline", "dg", "--deg-cap", "1",
            "--weight-cap", "4", "--format", "json",
            "--cache-dir", str(tmp_path))
    code1, out1, _ = run(capsys, *args)
    (entry,) = tmp_path.iterdir()
    good = entry.read_text()
    if damage is None:
        entry.write_text(good[:len(good) // 2])
    else:
        record = json.loads(good)
        damage(record)
        entry.write_text(json.dumps(record))
    code2, out2, _ = run(capsys, *args)
    assert code1 == code2 == 0 and out2 == out1
    assert json.loads(entry.read_text()) == {
        **json.loads(good), "wall_time": mock.ANY}
    assert os.listdir(tmp_path) == [entry.name]  # no temp file left


def test_rewritten_json_input_is_not_served_its_old_entry(tmp_path, capsys):
    path = tmp_path / "a.json"
    args = ("hs", str(path), "--pipeline", "bar", "--deg-cap", "1",
            "--weight-cap", "3", "--format", "csv",
            "--cache-dir", str(tmp_path / "cache"))
    rows = []
    for algebra in (dual_numbers_algebra(), truncated_poly_algebra(3)):
        path.write_text(algebra.to_json())
        code, out, _ = run(capsys, *args)
        assert code == 0
        rows.append(out.splitlines()[1])
    assert rows == ["0,1,1,0,0", "0,1,1,1,1"]
    # the entry of a file carries the digest of the bytes it was read from
    jobs = [json.loads(entry.read_text())["job"]
            for entry in (tmp_path / "cache").iterdir()]
    assert sorted(job["sha256"] for job in jobs) == sorted(
        hashlib.sha256(a.to_json().encode()).hexdigest()
        for a in (dual_numbers_algebra(), truncated_poly_algebra(3)))


@pytest.mark.parametrize("extra", [{}, {"augmentation": {"1": "1", "x": "0"}}],
                         ids=["connected", "old-augmentation-key"])
def test_connected_graded_json_algebra_runs_on_bar(tmp_path, capsys, extra):
    # the augmentation is the unit coefficient, read off the weights; a
    # file that still names it loads as before
    path = tmp_path / "a.json"
    path.write_text(json.dumps({
        "basis": ["1", "x"], "unit": {"1": "1"},
        "mult": [["1", "1", {"1": "1"}], ["1", "x", {"x": "1"}],
                 ["x", "1", {"x": "1"}]],
        "weights": {"1": 0, "x": 1}, **extra}))
    caps = ("--pipeline", "bar", "--deg-cap", "2", "--weight-cap", "4",
            "--format", "json")
    code, out, _ = run(capsys, "hs", str(path), *caps)
    code2, out2, _ = run(capsys, "hs", "dual-numbers", *caps)
    assert code == code2 == 0 and out == out2


@pytest.mark.parametrize("pipeline", [[], ["--pipeline", "dg"]],
                         ids=["sniffed", "named"])
def test_a_json_input_is_opened_once_per_job(tmp_path, capsys, monkeypatch,
                                             pipeline):
    # its cache hash, its sniffed kind and its parse see the same bytes, so
    # a file rewritten mid-job cannot be cached under its old hash
    path = tmp_path / "res.json"
    path.write_text(dual_numbers_resolution(3).to_json())
    opened = []

    def counting_open(file, *args, **kwargs):
        opened.append(file)
        return open(file, *args, **kwargs)

    monkeypatch.setattr(cli, "open", counting_open, raising=False)
    code, _, _ = run(capsys, "hs", str(path), *pipeline, "--deg-cap", "1",
                     "--weight-cap", "2", "--cache-dir", str(tmp_path / "c"))
    assert code == 0 and opened.count(str(path)) == 1


def test_rep_n_entry_names_stay_unique_past_n_9(capsys):
    # unpadded, the entries (1, 11) and (11, 1) of x would both be x:111
    code, out, _ = run(capsys, "hr", "free:1", "--n", "11", "--deg-cap", "0",
                       "--weight-cap", "1", "--format", "json")
    assert code == 0 and BettiTable.from_json(out).get(0, 1) == 121


def test_builtin_cache_job_names_only_the_input(tmp_path, capsys):
    run(capsys, "hr", "free:1", "--deg-cap", "1", "--weight-cap", "2",
        "--cache-dir", str(tmp_path))
    (entry,) = tmp_path.iterdir()
    assert json.loads(entry.read_text())["job"] == {
        "cmd": "hs", "input": "free:1", "pipeline": "dg", "deg_cap": 1,
        "weight_cap": 2, "n": 1}


@pytest.mark.parametrize("argv", [
    ["hs0", "m2", "--cache-dir", "D"],
    ["ce", "sl2", "--cache-dir", "D"],
    ["compare", "--format", "json", "hs sl2", "hs sl2"],
    ["selftest", "--cache-dir", "D"],
])
def test_option_a_command_does_not_read_exits_2(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        cli.main(argv)
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


@pytest.mark.parametrize("pipeline, text", [
    ("bar", '{"mult": [], "unit": {}}'),
    ("bar", '{"basis": ["1", "x"], "mult": ['),
    ("dg", '{"generators": [{"name": "x", "hdeg": 0}]}'),
    ("cobar", '{"basis": [{"hdeg": 0}]}'),
    ("cobar", '{"basis": [{"name": "x", "hdeg": -1}]}'),
    (None, '{"mult": '),
    (None, '[1, 2]'),
    # a grading must be integral: no generator or basis element dropped
    (None, '{"generators": [{"name": "x", "hdeg": 0, "weight": 1}, '
           '{"name": "t", "hdeg": 0.5, "weight": 2}]}'),
    ("bar", '{"basis": ["1", "x"], "unit": {"1": "1"}, "mult": '
            '[["1", "1", {"1": "1"}], ["1", "x", {"x": "1"}], '
            '["x", "1", {"x": "1"}]], "weights": {"1": 0, "x": 1.5}, '
            '"augmentation": {"1": "1", "x": "0"}}'),
    # a zero denominator in each kind, and an infinite float
    ("bar", '{"basis": ["1"], "unit": {"1": "1/0"}, "mult": []}'),
    ("dg", '{"generators": [{"name": "x", "hdeg": 0, "weight": 1}, '
           '{"name": "t", "hdeg": 1, "weight": 2}], '
           '"differential": [["t", [[["x", "x"], "1/0"]]]]}'),
    ("cobar", '{"basis": [{"name": "x"}, {"name": "y"}], '
              '"bracket": [["x", "y", {"x": "1/0"}]]}'),
    ("bar", '{"basis": ["1"], "unit": {"1": Infinity}, "mult": []}'),
    # a JSON boolean is no scalar
    ("bar", '{"basis": ["1", "x"], "unit": {"1": true}, "mult": '
            '[["1", "1", {"1": "1"}], ["1", "x", {"x": "1"}], '
            '["x", "1", {"x": "1"}]], "weights": {"1": 0, "x": 1}}'),
    # a truncation is an integer >= 0, as the weights are
    ("bar", '{"basis": ["1", "x"], "unit": {"1": "1"}, "mult": '
            '[["1", "1", {"1": "1"}], ["1", "x", {"x": "1"}], '
            '["x", "1", {"x": "1"}]], "weights": {"1": 0, "x": 1}, '
            '"truncation": true}'),
    ("bar", '{"basis": ["1", "x"], "unit": {"1": "1"}, "mult": '
            '[["1", "1", {"1": "1"}], ["1", "x", {"x": "1"}], '
            '["x", "1", {"x": "1"}]], "weights": {"1": 0, "x": 1}, '
            '"truncation": 1.5}'),
    # d(d(u)) = d(t x) = x x x
    ("dg", '{"generators": [{"name": "x", "hdeg": 0, "weight": 1}, '
           '{"name": "t", "hdeg": 1, "weight": 2}, '
           '{"name": "u", "hdeg": 2, "weight": 3}], "differential": '
           '[["t", [[["x", "x"], "1"]]], ["u", [[["t", "x"], "1"]]]]}'),
    # a Lie algebra with [x, x] != 0 for an even x, and with d of degree 0
    ("cobar", '{"basis": [{"name": "x"}], "bracket": [["x", "x", {"x": 1}]]}'),
    ("cobar", '{"basis": [{"name": "x"}, {"name": "y"}], '
              '"differential": {"x": {"y": 1}}}'),
    # a differential on a generator the resolution does not have
    ("dg", '{"generators": [{"name": "x", "hdeg": 0, "weight": 1}], '
           '"differential": [["t", [[["x", "x"], "1"]]]]}'),
    # an algebra with a repeated basis name, and one truncated without
    # a weight grading
    ("bar", '{"basis": ["1", "1"], "unit": {"1": "1"}, "mult": '
            '[["1", "1", {"1": "1"}]], "weights": {"1": 0}}'),
    ("bar", '{"basis": ["1", "x"], "unit": {"1": "1"}, "mult": '
            '[["1", "1", {"1": "1"}], ["1", "x", {"x": "1"}], '
            '["x", "1", {"x": "1"}]], "truncation": 1}'),
    # a resolution whose generators are not a list
    (None, '{"generators": 5}'),
])
def test_bad_json_input_is_a_one_line_error(tmp_path, capsys, pipeline,
                                            text):
    path = tmp_path / "input.json"
    path.write_text(text)
    argv = ["hs", str(path), "--deg-cap", "1", "--weight-cap", "2"]
    if pipeline:
        argv += ["--pipeline", pipeline]
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == ""
    assert err.startswith("error:") and err.count("\n") == 1
    assert str(path) in err


def test_lie_json_failing_leibniz_exits_2(tmp_path, capsys):
    # [a1, a2] = 0, but [d a1, a2] = 2 [a0, a2] = 2 a2
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({
        "basis": [{"name": "a0", "hdeg": 0}, {"name": "a1", "hdeg": 1},
                  {"name": "a2", "hdeg": 2}],
        "bracket": [["a0", "a2", {"a2": 1}]],
        "differential": {"a1": {"a0": 2}}}))
    for argv in (["ce", str(path), "--deg-cap", "3"],
                 ["hs", str(path), "--pipeline", "cobar", "--deg-cap", "1",
                  "--weight-cap", "2"]):
        code, out, err = run(capsys, *argv)
        assert code == 2 and out == ""
        assert err.startswith("error:") and err.count("\n") == 1
        assert "d not a bracket derivation" in err


def test_over_budget_exits_3_with_one_error_line(capsys, monkeypatch):
    # the real bar route, with a budget its basis crosses in the block of
    # level 2 and weight 5
    monkeypatch.setattr(cli, "hr_via_bar",
                        functools.partial(hr_via_bar, budget=50))
    code, out, err = run(capsys, "hs", "dual-numbers", "--pipeline", "bar",
                         "--deg-cap", "3", "--weight-cap", "5")
    assert code == 3 and out == ""
    assert err == ("error: bar complex exceeds budget 50 at "
                   "(level, weight) = (2, 5)\n")


def test_coequalizer_over_budget_exits_3_before_building(capsys,
                                                         monkeypatch):
    # the relations are the first merge's on orbits: over M_2, hs0 needs
    # 16 * C(31, 4) = 503,440 of them at arity cap 29 (438,480 at cap 28)
    # and hc0 needs 4^2 + ... + 4^10 = 1,398,096 at cap 10 (349,520 at cap
    # 9); the budget is checked on the count, before any relation is built,
    # and the count stops at the arity that crosses it, so a cap far past
    # it exits as fast, and its total, too long to print, is never formed
    monkeypatch.setattr(deltas, "b_sym_action", None)
    for cmd, cap in (("hs0", "29"), ("hc0", "10"), ("hc0", "8000"),
                     ("hs0", "1000000000000")):
        code, out, err = run(capsys, cmd, "m2", "--arity-cap", cap)
        assert code == 3 and out == ""
        assert err.startswith("error: coequalizer at arity cap %s " % cap)
        assert err.count("\n") == 1


def test_coequalizer_within_budget_at_arity_cap_9(capsys):
    # 5,280 relations, within the budget
    code, out, err = run(capsys, "hs0", "m2", "--arity-cap", "9")
    assert (code, out, err) == (0, "0\n", "")


def test_default_and_named_pipeline_share_one_cache_entry(tmp_path,
                                                          capsys):
    path = tmp_path / "res.json"
    path.write_text(dual_numbers_resolution(3).to_json())
    for name in ("dual-numbers", str(path)):
        cache = tmp_path / ("cache-" + os.path.basename(name))
        args = ("hs", name, "--deg-cap", "1", "--weight-cap", "2",
                "--cache-dir", str(cache))
        code1, default, _ = run(capsys, *args)
        code2, named, _ = run(capsys, *args, "--pipeline", "dg")
        assert code1 == code2 == 0 and default == named
        (entry,) = cache.iterdir()
        assert json.loads(entry.read_text())["job"]["pipeline"] == "dg"


def test_entry_cached_under_the_old_key_is_not_served(tmp_path, capsys):
    args = ("hs", "dual-numbers", "--pipeline", "dg", "--deg-cap", "2",
            "--weight-cap", "4", "--format", "json",
            "--cache-dir", str(tmp_path))
    code1, fresh, _ = run(capsys, *args)
    (entry,) = tmp_path.iterdir()
    record = json.loads(entry.read_text())
    entry.unlink()
    # the key before the algorithm version was part of it, holding a
    # table that no current route computes
    old_key = hashlib.sha256((json.dumps(record["job"], sort_keys=True)
                              + "|" + __version__).encode()).hexdigest()
    record["result"]["entries"] = []
    (tmp_path / (old_key + ".json")).write_text(json.dumps(record))
    code2, out, _ = run(capsys, *args)
    assert code1 == code2 == 0 and out == fresh


def test_dg_entry_of_version_3_is_not_served(tmp_path, capsys):
    args = ("hs", "dual-numbers", "--pipeline", "dg", "--n", "2",
            "--deg-cap", "2", "--weight-cap", "4", "--format", "json")
    code1, fresh, _ = run(capsys, *args, "--cache-dir", str(tmp_path))
    (entry,) = tmp_path.iterdir()
    record = json.loads(entry.read_text())
    entry.unlink()
    # algorithm version 3 cached the n = 1 table for every --n of dg
    _, stale, _ = run(capsys, *args[:4], *args[6:])
    record["result"] = json.loads(stale)
    assert record["result"] != json.loads(fresh)
    old_key = hashlib.sha256((json.dumps(record["job"], sort_keys=True)
                              + "|" + __version__ + "|3").encode()).hexdigest()
    (tmp_path / (old_key + ".json")).write_text(json.dumps(record))
    code2, out, _ = run(capsys, *args, "--cache-dir", str(tmp_path))
    assert code1 == code2 == 0 and out == fresh


@pytest.mark.parametrize("argv", [
    ["hs", "dual-numbers", "--pipeline", "bar", "--deg-cap", "-2"],
    ["hs", "dual-numbers", "--weight-cap", "-1"],
    ["ce", "sl2", "--deg-cap", "-3"],
    ["hs", "poly:-1", "--deg-cap", "1", "--weight-cap", "2"],
    ["hs", "free:0", "--pipeline", "bar"],
    ["hs", "no-such-input"],
    ["hs", "dual-numbers", "--n", "0"],
    ["hr", "free:1", "--n", "-1"],
    ["hs", "poly:x"],
])
def test_out_of_range_value_exits_2_with_one_error_line(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        cli.main(argv)
    out = capsys.readouterr()
    assert exc.value.code == 2 and out.out == ""
    assert len([line for line in out.err.splitlines()
                if "error:" in line]) == 1


@pytest.mark.parametrize("name, kind", [
    (name, kind) for name, kinds in cli.BUILTINS.items() for kind in kinds],
    ids=lambda x: x.partition(":")[0])
def test_every_builtin_kind_loads(name, kind):
    types = {"resolution": FreeDGAlgebra, "algebra": FinDimAlgebra,
             "lie": DGLie}
    head, sized, _ = name.partition(":")
    for spelling in (head, head + ":2") if sized else (name,):
        got, value = cli.load(spelling, kind, deg_cap=2, weight_cap=3)
        assert got == kind and isinstance(value, types[kind])


def test_load_of_a_missing_file_is_a_value_error(tmp_path):
    with pytest.raises(ValueError, match="cannot be read"):
        cli.load(str(tmp_path / "gone.json"))


def test_default_pipelines():
    default = {name: cli.KINDS[next(iter(kinds))][0]
               for name, kinds in cli.BUILTINS.items()}
    assert default == {
        "dual-numbers": "dg", "free:N": "bar", "m2": "bar", "ut2": "bar",
        "poly:N": "cobar", "abelian:N": "cobar", "sl2": "cobar",
        "heisenberg": "cobar", "nab2": "cobar"}


def test_json_path_with_a_colon_is_a_path(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    outs = []
    for name in ("res.json", "res:1.json"):
        (tmp_path / name).write_text(dual_numbers_resolution(3).to_json())
        code, out, _ = run(capsys, "hs", name, "--deg-cap", "2",
                           "--weight-cap", "4", "--format", "json")
        assert code == 0
        outs.append(out)
    assert outs[0] == outs[1]


@pytest.mark.parametrize("tok", ["x", "xa", "x+1", "x-1"])
def test_deltas_bad_variable_names_the_token(capsys, tok):
    code, out, err = run(capsys, "deltaS", "factor", "(%s)" % tok)
    assert code == 2 and out == ""
    assert err.strip() == "error: deltaS factor: bad variable %r" % tok


@pytest.mark.parametrize("argv", [
    ["hs", "no-such-input"],
    ["hs", "sl2", "--pipeline", "bar"],
    ["hs", "m2", "--pipeline", "dg"],
    ["compare", "hs0 m2", "hs sl2"],
    ["hs0", "m2:3"],
    ["hs", "sl2:4"],
    ["deltaS", "compose", "(x0)"],
    ["deltaS", "factor", "(x0)|(x1)", "extra"],
    ["deltaS", "psi", "(x0)", "(x0)"],
    ["deltaS", "factor", "1"],
    ["deltaS", "compose", "(x0 x0)", "(x0)"],
    ["deltaS", "compose", "(x1 x0)|(x2)", "(x0)|(x2 x1)"],
])
def test_bad_input_exits_2_with_one_error_line(capsys, argv):
    try:
        code = cli.main(argv)
    except SystemExit as exc:  # argparse rejects an unknown input itself
        code = exc.code
    out = capsys.readouterr()
    assert code == 2 and out.out == ""
    assert len([line for line in out.err.splitlines()
                if "error:" in line]) == 1
    if argv[0] == "deltaS":
        assert "deltaS %s" % argv[1] in out.err


@pytest.mark.parametrize("route", [
    lambda: hr_via_bar(dual_numbers_algebra(), -1, 3),
    lambda: abelianize(dual_numbers_resolution(4)).homology_table(-1, 3),
    lambda: hs_env_via_cobar(sl2(), -1, 2),
    lambda: hr_n(dual_numbers_resolution(4), 2, -1, 2),
    lambda: hr_via_bar(dual_numbers_algebra(), 2, -1),
    lambda: BettiTable.from_json('{"deg_cap": 1, "weight_cap": -1, '
                                 '"entries": []}'),
], ids=["bar", "dg", "cobar", "hr-n", "bar-weight", "from-json"])
def test_a_negative_cap_is_a_value_error(route):
    # as the CLI refuses one at argparse, a route called directly gives
    # no empty table for a negative cap
    with pytest.raises(ValueError, match="must be >= 0"):
        route()
