"""Command line behaviour: outputs, exit codes, both input routes."""

import io
import json
import os
import subprocess
import sys

import pytest

import linkalg
from linkalg import cli, span_c, span_m
from linkalg.contention import full
from linkalg.span_c import Cospan, embed_cospan
from linkalg.terms import eval_c, parse


def run(capsys, monkeypatch, argv, stdin=None):
    if stdin is not None:
        monkeypatch.setattr("sys.stdin", io.StringIO(stdin))
    code = cli.main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_eval_prints_one_deterministic_json_line(capsys, monkeypatch):
    code, out, err = run(capsys, monkeypatch, ["eval", "-m", "c", "copy ; merge"])
    assert code == 0 and err == ""
    assert out.count("\n") == 1
    first = out
    obj = json.loads(out)
    assert obj["model"] == "c"
    code, out, _ = run(capsys, monkeypatch, ["eval", "-m", "c", "copy ; merge"])
    assert out == first  # byte-stable across runs
    assert obj == eval_c(parse("copy ; merge")).to_dict()


def test_eval_of_a_deeply_nested_term(capsys, monkeypatch):
    code, out, err = run(capsys, monkeypatch, ["eval", "-m", "c", "(" * 600 + "id" + ")" * 600])
    assert code == 0 and err == ""
    assert json.loads(out) == span_c.identity_span(1).to_dict()


def test_eval_reads_term_from_stdin(capsys, monkeypatch):
    code, from_arg, _ = run(capsys, monkeypatch, ["eval", "-m", "m", "split ; join"])
    code2, from_stdin, _ = run(capsys, monkeypatch, ["eval", "-m", "m"], stdin="split ; join")
    assert code == code2 == 0
    assert from_arg == from_stdin


def test_eval_writes_to_a_file(capsys, monkeypatch, tmp_path):
    out_path = tmp_path / "value.json"
    code, out, _ = run(capsys, monkeypatch, ["eval", "-m", "c", "id", "-o", str(out_path)])
    assert code == 0 and out == ""
    obj = json.loads(out_path.read_text())
    assert obj == span_c.identity_span(1).to_dict()


def test_eq_answers_true_and_false_with_exit_zero(capsys, monkeypatch):
    code, out, _ = run(capsys, monkeypatch, ["eq", "-m", "c", "copy ; merge", "id"])
    assert (code, out) == (0, "true\n")
    code, out, _ = run(capsys, monkeypatch, ["eq", "-m", "c", "split ; join", "id"])
    assert (code, out) == (0, "false\n")
    code, out, _ = run(capsys, monkeypatch, ["eq", "-m", "m", "split ; join", "id"])
    assert (code, out) == (0, "true\n")


def test_eq_witness_is_a_carrier_bijection(capsys, monkeypatch):
    code, out, _ = run(
        capsys, monkeypatch, ["eq", "-m", "c", "--witness", "swap ; swap", "id * id"]
    )
    assert code == 0
    verdict, wit = out.splitlines()
    assert verdict == "true"
    assert sorted(json.loads(wit)) == [0, 1]
    # no witness line when the sides differ
    code, out, _ = run(capsys, monkeypatch, ["eq", "-m", "c", "--witness", "split", "copy"])
    assert (code, out) == (0, "false\n")
    code, out, _ = run(capsys, monkeypatch, ["eq", "-m", "m", "--witness", "copy ; swap", "copy"])
    assert (code, out) == (0, "true\n[0]\n")


def test_model_m_carrier_order_and_witness_are_pinned(capsys, monkeypatch):
    """Every model-m span lists its links sorted, generators too, so
    isomorphic spans are equal and the witness is the identity."""
    code, out, _ = run(capsys, monkeypatch, ["eval", "-m", "m", "split"])
    assert (code, out) == (
        0,
        '{"carrier":2,"left":1,"lleg":[[1],[1]],"model":"m","right":2,"rleg":[[0,1],[1,0]]}\n',
    )
    code, out, _ = run(capsys, monkeypatch, ["eq", "-m", "m", "--witness", "split", "split ; swap"])
    assert (code, out) == (0, "true\n[0,1]\n")
    code, out, _ = run(capsys, monkeypatch, ["eq", "-m", "m", "--witness", "split", "split"])
    assert (code, out) == (0, "true\n[0,1]\n")


def test_eq_boundary_mismatch_is_a_domain_error(capsys, monkeypatch):
    code, out, err = run(capsys, monkeypatch, ["eq", "-m", "c", "copy", "merge"])
    assert code == 1 and out == ""
    assert "boundary mismatch" in err


def test_parse_errors_exit_two(capsys, monkeypatch):
    code, _, err = run(capsys, monkeypatch, ["eq", "-m", "c", "copy ;;", "id"])
    assert code == 2 and "at position" in err
    code, _, err = run(capsys, monkeypatch, ["eval", "-m", "c", "frob"])
    assert code == 2 and "unknown generator" in err


def test_missing_model_flag_is_a_usage_error(capsys, monkeypatch):
    with pytest.raises(SystemExit) as e:
        cli.main(["eval", "copy"])
    assert e.value.code == 2


def test_later_calls_in_one_process_print_what_a_fresh_process_prints(capsys, monkeypatch):
    # help is wrapped to the terminal's width, so fix one for both sides
    monkeypatch.setenv("COLUMNS", "80")
    src = os.path.dirname(os.path.dirname(linkalg.__file__))
    env = {**os.environ, "PYTHONPATH": src}
    calls = [
        ["eval", "-m", "c", "copy ; merge"],
        ["eq", "-m", "c", "--witness", "split ; join", "split ; (join)"],
        ["eval", "-m", "c", "copy ; merge"],
        ["eval", "copy"],
        ["eq", "--help"],
    ]
    for argv in calls:
        fresh = subprocess.run(
            [sys.executable, "-m", "linkalg.cli", *argv], env=env, capture_output=True, text=True, timeout=60
        )
        try:
            here = run(capsys, monkeypatch, argv)
        except SystemExit as exc:  # argparse's usage errors and --help
            here = (exc.code, *capsys.readouterr())
        assert here == (fresh.returncode, fresh.stdout, fresh.stderr), argv


def test_compose_from_files_and_stdin(capsys, monkeypatch, tmp_path):
    gens = span_c.generators()
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    a.write_text(json.dumps(gens["copy"].to_dict()))
    b.write_text(json.dumps(gens["merge"].to_dict()))
    expect = span_c.compose(gens["copy"], gens["merge"]).to_dict()

    code, out, _ = run(capsys, monkeypatch, ["compose", str(a), str(b)])
    assert code == 0 and json.loads(out) == expect
    payload = json.dumps([gens["copy"].to_dict(), gens["merge"].to_dict()])
    code, out2, _ = run(capsys, monkeypatch, ["compose"], stdin=payload)
    assert code == 0 and out2 == out


def test_compose_rejects_mixed_models_and_bad_counts(capsys, monkeypatch, tmp_path):
    c = tmp_path / "c.json"
    m = tmp_path / "m.json"
    c.write_text(json.dumps(span_c.generators()["copy"].to_dict()))
    m.write_text(json.dumps(span_m.generators_m()["merge"].to_dict()))
    code, _, err = run(capsys, monkeypatch, ["compose", str(c), str(m)])
    assert code == 1 and "different models" in err
    code, _, err = run(capsys, monkeypatch, ["compose", "-m", "m", str(c), str(c)])
    assert code == 1 and "not model m" in err
    code, _, err = run(capsys, monkeypatch, ["compose", str(c)])
    assert code == 1 and "exactly two" in err


def test_compose_rejects_invalid_spans(capsys, monkeypatch):
    # model c: two independent links on one port; model m: two equal links
    bad_c = {"model": "c", "left": 1, "right": 1, "carrier": {"size": 2, "contention": []},
             "lleg": [[0], [0]], "rleg": [[0], [0]]}
    bad_m = {"model": "m", "left": 1, "right": 1, "carrier": 2,
             "lleg": [[1], [1]], "rleg": [[1], [1]]}
    for bad, good in ((bad_c, span_c.identity_span(1)), (bad_m, span_m.identity_span_m(1))):
        for pair in ([bad, good.to_dict()], [good.to_dict(), bad]):
            code, out, err = run(capsys, monkeypatch, ["compose"], stdin=json.dumps(pair))
            assert (code, out) == (1, "") and "invalid span" in err


def test_compose_boundary_mismatch_is_a_domain_error(capsys, monkeypatch, tmp_path):
    c = tmp_path / "c.json"
    c.write_text(json.dumps(span_c.generators()["copy"].to_dict()))
    code, _, err = run(capsys, monkeypatch, ["compose", str(c), str(c)])
    assert code == 1 and "boundary mismatch" in err


def test_suite_reports_row_counts(capsys, monkeypatch):
    code, out, _ = run(capsys, monkeypatch, ["suite"])
    assert code == 0
    lines = out.splitlines()
    assert lines[-1] == "59/59 rows as expected"
    assert all(l.endswith("pass") for l in lines[:-1])
    code, out, _ = run(capsys, monkeypatch, ["suite", "-m", "m"])
    assert code == 0 and out.splitlines()[-1] == "28/28 rows as expected"


def test_decompose_round_trips_through_the_cli(capsys, monkeypatch):
    k22 = span_c.span_c(2, 2, full(4), [[0], [0], [1], [1]], [[0], [1], [0], [1]])
    code, out, _ = run(
        capsys, monkeypatch, ["decompose", "-m", "c"], stdin=json.dumps(k22.to_dict())
    )
    assert code == 0
    term = parse(out.strip())
    assert span_c.iso_check(eval_c(term), k22)


def test_decompose_model_flag_must_match_the_json(capsys, monkeypatch):
    loop = span_m.span_m(0, 0, [[]], [[]])
    code, _, err = run(
        capsys, monkeypatch, ["decompose", "-m", "c"], stdin=json.dumps(loop.to_dict())
    )
    assert code == 1 and "flag says c" in err


def test_embed_matches_the_library(capsys, monkeypatch):
    cos = Cospan(2, 1, 2, (0, 1), (0,))
    code, out, _ = run(capsys, monkeypatch, ["embed"], stdin=json.dumps(cos.to_dict()))
    assert code == 0
    assert json.loads(out) == embed_cospan(cos).to_dict()


def test_bad_json_and_missing_files_exit_two(capsys, monkeypatch, tmp_path):
    code, _, err = run(capsys, monkeypatch, ["decompose", "-m", "c"], stdin="{nope")
    assert code == 2
    code, _, err = run(capsys, monkeypatch, ["compose", str(tmp_path / "gone.json"), "-"])
    assert code == 2


@pytest.mark.parametrize("argv", [["compose"], ["decompose", "-m", "m"], ["embed"]])
def test_deeply_nested_json_is_an_input_error(capsys, monkeypatch, argv):
    # deep enough that the JSON decoder gives up with RecursionError
    code, out, err = run(capsys, monkeypatch, argv, stdin="[" * 100000 + "]" * 100000)
    assert (code, out, err) == (2, "", "error: JSON nested too deeply\n")


def test_a_file_that_is_not_utf8_is_an_input_error(capsys, monkeypatch, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_bytes(b"\xff\xfe{}")
    for argv in (["embed", str(bad)], ["decompose", "-m", "c", str(bad)], ["compose", str(bad), str(bad)]):
        code, out, err = run(capsys, monkeypatch, argv)
        assert (code, out) == (2, "") and "can't decode" in err, argv
    # the same bytes on a strictly decoded standard input
    monkeypatch.setattr("sys.stdin", io.TextIOWrapper(io.BytesIO(b"\xff\xfe{}"), encoding="utf-8"))
    code, out, err = run(capsys, monkeypatch, ["embed"])
    assert (code, out) == (2, "") and "can't decode" in err


def test_malformed_span_json_exits_two(capsys, monkeypatch):
    good_m = span_m.identity_span_m(1).to_dict()
    good_c = span_c.identity_span(1).to_dict()
    cases = [
        ({**good_m, "right": True}, "right must be a natural number, got true"),
        ({**good_m, "lleg": [[1.5]]}, "lleg[0][0] must be a natural number, got 1.5"),
        ({k: v for k, v in good_m.items() if k != "carrier"}, 'missing key "carrier"'),
        ({**good_m, "carrier": -1}, "carrier must be a natural number, got -1"),
        ({**good_m, "rleg": [[-1]]}, "rleg[0][0] must be a natural number"),
        ({**good_m, "carrier": 2}, "lleg has 1 entries, expected 2"),
        ({**good_m, "rleg": [[1, 0]]}, "rleg[0] has 2 entries, expected 1"),
        ({**good_c, "left": 1.0}, "left must be a natural number, got 1.0"),
        ({**good_c, "carrier": {"size": True, "contention": []}}, "carrier size must be a natural number"),
        ({**good_c, "carrier": {"size": 1}}, 'missing key "contention"'),
        ({**good_c, "rleg": [[0], [0]]}, "rleg has 2 entries, expected 1"),
        # checked against the legs before a c-set of that size is allocated
        ({**good_c, "carrier": {"size": 10**15, "contention": []}}, "lleg has 1 entries, expected 1000000000000000"),
        ({**good_c, "lleg": [[1]]}, "lleg[0][0] is 1, out of range for size 1"),
        ({**good_c, "model": "x"}, 'needs "model"'),
        ([good_c], "expected a JSON object"),
    ]
    for bad, message in cases:
        good = good_c if isinstance(bad, list) or bad["model"] == "c" else good_m
        code, out, err = run(capsys, monkeypatch, ["compose"], stdin=json.dumps([good, bad]))
        assert (code, out) == (2, "") and message in err, (bad, err)
    for bad, message in (([[1.5]], "lleg[0][0] must be a natural number"), (5, "lleg must be an array, got 5")):
        code, out, err = run(capsys, monkeypatch, ["decompose", "-m", "m"], stdin=json.dumps({**good_m, "lleg": bad}))
        assert (code, out) == (2, "") and message in err
    code, _, err = run(capsys, monkeypatch, ["compose"], stdin=json.dumps([good_m]))
    assert code == 2 and "array of two spans" in err
    cospan = Cospan(2, 1, 2, (0, 1), (0,)).to_dict()
    for bad in ({**cospan, "lmap": [0]}, {**cospan, "rmap": [2]}, {**cospan, "carrier": False}, [cospan]):
        code, out, _ = run(capsys, monkeypatch, ["embed"], stdin=json.dumps(bad))
        assert (code, out) == (2, "")
    # valid shape, too large to build: refused at once, without a traceback
    huge = {**good_c, "left": 10**15, "carrier": {"size": 0, "contention": []}, "lleg": [], "rleg": []}
    for argv, bad in ((["decompose", "-m", "c"], huge), (["embed"], {**cospan, "carrier": 10**15})):
        code, out, err = run(capsys, monkeypatch, argv, stdin=json.dumps(bad))
        assert (code, out, err) == (2, "", "error: input too large to build in memory\n")
