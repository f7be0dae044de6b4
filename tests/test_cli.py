"""Command line behavior: logs, manifests, exit codes, verification."""

import hashlib
import io
import json
import os
import shutil
import subprocess
import sys

import pytest

from fcspread import cli, search
from fcspread.cli import EXIT_FINDINGS, EXIT_OK, EXIT_RUNTIME, EXIT_USAGE
from fcspread.search import FORMAT_VERSION


def _run(tmp_path, argv, name="out.jsonl"):
    out = tmp_path / name
    code = cli.run(argv + ["--output", str(out)])
    lines = out.read_text().splitlines()
    header = json.loads(lines[0])
    records = [json.loads(line) for line in lines[1:]]
    manifest = json.loads((tmp_path / (name + ".manifest.json")).read_text())
    return code, header, records, manifest, out


def _verify(path):
    return cli.run(["verify-log", str(path)])


# ---------------------------------------------------------------------------
# search


def test_search_fc_log_manifest_and_verify(tmp_path):
    code, header, records, manifest, out = _run(
        tmp_path,
        ["search", "fc", "--max-bits", "14", "--threads", "1", "--chunks", "16"],
    )
    assert code == EXIT_OK
    assert header["format"] == "fcspread-result-log"
    assert header["version"] == FORMAT_VERSION
    assert header["subcommand"] == "search fc"
    assert header["config"]["mode"] == "fermat-catalan"
    assert header["config"]["max_bits"] == 14
    cfg = search.SearchConfig.from_dict(header["config"])
    assert header["config_digest"] == cfg.digest()
    assert [tuple(r["values"]) for r in records] == [
        (1, 8, 9), (32, 49, 81), (169, 343, 512),
        (128, 4913, 5041), (243, 14641, 14884),
    ]
    assert manifest["format"] == "fcspread-manifest"
    assert manifest["subcommand"] == "search fc"
    assert manifest["config_digest"] == header["config_digest"]
    assert manifest["totals"] == {
        "chunks": 16, "candidates": manifest["totals"]["candidates"],
        "records": 5, "errors": 0,
    }
    assert manifest["totals"]["candidates"] >= 5
    assert manifest["exit_code"] == EXIT_OK
    assert manifest["output"] == str(out)
    assert manifest["started"] <= manifest["finished"]
    assert _verify(out) == EXIT_OK


def test_search_log_byte_deterministic(tmp_path):
    _, _, _, _, a = _run(
        tmp_path,
        ["search", "fc", "--max-bits", "13", "--threads", "1", "--chunks", "16"],
        name="a.jsonl",
    )
    _, _, _, _, b = _run(
        tmp_path,
        ["search", "fc", "--max-bits", "13", "--threads", "2", "--chunks", "7"],
        name="b.jsonl",
    )
    assert a.read_bytes() == b.read_bytes()


def test_search_modes_with_expectations(tmp_path):
    code, _, records, _, out = _run(
        tmp_path,
        ["search", "nonmaxgcd3", "--max-bits", "24", "--threads", "1"],
        name="n3.jsonl",
    )
    assert code == EXIT_OK
    assert [r["witness"] for r in records] == [
        [16, 16, 17], [64, 64, 65], [112, 112, 113],
    ]
    assert _verify(out) == EXIT_OK

    code, _, records, _, out = _run(
        tmp_path,
        ["search", "gbtz", "--max-bits", "16", "--threads", "1"],
        name="gb.jsonl",
    )
    assert code == EXIT_OK and records == []
    assert _verify(out) == EXIT_OK

    # no exponent pair fits under max_exp 2: the plan is one empty chunk
    code, _, records, manifest, _ = _run(
        tmp_path,
        ["search", "gbtz", "--max-bits", "10", "--max-exp", "2", "--threads", "1"],
        name="none.jsonl",
    )
    assert code == EXIT_OK and records == []
    assert manifest["totals"]["chunks"] == 1

    code, _, records, _, out = _run(
        tmp_path,
        ["search", "pillai", "--difference", "1", "--max-bits", "10",
         "--f-bound", "9/10", "--threads", "1"],
        name="pi.jsonl",
    )
    assert code == EXIT_OK
    assert [(r["x"], r["z"]) for r in records] == [(8, 9)]
    assert _verify(out) == EXIT_OK

    code, _, records, _, out = _run(
        tmp_path,
        ["search", "survey", "--max-bits", "16", "--n-range", "3..5",
         "--m-range", "3..5", "--degree", "2..4", "--threads", "1"],
        name="sv.jsonl",
    )
    assert code == EXIT_OK
    nonzero = {tuple(r["cell"]): r["count"] for r in records if r["count"]}
    assert nonzero == {(3, 4, 3): 1, (4, 3, 3): 1, (5, 3, 3): 1}
    assert _verify(out) == EXIT_OK

    code, _, records, _, out = _run(
        tmp_path,
        ["search", "maxgcd-spread1", "--max-bits", "20", "--degree", "5..6",
         "--threads", "1"],
        name="mg.jsonl",
    )
    assert code == EXIT_OK
    assert records and all(r["standard"] for r in records)
    assert _verify(out) == EXIT_OK


def test_search_checkpoint_resume_reproduces_log(tmp_path):
    fresh = _run(
        tmp_path,
        ["search", "fc", "--max-bits", "14", "--threads", "1", "--chunks", "16"],
        name="fresh.jsonl",
    )[4]
    ckpt = tmp_path / "run.ckpt"
    cfg = search.make_config("fermat-catalan", max_bits=14)
    partial = search.run_chunked(
        cfg, n_chunks=16, checkpoint_path=str(ckpt), max_chunks=3
    )
    assert not partial.completed
    code, _, _, manifest, resumed = _run(
        tmp_path,
        ["search", "fc", "--max-bits", "14", "--threads", "1",
         "--checkpoint", str(ckpt), "--resume"],
        name="resumed.jsonl",
    )
    assert code == EXIT_OK
    assert manifest["checkpoint"] == str(ckpt)
    assert manifest["totals"]["chunks"] == 13  # 16 planned minus 3 done
    assert resumed.read_bytes() == fresh.read_bytes()


def test_search_checkpoint_digest_mismatch(tmp_path):
    ckpt = tmp_path / "run.ckpt"
    cfg = search.make_config("fermat-catalan", max_bits=13)
    search.run_chunked(cfg, n_chunks=4, checkpoint_path=str(ckpt), max_chunks=1)
    code = cli.run(
        ["search", "fc", "--max-bits", "14", "--threads", "1",
         "--checkpoint", str(ckpt), "--resume",
         "--output", str(tmp_path / "x.jsonl")]
    )
    assert code == EXIT_USAGE


def test_search_resume_refuses_corrupt_checkpoint(tmp_path, capsys):
    ckpt = tmp_path / "run.ckpt"
    for text in (None, "{not json", "[1, 2]",
                 json.dumps({"format": "fcspread-checkpoint",
                             "version": FORMAT_VERSION})):
        if text is not None:  # None: the checkpoint file does not exist
            ckpt.write_text(text)
        code = cli.run(
            ["search", "fc", "--max-bits", "10", "--threads", "1",
             "--checkpoint", str(ckpt), "--resume",
             "--output", str(tmp_path / "x.jsonl")]
        )
        assert code == EXIT_USAGE
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "Traceback" not in err


def test_search_resume_needs_checkpoint(tmp_path, capsys):
    code = cli.run(["search", "fc", "--max-bits", "10", "--resume",
                    "--output", str(tmp_path / "x.jsonl")])
    assert code == EXIT_USAGE
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "--checkpoint" in err
    assert "Traceback" not in err


def test_search_usage_errors(tmp_path):
    out = str(tmp_path / "x.jsonl")
    assert cli.run(["search", "fc", "--max-bits", "0", "--output", out]) == EXIT_USAGE
    assert cli.run(["search", "pillai", "--output", out]) == EXIT_USAGE
    assert cli.run(["search", "survey", "--max-bits", "12", "--output", out]) == EXIT_USAGE
    assert cli.run(["search", "warp-drive", "--output", out]) == EXIT_USAGE
    assert cli.run(["search", "fc", "--max-bits", "10", "--chunks", "-3",
                    "--output", out]) == EXIT_USAGE
    assert cli.run(["search", "gbtz", "--coeffs", "2,1,1", "--max-bits", "10",
                    "--output", out]) == EXIT_USAGE
    assert cli.run(["search", "fc", "--max-bits", "10", "--degree", "5..3",
                    "--output", out]) == EXIT_USAGE
    assert cli.run(["search", "fc", "--max-bits", "10", "--q-bound", "1",
                    "--output", out]) == EXIT_USAGE


def test_search_config_file_precedence(tmp_path, capsys):
    cfg_file = tmp_path / "cfg.json"
    cfg_file.write_text(json.dumps({"max_bits": 12}))
    _, header, _, _, _ = _run(
        tmp_path,
        ["search", "fc", "--threads", "1", "--config", str(cfg_file)],
        name="file.jsonl",
    )
    assert header["config"]["max_bits"] == 12
    _, header, _, _, _ = _run(
        tmp_path,
        ["search", "fc", "--threads", "1", "--config", str(cfg_file),
         "--max-bits", "14"],
        name="flag.jsonl",
    )
    assert header["config"]["max_bits"] == 14  # flags beat the file

    bad = tmp_path / "bad.json"
    bad.write_text("{nope")
    assert cli.run(["search", "fc", "--config", str(bad),
                    "--output", str(tmp_path / "x.jsonl")]) == EXIT_USAGE
    arr = tmp_path / "arr.json"
    arr.write_text("[1, 2]")
    assert cli.run(["search", "fc", "--config", str(arr),
                    "--output", str(tmp_path / "x.jsonl")]) == EXIT_USAGE

    # malformed ranges and coefficients are refused up front, not mid-run
    capsys.readouterr()
    for mode, shape in (
        ("survey", {"n_range": [5], "m_range": [2, 3]}),
        ("survey", {"n_range": [5, 3], "m_range": [2, 3]}),
        ("survey", {"n_range": [2, 3], "m_range": [0, 3]}),
        ("fc", {"coeffs": [1, 2]}),
        ("fc", {"f_bound": None}),  # a null is not the dataclass default
        ("fc", {"f_strict": None}),
        ("gbtz", {"f_bound": None}),
        ("nonmaxgcd3", {"degree": [3, 5]}),  # the degree-3 mode
        ("fc", {"difference": 3}),  # a field fc does not read
    ):
        shaped = tmp_path / "shape.json"
        shaped.write_text(json.dumps(dict(shape, max_bits=10)))
        assert cli.run(["search", mode, "--config", str(shaped), "--threads", "1",
                        "--output", str(tmp_path / "x.jsonl")]) == EXIT_USAGE
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "Traceback" not in err
    assert cli.run(["search", "nonmaxgcd3", "--degree", "4..6", "--threads", "1",
                    "--max-bits", "10", "--output", str(tmp_path / "x.jsonl")]
                   ) == EXIT_USAGE
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "degree 3" in err and "Traceback" not in err
    # a field the mode does not read is refused, not folded into the digest
    for argv, field in ((["pillai", "--difference", "1", "--sign", "minus"], "sign"),
                        (["gbtz", "--m-bound", "1"], "m_bound"),
                        (["maxgcd-spread1", "--f-bound", "1/2"], "f_bound")):
        assert cli.run(["search"] + argv + ["--max-bits", "10", "--threads", "1",
                                            "--output", str(tmp_path / "x.jsonl")]
                       ) == EXIT_USAGE
        err = capsys.readouterr().err
        assert err == f"error: {argv[0]} mode does not use {field}\n"


@pytest.mark.parametrize("argv", [
    "search fc --max-bits 10 --threads 1",
    "search gbtz --max-bits 12 --threads 1",
    "decompose 4352 --degree 3 --max-spread 1",
    "abc scan --limit 1000",
    "abc filter --limit 50 --eps 1/5",
    "abc check --classic 1/4 --input {triples}",
    "radical 720",
])
def test_config_file_keys_are_read_or_refused(tmp_path, capsys, argv):
    triples = tmp_path / "triples.txt"
    triples.write_text("1 8\n5 27\n")
    argv = argv.format(triples=triples).split()
    _, header, records, _, _ = _run(tmp_path, argv, name="first.jsonl")
    # the header's config, positional values and format included, is a
    # config file that reproduces the run
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(header["config"]))
    flagless = argv[:2]
    if argv[0] == "abc" and argv[1] == "check":
        flagless += ["--input", str(triples)]
    _, header2, records2, _, _ = _run(
        tmp_path, flagless + ["--config", str(cfg)], name="second.jsonl"
    )
    assert (header2["config"], records2) == (header["config"], records)

    capsys.readouterr()
    out = ["--output", str(tmp_path / "x.jsonl")]
    # q_bound is an abc filter key that searches no longer read
    for key in ("limt", "q_bound") if argv[1] != "filter" else ("limt",):
        cfg.write_text(json.dumps(dict(header["config"], **{key: 9})))
        assert cli.run(flagless + ["--config", str(cfg)] + out) == EXIT_USAGE
        assert capsys.readouterr().err == f"error: unknown config key {key}\n"
    positional = {"search": "mode", "decompose": "value", "radical": "n"}.get(argv[0])
    if positional:
        other = {"mode": "fp", "value": 4353, "n": 721}[positional]
        cfg.write_text(json.dumps(dict(header["config"], **{positional: other})))
        assert cli.run(flagless + ["--config", str(cfg)] + out) == EXIT_USAGE
        assert capsys.readouterr().err.startswith(f"error: config {positional} ")


def test_config_file_values_are_checked(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    out = ["--output", str(tmp_path / "x.jsonl")]
    triples = tmp_path / "triples.txt"
    triples.write_text("1 8\n")
    for argv, doc in (
        (["abc", "scan"], {"limit": "many"}),
        (["abc", "filter"], {"limit": [9]}),
        (["abc", "check", "--input", str(triples)], {"classic": 5}),
        (["abc", "check", "--input", str(triples)], {"classic": [["0", "1"]]}),
        (["abc", "check", "--input", str(triples), "--classic", "abc"], {}),
        (["gen", "standard"], {"v": 2}),  # gen and catalog read no key
        (["catalog", "fc"], {"max_bits": 14}),
        (["decompose", "5041", "--degree", "2"], {"max_spread": "x"}),
        (["decompose", "5041"], {"degree": [2]}),
        (["decompose", "5041"], {"degree": 3.5}),
        # a bool or float in an integer field is refused, not coerced
        (["search", "gbtz"], {"degree": [3.5, 5]}),
        (["search", "gbtz"], {"max_bits": 20.0}),
        (["search", "gbtz"], {"max_spread": 1.5}),
        (["search", "pillai"], {"difference": True}),
        (["search", "fc", "--max-bits", "12"], {"f_strict": 1}),
        (["search", "fc", "--max-bits", "12"], {"coeffs": [1, 1, True]}),
    ):
        cfg.write_text(json.dumps(doc))
        assert cli.run(argv + ["--config", str(cfg)] + out) == EXIT_USAGE, argv
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "Traceback" not in err


# ---------------------------------------------------------------------------
# decompose, gen, catalog


def test_decompose_cli(tmp_path):
    code, header, records, _, out = _run(
        tmp_path, ["decompose", "5041", "--degree", "2", "--max-spread", "1"]
    )
    assert code == EXIT_OK
    assert header["subcommand"] == "decompose"
    assert [r["factors"] for r in records] == [[71, 71]]
    assert records[0]["kind"] == "decomposition"
    assert _verify(out) == EXIT_OK

    code, _, records, _, out = _run(
        tmp_path,
        ["decompose", "1679616", "--degree", "2..8", "--max-spread", "2"],
        name="d2.jsonl",
    )
    assert code == EXIT_OK
    assert [r["degree"] for r in records] == [2, 4, 5, 8]
    assert _verify(out) == EXIT_OK

    assert cli.run(["decompose", "576", "--output", str(tmp_path / "x")]) == EXIT_USAGE


def test_degrees_past_the_recursion_limit(tmp_path):
    code, _, records, _, out = _run(tmp_path, ["decompose", "1", "--degree", "1000"])
    assert code == EXIT_OK and [r["factors"] for r in records] == [[1] * 1000]
    assert _verify(out) == EXIT_OK
    # the only spread-0 product of degree 1000 is 1, and 1 - 1 is no product
    code, _, records, _, out = _run(
        tmp_path, ["search", "pillai", "--difference", "1", "--degree", "1000..1000",
                   "--max-bits", "20"], name="pillai.jsonl")
    assert code == EXIT_OK and records == []
    assert _verify(out) == EXIT_OK
    assert cli.run(["decompose", "0", "--degree", "2",
                    "--output", str(tmp_path / "x")]) == EXIT_USAGE


def test_gen_standard_and_failure(tmp_path):
    code, header, records, _, out = _run(tmp_path, ["gen", "standard"])
    assert code == EXIT_OK
    rec = records[0]
    assert (rec["x"], rec["y"], rec["z"]) == (512, 64, 576)
    assert rec["z_factors"] == [8, 8, 9]
    assert header["subcommand"] == "gen standard"
    assert _verify(out) == EXIT_OK

    code, _, records, manifest, out = _run(
        tmp_path, ["gen", "standard", "--v", "2", "--w", "1", "--n", "3"],
        name="fail.jsonl",
    )
    assert code == EXIT_FINDINGS
    rec = records[0]
    assert rec["kind"] == "identity-failure"
    assert (rec["lhs"], rec["rhs"]) == (16, 12)
    assert manifest["exit_code"] == EXIT_FINDINGS
    assert _verify(out) == EXIT_OK  # the failure record itself is accurate

    assert cli.run(["gen", "standard", "--v", "0",
                    "--output", str(tmp_path / "x")]) == EXIT_USAGE


def test_gen_other_families(tmp_path):
    code, _, records, _, out = _run(
        tmp_path, ["gen", "maxgcd-trivial", "--x", "3", "--p", "6"]
    )
    assert code == EXIT_OK
    assert records[0]["z"] == 972
    assert records[0]["weight"] == "7/10"
    assert _verify(out) == EXIT_OK

    code, _, records, _, out = _run(tmp_path, ["gen", "pythagorean"], name="p.jsonl")
    assert code == EXIT_OK
    assert records[0]["weight"] == "47/60"  # 1/4 + 1/5 + 1/3
    assert _verify(out) == EXIT_OK
    assert cli.run(["gen", "pythagorean", "--n", "3",
                    "--output", str(tmp_path / "x")]) == EXIT_USAGE

    code, _, records, _, out = _run(
        tmp_path, ["gen", "counterexample", "--a", "2", "--alpha", "3"],
        name="c.jsonl",
    )
    assert code == EXIT_OK
    assert records[0]["z"] == 64
    assert records[0]["weight"] == "503/300"
    assert records[0]["checks"]["naive_admits"] is True
    assert _verify(out) == EXIT_OK


def test_catalog_cli(tmp_path):
    code, _, records, _, out = _run(tmp_path, ["catalog", "fc"])
    assert code == EXIT_OK and len(records) == 10
    assert _verify(out) == EXIT_OK

    code, _, records, _, _ = _run(
        tmp_path, ["catalog", "fc", "--max-bits", "14"], name="c14.jsonl"
    )
    assert len(records) == 5

    code, _, records, _, out = _run(tmp_path, ["catalog", "degree3"], name="d3.jsonl")
    assert code == EXIT_OK and len(records) == 4
    assert all(r["sign"] == "minus" for r in records)
    assert _verify(out) == EXIT_OK


# ---------------------------------------------------------------------------
# abc subcommands


def test_abc_check_cli(tmp_path):
    data = tmp_path / "triples.txt"
    data.write_text("1 8 9\n2 6436341\n2 4\n")
    code, header, records, manifest, out = _run(
        tmp_path, ["abc", "check", "--input", str(data), "--classic", "1/5,1"]
    )
    assert code == EXIT_USAGE  # parse errors, no explicit failures
    assert len(records) == 2
    assert records[0]["kind"] == "abc-check"
    assert records[1]["rad_bc"] == 7521
    assert records[0]["classic"] == [
        {"eps": "1/5", "C": "1", "verdict": "fail"},
    ]
    assert manifest["totals"] == {
        "chunks": 0, "candidates": 2, "records": 2, "errors": 1,
    }
    assert manifest["input"] == str(data)
    assert _verify(out) == EXIT_OK

    clean = tmp_path / "clean.txt"
    clean.write_text("1 8 9\n1 2\n")
    code, _, records, _, out = _run(
        tmp_path, ["abc", "check", "--input", str(clean)], name="ok.jsonl"
    )
    assert code == EXIT_OK and len(records) == 2
    assert _verify(out) == EXIT_OK


def test_abc_check_stdin(tmp_path, monkeypatch):
    monkeypatch.setattr(sys, "stdin", io.StringIO("3 125\n"))
    code, _, records, _, _ = _run(tmp_path, ["abc", "check", "--input", "-"])
    assert code == EXIT_OK
    assert [(r["a"], r["b"], r["c"]) for r in records] == [(3, 125, 128)]


def test_abc_scan_cli(tmp_path):
    code, header, records, _, out = _run(
        tmp_path, ["abc", "scan", "--limit", "100000"]
    )
    assert code == EXIT_OK and records == []
    assert header["config"] == {"limit": 100000}
    assert _verify(out) == EXIT_OK
    assert cli.run(["abc", "scan", "--limit", "2",
                    "--output", str(tmp_path / "x")]) == EXIT_USAGE
    assert cli.run(["abc", "scan", "--limit", "100000", "--memory-budget", "1000",
                    "--output", str(tmp_path / "x")]) == EXIT_RUNTIME


def test_search_pillai_index_over_budget_exits_runtime(tmp_path, capsys):
    # degree 1 indexes every integer: 2^40 of them is refused before any chunk
    out = tmp_path / "x.jsonl"
    assert cli.run(["search", "pillai", "--difference", "1", "--degree", "1..3",
                    "--max-bits", "40", "--threads", "1", "--output", str(out)]
                   ) == EXIT_RUNTIME
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "--chunks" in err and not out.exists()


def test_abc_filter_cli(tmp_path):
    code, header, records, _, out = _run(
        tmp_path,
        ["abc", "filter", "--limit", "9", "--eps", "1/5", "--q-bound", "1"],
    )
    assert code == EXIT_OK
    assert [(r["a"], r["b"], r["c"]) for r in records] == [
        (2, 2, 4), (1, 8, 9), (3, 6, 9),
    ]
    assert all(r["kind"] == "abc-filter" for r in records)
    assert header["config"] == {"limit": 9, "eps": "1/5", "q_bound": "1"}
    assert _verify(out) == EXIT_OK
    assert cli.run(["abc", "filter", "--eps", "0",
                    "--output", str(tmp_path / "x")]) == EXIT_USAGE
    assert cli.run(["abc", "filter", "--eps", "bogus",
                    "--output", str(tmp_path / "x")]) == EXIT_USAGE


# ---------------------------------------------------------------------------
# factor / radical / verify-log


def test_factor_and_radical_cli(tmp_path):
    code, header, records, _, out = _run(tmp_path, ["factor", "5040"])
    assert code == EXIT_OK
    assert header["subcommand"] == "factor"
    assert records[0]["factors"] == [[2, 4], [3, 2], [5, 1], [7, 1]]
    assert _verify(out) == EXIT_OK

    code, _, records, _, out = _run(tmp_path, ["radical", "5040"], name="r.jsonl")
    assert code == EXIT_OK
    assert records[0]["radical"] == 210
    assert _verify(out) == EXIT_OK

    assert cli.run(["factor", "0", "--output", str(tmp_path / "x")]) == EXIT_USAGE


def test_verify_log_catches_tampering(tmp_path, capsys):
    _, _, _, _, out = _run(
        tmp_path,
        ["search", "fc", "--max-bits", "13", "--threads", "1"],
        name="t.jsonl",
    )
    lines = out.read_text().splitlines()
    rec = json.loads(lines[1])
    rec["values"] = [2, 8, 10]
    tampered = tmp_path / "tampered.jsonl"
    tampered.write_text("\n".join([lines[0], json.dumps(rec)] + lines[2:]) + "\n")
    capsys.readouterr()
    assert _verify(tampered) == EXIT_FINDINGS
    report = capsys.readouterr().out
    assert str(tampered) in report and "line 2" in report

    # a search log holds each record once, in canonical order
    assert len(lines) >= 4
    assert cli.verify_log_lines(lines[:2] + lines[1:]) == (
        len(lines), ["line 3: record repeats an earlier record"])
    assert cli.verify_log_lines(lines[:1] + lines[:0:-1]) == (
        len(lines) - 1, [f"line {k}: record sorts before the record above it"
                         for k in range(3, len(lines) + 1)])

    # a structurally broken record must be reported, not crash the verifier
    broken = json.loads(lines[1])
    del broken["reps"]
    hostile = tmp_path / "hostile.jsonl"
    hostile.write_text("\n".join([lines[0], json.dumps(broken)]) + "\n")
    assert _verify(hostile) == EXIT_FINDINGS
    assert "verification raised" in capsys.readouterr().out

    # header digest tamper
    header = json.loads(lines[0])
    header["config_digest"] = "0" * 64
    bad_header = tmp_path / "badheader.jsonl"
    bad_header.write_text("\n".join([json.dumps(header)] + lines[1:]) + "\n")
    assert _verify(bad_header) == EXIT_FINDINGS

    not_log = tmp_path / "notlog.jsonl"
    not_log.write_text('{"format": "something"}\n')
    assert _verify(not_log) == EXIT_FINDINGS
    empty = tmp_path / "empty.jsonl"
    empty.write_text("")
    assert _verify(empty) == EXIT_FINDINGS
    assert cli.run(["verify-log", str(tmp_path / "missing.jsonl")]) == EXIT_USAGE


# Logs of each non-search kind, tampered so that the header config no longer
# gives the record section.  Each takes run(*argv) -> log lines and tmp_path.
_TAMPERED = {}


def _tampered(fn):
    _TAMPERED[fn.__name__] = fn
    return fn


def _edit(line, **fields):
    return json.dumps(dict(json.loads(line), **fields))


@_tampered
def catalog_drops_an_entry(run, tmp_path):
    log = run("catalog", "fc")
    return log[:4] + log[5:]


@_tampered
def catalog_holds_an_entry_over_max_bits(run, tmp_path):
    log = run("catalog", "fc", "--max-bits", "20")
    return log + run("catalog", "fc")[len(log):][:1]


@_tampered
def gen_header_over_another_record(run, tmp_path):
    return run("gen", "standard", "--w", "2")[:1] + run("gen", "standard", "--w", "3")[1:]


@_tampered
def decompose_holds_a_degree_outside_the_range(run, tmp_path):
    # 46656 = 216^2 = 36^3 = 6^6
    return run("decompose", "46656", "--degree", "2..3") + run(
        "decompose", "46656", "--degree", "6")[1:]


@_tampered
def decompose_repeats_a_record(run, tmp_path):
    log = run("decompose", "1679616", "--degree", "2..8", "--max-spread", "2")
    return log + log[-1:]


@_tampered
def radical_header_over_another_n(run, tmp_path):
    return run("radical", "720")[:1] + run("radical", "721")[1:]


@_tampered
def factor_header_over_another_n(run, tmp_path):
    return run("factor", "720")[:1] + run("factor", "721")[1:]


def _abc_check_log(run, tmp_path):
    triples = tmp_path / "triples.txt"
    triples.write_text("1 8\n5 27\n")
    return run("abc", "check", "--input", str(triples), "--classic", "1/5")


@_tampered
def abc_check_classic_emptied(run, tmp_path):
    log = _abc_check_log(run, tmp_path)
    return log[:1] + [_edit(log[1], classic=[])] + log[2:]


@_tampered
def abc_check_extra_field(run, tmp_path):
    log = _abc_check_log(run, tmp_path)
    return log[:1] + [_edit(log[1], note="checked by hand")] + log[2:]


@_tampered
def abc_filter_holds_c_over_limit(run, tmp_path):
    flags = ("--eps", "1/7", "--q-bound", "2")
    over = run("abc", "filter", "--limit", "300", *flags)
    return run("abc", "filter", "--limit", "100", *flags) + [
        line for line in over[1:] if json.loads(line)["c"] == 300][:1]


@_tampered
def abc_filter_out_of_order(run, tmp_path):
    log = run("abc", "filter", "--limit", "20", "--eps", "1/5")
    return log[:1] + log[:0:-1]


@pytest.mark.parametrize("name", sorted(_TAMPERED))
def test_verify_log_rebuilds_every_log_kind(tmp_path, capsys, name):
    runs = iter(range(10))

    def run(*argv):
        out = tmp_path / f"{next(runs)}.jsonl"
        assert cli.run(list(argv) + ["--output", str(out)]) in (EXIT_OK, EXIT_FINDINGS)
        lines = out.read_text().splitlines()
        assert cli.verify_log_lines(lines) == (len(lines) - 1, [])
        return lines

    tampered = tmp_path / "tampered.jsonl"
    tampered.write_text("\n".join(_TAMPERED[name](run, tmp_path)) + "\n")
    capsys.readouterr()
    assert _verify(tampered) == EXIT_FINDINGS
    assert f"{tampered}: " in capsys.readouterr().out


@pytest.mark.parametrize("corrupt, problem", [
    (lambda h: h["config"].update(max_bits="x"), "header: invalid search config"),
    (lambda h: h["config"].pop("mode"), "header: invalid search config"),
    (lambda h: h.update(subcommand=5), "header: bad subcommand"),
])
def test_verify_log_reports_bad_header(tmp_path, capsys, corrupt, problem):
    _, _, _, _, out = _run(
        tmp_path, ["search", "fc", "--max-bits", "10", "--threads", "1"]
    )
    lines = out.read_text().splitlines()
    header = json.loads(lines[0])
    corrupt(header)
    bad = tmp_path / "bad.jsonl"
    bad.write_text("\n".join([json.dumps(header)] + lines[1:]) + "\n")
    capsys.readouterr()
    assert _verify(bad) == EXIT_FINDINGS
    captured = capsys.readouterr()
    assert f"{bad}: {problem}" in captured.out
    assert "Traceback" not in captured.err
    assert cli.verify_log_lines(["[1]"]) == (0, ["header: not a JSON object"])


def test_verify_log_emits_manifest_only(tmp_path, capsys):
    _, _, _, _, out = _run(tmp_path, ["factor", "12"], name="f.jsonl")
    capsys.readouterr()
    assert cli.run(["verify-log", str(out)]) == EXIT_OK
    captured = capsys.readouterr()
    assert captured.out == ""  # no problems, no log, manifest on stderr
    manifest = json.loads(captured.err.strip().splitlines()[-1])
    assert manifest["subcommand"] == "verify-log"
    assert manifest["totals"]["records"] == 1


# ---------------------------------------------------------------------------
# plumbing


# The README example of each subcommand with its manifest values: exit code,
# totals (chunks, candidates, records, errors), input and checkpoint.
README_EXAMPLES = [
    pytest.param(
        "search fc --max-bits 34 --max-exp 113 --threads 1 --checkpoint run.ckpt",
        EXIT_OK, (16, 5, 5, 0), None, "run.ckpt", id="search",
    ),
    pytest.param("decompose 4352 --degree 3 --max-spread 1",
                 EXIT_OK, (0, 1, 1, 0), None, None, id="decompose"),
    pytest.param("gen standard --v 1 --w 2 --n 3",
                 EXIT_OK, (0, 1, 1, 0), None, None, id="gen"),
    pytest.param("catalog fc --max-bits 14",
                 EXIT_OK, (0, 10, 5, 0), None, None, id="catalog"),
    pytest.param("abc check --input triples.txt --classic 1/4",
                 EXIT_USAGE, (0, 3, 3, 1), "triples.txt", None, id="abc-check"),
    pytest.param("abc scan --limit 1000000",
                 EXIT_OK, (0, 0, 0, 0), None, None, id="abc-scan"),
    pytest.param("abc filter --limit 100 --eps 1/5 --q-bound 1",
                 EXIT_OK, (0, 41, 41, 0), None, None, id="abc-filter"),
    pytest.param("factor 720", EXIT_OK, (0, 1, 1, 0), None, None, id="factor"),
    pytest.param("radical 720", EXIT_OK, (0, 1, 1, 0), None, None, id="radical"),
    pytest.param("verify-log run.jsonl",
                 EXIT_OK, (0, 1, 1, 0), "run.jsonl", None, id="verify-log"),
]


@pytest.mark.parametrize("cmd, code, totals, input_path, checkpoint", README_EXAMPLES)
def test_emission_path(tmp_path, monkeypatch, capsys, cmd, code, totals,
                       input_path, checkpoint):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "triples.txt").write_text("1 8 9\n2 6436341\n2 4\n3 125\n")
    assert cli.run(["radical", "720", "--output", "run.jsonl"]) == EXIT_OK
    argv = cmd.split()
    capsys.readouterr()
    if argv[0] == "verify-log":  # no result log; the manifest goes to stderr
        output, headers = None, []
        assert cli.run(argv) == code
        manifest = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    else:
        output = "out.jsonl"
        assert cli.run(argv + ["--output", output]) == code
        headers = [json.loads((tmp_path / output).read_text().splitlines()[0])]
        manifest = json.loads((tmp_path / (output + ".manifest.json")).read_text())
    for doc in headers + [manifest]:
        digest = hashlib.sha256(search.canon_json(doc["config"]).encode()).hexdigest()
        assert doc["config_digest"] == digest
        assert cmd.startswith(doc["subcommand"])
    keys = ("chunks", "candidates", "records", "errors")
    assert manifest["totals"] == dict(zip(keys, totals))
    assert (manifest["input"], manifest["output"], manifest["checkpoint"]) == (
        input_path, output, checkpoint)
    assert manifest["exit_code"] == code


def test_stdout_log_and_stderr_manifest(capsys):
    code = cli.run(["factor", "12"])
    assert code == EXIT_OK
    captured = capsys.readouterr()
    lines = captured.out.splitlines()
    assert json.loads(lines[0])["format"] == "fcspread-result-log"
    assert json.loads(lines[1])["factors"] == [[2, 2], [3, 1]]
    manifest = json.loads(captured.err.strip().splitlines()[-1])
    assert manifest["format"] == "fcspread-manifest"
    assert manifest["output"] is None


def test_no_subcommand_and_help(capsys):
    assert cli.run([]) == EXIT_USAGE
    assert cli.run(["--help"]) == EXIT_OK
    assert cli.run(["frobnicate"]) == EXIT_USAGE
    capsys.readouterr()


@pytest.mark.parametrize("module", ["fcspread", "fcspread.cli"])
def test_python_m_runs_cli(module):
    src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-m", module, "factor", "12"],
        capture_output=True, text=True, timeout=120,
        env=dict(os.environ, PYTHONPATH=path),
    )
    assert proc.returncode == EXIT_OK
    assert json.loads(proc.stdout.splitlines()[1])["factors"] == [[2, 2], [3, 1]]


def test_console_script_installed(tmp_path):
    exe = shutil.which("fcspread")
    assert exe, "console script must be on PATH after installation"
    out = tmp_path / "cs.jsonl"
    proc = subprocess.run(
        [exe, "radical", "720", "--output", str(out)],
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == EXIT_OK
    rec = json.loads(out.read_text().splitlines()[1])
    assert rec["radical"] == 30
