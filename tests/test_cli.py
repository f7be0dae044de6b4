"""Command line behavior: logs, manifests, exit codes, verification."""

import hashlib
import io
import json
import os
import re
import shutil
import subprocess
import sys

import pytest

import fcspread
from fcspread import abc_check, cli, search
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


@pytest.mark.parametrize("coeffs", [(1, 11, 5), (1, 11, 4)])
def test_search_fc_tied_records_keep_one_order(tmp_path, coeffs):
    # Two records hold one value set in two slot orders.  A tie needs
    # C**2 > AB: its two slot layouts force the values in proportion to
    # (B**2 + AC, C**2 - AB, A**2 + BC), (9, 1, 4) and (25, 1, 9) here.
    argv = ["search", "fc", "--max-bits", "14", "--f-bound", "2", "--threads", "1",
            "--coeffs", ",".join(map(str, coeffs))]
    fresh = [_run(tmp_path, argv + ["--chunks", str(n)], name=f"{n}.jsonl")[4].read_bytes()
             for n in (1, 2, 3, 16)]
    assert fresh == [fresh[0]] * 4
    ckpt = tmp_path / "run.ckpt"
    cfg = search.make_config("fermat-catalan", max_bits=14, f_bound="2", coeffs=coeffs)
    assert not search.run_chunked(cfg, n_chunks=16, checkpoint_path=str(ckpt),
                                  max_chunks=3).completed
    resumed = _run(tmp_path, argv + ["--checkpoint", str(ckpt), "--resume"],
                   name="resumed.jsonl")[4]
    assert resumed.read_bytes() == fresh[0]

    # the tied pair leads the log; the reverse order, which one chunk gave
    # before the key took the slot order, is refused
    lines = fresh[0].decode().splitlines()
    tied = [json.loads(line)["values"] for line in lines[1:3]]
    assert sorted(tied[0]) == sorted(tied[1]) and tied[0] < tied[1]
    swapped = [lines[0], lines[2], lines[1]] + lines[3:]
    assert cli.verify_log_lines(swapped) == (
        len(lines) - 1, ["line 3: record sorts before the record above it"])
    assert cli.verify_log_lines(lines) == (len(lines) - 1, [])


# sha256 of the log and of the checkpoint each search writes: neither the
# merge nor the checkpoint digests may change a byte of them.
@pytest.mark.parametrize("argv, log_sha, ckpt_sha", [
    (["fc", "--max-bits", "30"],
     "d35ccc4e59c79dd1b9d032b5401ba3c7ef43bb67cc0d605e2647f77e1136f4ed",
     "99b1afbc843ad1375c39ce81408e04e25ed48fb901aa51f4fbe74ea9acbe7d2b"),
    (["gbtz", "--max-bits", "24", "--f-bound", "2"],
     "b9e36ac8276ac3d496e46a8468edaed92cf2af5fa1e5e41bb61c147aea30f989",
     "40c4e5450df6048e67f4da5174310c57d2e9dceb0570e710cc1cbddac367fed2"),
    (["pillai", "--max-bits", "18", "--difference", "1", "--max-spread", "2"],
     "804c22771148076c8b4605136d032d26f022a16a06fd7bdd218375c3eb3698f7",
     "9c7fa71fb45761e20e226cbcf8bc17535fe71245d3192947e1fbd865e6195fd3"),
    (["survey", "--max-bits", "24", "--n-range", "3..3", "--m-range", "3..3"],
     "977bdea15707bf06d1541079dc5f0d09f362c44fd033746df8a231dff5ced2ef",
     "0c438c2dc9df8bcc0af77a577c8d5b16d6d61c077b44dbb04b410f269ee089d7"),
], ids=["fc", "gbtz", "pillai", "survey"])
def test_search_log_and_checkpoint_bytes_are_pinned(tmp_path, argv, log_sha, ckpt_sha):
    ckpt = tmp_path / "run.ckpt"
    out = _run(tmp_path, ["search"] + argv + ["--threads", "1", "--chunks", "8",
                                              "--checkpoint", str(ckpt)])[4]
    assert hashlib.sha256(out.read_bytes()).hexdigest() == log_sha
    assert hashlib.sha256(ckpt.read_bytes()).hexdigest() == ckpt_sha


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


def test_search_pillai_default_degrees_need_two_bits(tmp_path, capsys):
    code = cli.run(["search", "pillai", "--difference", "1", "--max-bits", "1",
                    "--output", str(tmp_path / "x.jsonl")])
    assert code == EXIT_USAGE
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "max_bits >= 2" in err
    assert "Traceback" not in err


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
        ("pillai", {"f_bound": None, "difference": 1}),  # not the mode default either
        ("gbtz", {"sign": None}),
        ("fc", {"max_bits": None}),
        ("gbtz", {"degree": None}),
        ("nonmaxgcd3", {"degree": [3, 5]}),  # the degree-3 mode
        ("fc", {"difference": 3}),  # a field fc does not read
    ):
        shaped = tmp_path / "shape.json"
        shaped.write_text(json.dumps(dict({"max_bits": 10}, **shape)))
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
        # nor in the integer options of decompose and abc
        (["abc", "scan"], {"limit": 1000.9}),
        (["abc", "scan"], {"limit": True}),
        (["abc", "filter"], {"limit": "1000"}),
        (["decompose", "36"], {"max_spread": 1.5, "degree": 2}),
        # a negative bit bound is a usage error, not a crash
        (["catalog", "fc", "--max-bits", "-5"], {}),
        (["catalog", "degree3", "--max-bits", "-5"], {}),
    ):
        cfg.write_text(json.dumps(doc))
        assert cli.run(argv + ["--config", str(cfg)] + out) == EXIT_USAGE, argv
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "Traceback" not in err


def test_config_file_float_bound_is_refused(tmp_path, capsys):
    # a float is a binary value: 1.2 is just under 6/5, so a non-strict bound
    # of "1.2" would drop weight-6/5 solutions; the exact string runs
    cfg = tmp_path / "cfg.json"
    for mode, doc, key, exact in (("gbtz", {}, "f_bound", "6/5"),
                                  ("pillai", {"difference": 1}, "m_bound", "1/10")):
        argv = ["search", mode, "--max-bits", "12", "--threads", "1", "--config",
                str(cfg), "--output", str(tmp_path / "x.jsonl")]
        value = {"f_bound": 1.2, "m_bound": 0.1}[key]
        cfg.write_text(json.dumps(dict(doc, **{key: value})))
        assert cli.run(argv) == EXIT_USAGE
        assert capsys.readouterr().err == (
            f"error: {key} must be an integer or a fraction string, not {value}\n")
        cfg.write_text(json.dumps(dict(doc, **{key: exact})))
        assert cli.run(argv) == EXIT_OK
        capsys.readouterr()
        header = json.loads((tmp_path / "x.jsonl").read_text().splitlines()[0])
        assert header["config"][key] == exact


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


def test_abc_scan_cli(tmp_path, monkeypatch, capsys):
    code, header, records, manifest, out = _run(
        tmp_path, ["abc", "scan", "--limit", "100000"]
    )
    assert code == EXIT_OK and records == []
    assert header["config"] == {"limit": 100000}
    # |T| and the candidates go to stderr and the manifest, not the log
    stats = {}
    abc_check.brute_force_scan(100000, stats=stats)
    assert capsys.readouterr().err == (
        f"abc scan: 0 violations up to 100000; {stats['terms']} terms with rad "
        f"<= {stats['radical_bound']}, {stats['candidates']} candidates checked exactly\n")
    assert manifest["totals"]["candidates"] == stats["candidates"]
    assert _verify(out) == EXIT_OK
    assert cli.run(["abc", "scan", "--limit", "2",
                    "--output", str(tmp_path / "x")]) == EXIT_USAGE
    assert cli.run(["abc", "scan", "--limit", "100000", "--memory-budget", "1000",
                    "--output", str(tmp_path / "x")]) == EXIT_RUNTIME
    assert cli.run(["abc", "scan", "--limit", "100000", "--memory-budget", "0",
                    "--output", str(tmp_path / "x")]) == EXIT_RUNTIME
    # without the flag the budget is read when the scan runs, not when the
    # shared parser was built
    monkeypatch.setattr(search, "MEMORY_BUDGET", 1000)
    assert cli.run(["abc", "scan", "--limit", "100000",
                    "--output", str(tmp_path / "x")]) == EXIT_RUNTIME


def test_search_pillai_index_over_budget_exits_runtime(tmp_path, capsys):
    # at f_bound 2 degree 1 is tabled: 2^40 integers are refused before any chunk
    out = tmp_path / "x.jsonl"
    assert cli.run(["search", "pillai", "--difference", "1", "--degree", "1..3",
                    "--f-bound", "2", "--max-bits", "40", "--threads", "1",
                    "--output", str(out)]) == EXIT_RUNTIME
    err = capsys.readouterr().err
    assert err.startswith("error: the product value tables need more than ")
    assert "fewer --threads" in err and not out.exists()


def test_search_power_tables_over_budget_exits_runtime(tmp_path, capsys):
    # fc at 2^90 would index a 2^30-entry cube table in each worker
    out = tmp_path / "x.jsonl"
    assert cli.run(["search", "fc", "--max-bits", "90", "--threads", "1",
                    "--output", str(out)]) == EXIT_RUNTIME
    err = capsys.readouterr().err
    assert err.startswith("error: the fc prime-power set needs about ")
    assert "the power tables about 69118788096 more" in err and not out.exists()


def test_search_plan_over_budget_exits_runtime(tmp_path, capsys):
    # 10**12 chunks would split 2^40 values into 10**12 pieces: refused with
    # the estimate before any split, from --chunks and from a checkpoint
    out = tmp_path / "x.jsonl"
    argv = ["search", "pillai", "--difference", "1", "--max-bits", "40",
            "--threads", "1", "--output", str(out)]
    assert cli.run(argv + ["--chunks", str(10**12)]) == EXIT_RUNTIME
    err = capsys.readouterr().err
    assert err.startswith("error: a plan of 1000000000000 chunks")
    assert "Traceback" not in err and not out.exists()
    cfg = search.make_config("pillai", difference=1, max_bits=40)
    ckpt = tmp_path / "run.ckpt"
    ckpt.write_text(search.canon_json({
        "format": search.CHECKPOINT_FORMAT, "version": FORMAT_VERSION,
        "config_digest": cfg.digest(), "config": cfg.semantic_dict(),
        "plan_digest": "0" * 64, "n_chunks": 10**12, "done": {},
        "done_sha256": {}}))
    assert cli.run(argv + ["--checkpoint", str(ckpt), "--resume"]) == EXIT_RUNTIME
    err = capsys.readouterr().err
    assert err.startswith("error: a plan of") and "Traceback" not in err


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
    # the config's format must be the one the verifier reads
    (lambda h: h["config"].update(format={"a": 1}), "header: invalid search config"),
    (lambda h: h["config"].update(format=2**70), "header: invalid search config"),
    (lambda h: h["config"].pop("format"), "header: invalid search config"),
    # a float bound, even one equal to the log's exact bound 1
    (lambda h: h["config"].update(f_bound=1.0), "header: invalid search config"),
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


def test_verify_log_reports_untrusted_lines(tmp_path):
    """Each bad header or record line is reported as a problem, never raised."""
    _, _, _, _, out = _run(tmp_path, ["factor", "360"], name="f.jsonl")
    lines = out.read_text().splitlines()
    header = json.loads(lines[0])

    def verify(head, *records):
        return cli.verify_log_lines([json.dumps(head) if isinstance(head, dict) else head]
                                    + list(records or lines[1:]))

    checked, problems = verify("{nope")
    assert checked == 0 and len(problems) == 1
    assert problems[0].startswith("header is not valid JSON: ")
    assert verify(dict(header, version=1)) == (0, ["unsupported log version 1"])
    checked, problems = verify(dict(header, config={"n": 720}))
    assert problems[0] == "config digest does not match the config"
    # a catalog header that names another catalog, with a digest of its config
    config = {"catalog": "degree3", "max_bits": 20}
    checked, problems = verify({**header, "subcommand": "catalog fc", "config": config,
                                "config_digest": search._sha256(config)})
    assert checked == 0 and len(problems) == 1
    assert problems[0].startswith("header: cannot rebuild records: ValueError: ")
    # a blank line is skipped and not counted; a line that is not JSON is reported
    assert verify(header, "", lines[1], "  ") == (1, [])
    checked, problems = verify(header, lines[1], "{nope")
    assert checked == 1 and len(problems) == 1
    assert problems[0].startswith("line 3: not valid JSON: ")
    bad = dict(json.loads(lines[1]), factors=[[4, 1], [90, 1]])
    assert verify(header, json.dumps(bad)) == (
        1, ["line 2: factors are not strictly increasing primes"])


def test_verify_log_refuses_a_subcommand_of_another_mode(tmp_path, capsys):
    logs = {}
    for mode in ("fc", "gbtz"):
        _, _, _, _, out = _run(tmp_path, ["search", mode, "--max-bits", "12",
                                          "--threads", "1"], name=f"{mode}.jsonl")
        logs[mode] = out.read_text().splitlines()
    for mode, sub, ok in [("fc", "search fc", True), ("fc", "search fermat-catalan", True),
                          ("fc", "search gbtz", False), ("fc", "search pillai", False),
                          ("gbtz", "search gbtz", True), ("gbtz", "search fc", False),
                          ("gbtz", "search fermat-catalan", False)]:
        header = dict(json.loads(logs[mode][0]), subcommand=sub)
        log = tmp_path / "sub.jsonl"
        log.write_text("\n".join([json.dumps(header)] + logs[mode][1:]) + "\n")
        capsys.readouterr()
        assert _verify(log) == (EXIT_OK if ok else EXIT_FINDINGS), (mode, sub)
        report = capsys.readouterr().out
        assert ok or f"{log}: header: subcommand {sub!r} does not run mode" in report


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
                 EXIT_OK, (0, 6, 0, 0), None, None, id="abc-scan"),
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
    assert "prime factorization of n" in capsys.readouterr().out
    assert cli.run(["frobnicate"]) == EXIT_USAGE
    capsys.readouterr()


# Pairs of commands where the second drops or changes flags of the first.
SHARED_PARSER_SEQUENCE = [
    ("search fc --max-bits 14 --threads 1 --chunks 3", EXIT_OK),
    ("search fc --max-bits 14 --threads 1", EXIT_OK),
    ("abc check --input {triples} --classic 1/10", EXIT_OK),
    ("abc check --input {triples}", EXIT_OK),
    ("gen standard --v 2", EXIT_FINDINGS),
    ("gen standard", EXIT_OK),
    ("decompose 24 --degree 2..3 --max-spread 2", EXIT_OK),
    ("decompose 24 --degree 3 --max-spread 2", EXIT_OK),
    ("abc scan --limit 1000 --memory-budget 100", EXIT_RUNTIME),
    ("abc scan --limit 1000", EXIT_OK),
]


def test_runs_in_one_process_share_one_parser(tmp_path, monkeypatch):
    triples = tmp_path / "triples.txt"
    triples.write_text("1 8 9\n3 125\n")

    def outputs(workdir, cmd):
        """(exit code, log, manifest without timestamps) of cmd run in workdir."""
        workdir.mkdir(parents=True)
        monkeypatch.chdir(workdir)
        code = cli.run(cmd.format(triples=triples).split() + ["--output", "out.jsonl"])
        if not (workdir / "out.jsonl").exists():
            return code, None, None
        manifest = json.loads((workdir / "out.jsonl.manifest.json").read_text())
        del manifest["started"], manifest["finished"]
        return code, (workdir / "out.jsonl").read_text(), manifest

    fresh = []
    for i, (cmd, _) in enumerate(SHARED_PARSER_SEQUENCE):
        cli.build_parser.cache_clear()
        fresh.append(outputs(tmp_path / "fresh" / str(i), cmd))
    cli.build_parser.cache_clear()
    for i, (cmd, code) in enumerate(SHARED_PARSER_SEQUENCE):
        shared = outputs(tmp_path / "shared" / str(i), cmd)
        assert shared == fresh[i], cmd
        assert shared[0] == code and (shared[1] is None) == (code == EXIT_RUNTIME), cmd
    assert cli.build_parser.cache_info().misses == 1


def test_manifest_package_version_is_the_source_version(tmp_path):
    _, _, _, manifest, _ = _run(tmp_path, ["factor", "12"])
    assert manifest["package_version"] == fcspread.__version__
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    with open(os.path.join(root, "pyproject.toml"), encoding="utf-8") as fh:
        project = re.search(r"^\[project\]$(.*?)^\[", fh.read(), re.M | re.S).group(1)
    assert re.search(r'^version = "(.*)"$', project, re.M).group(1) == fcspread.__version__


def test_cli_run_reads_no_distribution_metadata():
    # in a fresh interpreter, as pytest itself imports importlib.metadata
    src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    script = ("import sys\nfrom fcspread import cli\n"
              "assert cli.run(['factor', '12']) == 0\n"
              "assert 'importlib.metadata' not in sys.modules\n")
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          timeout=120, env=dict(os.environ, PYTHONPATH=path))
    assert proc.returncode == 0, proc.stderr


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
