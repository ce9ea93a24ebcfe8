import contextlib
import csv
import io
import json
import os
import subprocess
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import duperm
from duperm import cli, gf2n
from duperm.analyzer import analyze
from duperm.cli import TABLE1_EXPECTED, TABLE2_EXPECTED, main
from duperm.construct import instance, read_lut

# Regression snapshot of what the pinned construction computes for the
# reference rows (k = 2, L2 = x, canonical subfield generator).  The
# table tests in test_acceptance.py recompute every one of these values
# with oracles that share no code with the analyzer and assert that the
# analyzer agrees with them.
COMPUTED_TABLE1 = {
    "x+1": ((525936, 519456, 2160), 8, 470),
    "x+b": ((525756, 519816, 1980), 8, 468),
    "b*x+b": ((525891, 519546, 2115), 10, 470),
    "b^2*x^2+b": ((524271, 522786, 495), 10, 471),
    "b^2*x^2": ((525261, 520806, 1485), 10, 469),
}
COMPUTED_TABLE2 = {
    "x+b": ((525309, 520710, 1533), 10, 469),
    "b*x^2+b": ((525309, 520710, 1533), 10, 469),
}


def run_cli(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def test_analyze_k1_json():
    code, out, _ = run_cli(["analyze", "--k", "1", "--m", "1", "--l1", "x+1"])
    assert code == 0
    payload = json.loads(out)
    assert payload["delta"] == 4
    assert payload["permutation"] is True
    assert payload["lb"] == 6
    assert payload["runtime_ms"] is None


def test_analyze_output_byte_stable():
    argv = ["analyze", "--k", "2", "--m", "2", "--l1", "b^2*x^2"]
    first = run_cli(argv)
    second = run_cli(argv)
    assert first == second


def test_analyze_timings_flag():
    code, out, _ = run_cli(["analyze", "--k", "1", "--timings"])
    assert code == 0
    assert json.loads(out)["runtime_ms"] is not None


def test_analyze_csv_format():
    code, out, _ = run_cli(["analyze", "--k", "1", "--l1", "x+1", "--format", "csv"])
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "L1,spectrum,deg,NL,LB"
    assert lines[1].startswith('"') or lines[1].startswith("x+1")


def test_analyze_walsh_off():
    code, out, _ = run_cli(["analyze", "--k", "1", "--walsh", "off"])
    assert code == 0
    assert json.loads(out)["nl"] is None


def test_usage_errors():
    code, _, err = run_cli(["analyze", "--k", "1", "--l1", "not-an-expr"])
    assert code == 2
    assert "error" in err
    code, _, err = run_cli(["analyze", "--k", "5"])  # over the memory budget
    assert code == 2
    assert "budget" in err
    code, _, err = run_cli(["verify", "--trials", "0"])  # a coset check of no a
    assert code == 2
    assert "trials" in err
    # --workers is accepted only by verify and reproduce-tables, --seed only by verify
    for argv in (["no-such-command"], ["analyze", "--k", "1", "--workers", "2"],
                 ["analyze", "--k", "1", "--seed", "0"], ["verify", "--walsh", "on"]):
        with pytest.raises(SystemExit) as exc:
            run_cli(argv)
        assert exc.value.code == 2


def test_usage_error_leaves_the_parser_usable():
    # the argument tree is built once per process and serves every call
    assert cli._parser() is cli._parser()
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        with pytest.raises(SystemExit) as exc:
            main(["verify", "--no-such-option"])
        assert exc.value.code == 2
        assert main(["verify", "--claims", "lemma1.exhaustive.k1"]) == 0
    assert "unrecognized arguments: --no-such-option" in err.getvalue()
    assert json.loads(out.getvalue())["claim_id"] == "lemma1.exhaustive.k1"


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(text=st.text(alphabet="xb^+*0123456789 -", max_size=16))
def test_analyze_l1_fuzz(text):
    # a bad --l1 is a usage error (exit 2), never a traceback
    try:
        code, _, err = run_cli(["analyze", "--k", "1", "--l1", text])
    except SystemExit as exc:  # argparse refuses a value that looks like an option
        code, err = exc.code, ""
    assert code in (0, 2)
    assert "Traceback" not in err


def test_inert_workers_spellings_accepted(f5, tmp_path):
    # the benchmark workloads still pass these; nothing reads them
    code, _, _ = run_cli(["verify", "--claims", "lemma1.exhaustive.k1", "--workers", "1"])
    assert code == 0
    code, _, err = run_cli(["reproduce-tables", "--out", str(tmp_path), "--workers", "1"])
    assert code == 1
    assert sum(line.startswith("MISMATCH ") for line in err.splitlines()) == 13
    f = instance(f5, 1, "x+1")
    assert analyze(f, workers=1).to_json() == analyze(f).to_json()


def test_construct_digest_deterministic(tmp_path):
    path = tmp_path / "f.lut"
    argv = ["construct", "--k", "1", "--m", "1", "--l1", "x+1", "--out", str(path)]
    code, out, _ = run_cli(argv)
    assert code == 0
    digest = json.loads(out)["sha256"]
    code2, out2, _ = run_cli(["construct", "--k", "1", "--m", "1", "--l1", "x+1"])
    assert json.loads(out2)["sha256"] == digest
    assert path.exists()


# sha256 of the little-endian table as `duperm construct` prints it, pinned
# so that no change to the construction path can alter a table unnoticed
CONSTRUCT_DIGESTS = {
    ("1", "1", "x+1", "x"): "ab56bbbae024f5aaba102e67a4dc42917d0e9b3fb8297adc215c9d7560f4bf20",
    ("2", "2", "b^2*x^2", "x"): "39e35b2f4a5898abd97875337e86fa2ffa0837ddbfb26819378a97263c41702d",
    ("2", "3", "b*x^2+b", "b^2*x"): "eae3d230cada89aab875e8da6abd8421ada3b86b8113a0706cae300342dc0620",
    ("3", "2", "x^4", "x"): "50480e3b7c6c0c1f544091173ab36ee6d63efbc98ecd16732c866f0a151da56c",
}


@pytest.mark.parametrize("k, m, l1, l2", sorted(CONSTRUCT_DIGESTS))
def test_construct_digest_pinned(k, m, l1, l2):
    code, out, _ = run_cli(["construct", "--k", k, "--m", m, "--l1", l1, "--l2", l2])
    assert code == 0
    assert json.loads(out)["sha256"] == CONSTRUCT_DIGESTS[k, m, l1, l2]


def test_export_lut_roundtrip(tmp_path):
    path = tmp_path / "export.lut"
    code, _, _ = run_cli(
        ["export-lut", "--k", "2", "--m", "2", "--l1", "x+b", "--out", str(path)]
    )
    assert code == 0
    ctx = gf2n.mk_field(2)
    back = read_lut(path, ctx)
    code, out, _ = run_cli(["analyze", "--k", "2", "--m", "2", "--l1", "x+b"])
    spectrum = json.loads(out)["spectrum"]
    assert spectrum == {
        str(i): w for (i, w) in zip((0, 2, 4), COMPUTED_TABLE1["x+b"][0])
    }
    assert int(back.table[0]) == ctx.subfield_generator  # g(0) = 0 + beta


def test_verify_replay_transcript(tmp_path):
    out_path = tmp_path / "transcript.jsonl"
    code, out, err = run_cli(
        ["verify", "--claims", "lemma1.replay.*", "--out", str(out_path)]
    )
    assert code == 0
    lines = out_path.read_text().strip().splitlines()
    assert len(lines) == 8
    for line in lines:
        rec = json.loads(line)
        assert rec["status"] == "pass"
    assert "8 pass, 0 fail" in err


def test_verify_exhaustive_claims():
    code, out, err = run_cli(["verify", "--claims", "lemma1.exhaustive.k[12]"])
    assert code == 0
    assert len(out.strip().splitlines()) == 2


def test_verify_all_lemma_claims_pass():
    code, out, _ = run_cli(["verify", "--claims", "lemma1.*"])
    assert code == 0
    records = [json.loads(line) for line in out.strip().splitlines()]
    assert len(records) == 11  # 3 exhaustive + 8 replay steps
    assert all(r["status"] == "pass" for r in records)


def _run_python(args):
    """Run a child interpreter that imports the same duperm as this process."""
    src = os.path.dirname(os.path.dirname(duperm.__file__))
    path = os.environ.get("PYTHONPATH")
    env = {**os.environ, "PYTHONPATH": src + (os.pathsep + path if path else "")}
    return subprocess.run([sys.executable, *args], capture_output=True, text=True, env=env)


def test_module_entry_point():
    proc = _run_python(["-m", "duperm.cli", "analyze", "--k", "1", "--l1", "x+1"])
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["delta"] == 4


def test_import_loads_no_process_pool():
    probe = (
        "import sys, duperm, duperm.cli\n"
        "print([m for m in ('multiprocessing', 'concurrent.futures.process') if m in sys.modules])"
    )
    proc = _run_python(["-c", probe])
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_verify_failing_claim_exits_one():
    code, out, err = run_cli(["verify", "--claims", "prop1.remark2.k3.m2"])
    assert code == 1
    rec = json.loads(out.strip())
    assert rec["status"] == "fail"
    assert rec["witness"] == {"expected": 14, "computed": 6}


def test_verify_unknown_pattern():
    code, _, err = run_cli(["verify", "--claims", "zzz.*"])
    assert code == 2
    assert "no claims match" in err


def test_replay_proof_command():
    code, out, _ = run_cli(["replay-proof"])
    assert code == 0
    assert len(out.strip().splitlines()) == 8


def test_reproduce_tables(tmp_path):
    code, out, err = run_cli(["reproduce-tables", "--out", str(tmp_path)])
    # computed rows are compared against the embedded reference values;
    # the mismatching rows make the command exit nonzero
    assert code == 1
    assert "MISMATCH" in err

    for name, expected_rows, computed in (
        ("table1.csv", TABLE1_EXPECTED, COMPUTED_TABLE1),
        ("table2.csv", TABLE2_EXPECTED, COMPUTED_TABLE2),
    ):
        with open(tmp_path / name, newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["L1", "spectrum", "deg", "NL", "LB"]
        assert len(rows) == 1 + len(expected_rows)
        for row in rows[1:]:
            label, spectrum, deg, nl, lb = row
            want_tri, want_deg, want_nl = computed[label]
            assert spectrum == "{%d, %d, %d}" % want_tri
            assert int(deg) == want_deg
            assert int(nl) == want_nl
            assert int(lb) == 380


def test_reproduce_tables_mismatch_names_row_and_column(tmp_path):
    _, _, err = run_cli(["reproduce-tables", "--out", str(tmp_path)])
    assert "table1 row L1=x+1 column spectrum" in err


def test_row5_and_t2r2_match_reference():
    # the rows whose published spectrum and NL the pinned construction
    # reproduces exactly, computed through the CLI
    for m, (l1, spectrum, _, nl) in ((2, TABLE1_EXPECTED[4]), (1, TABLE2_EXPECTED[1])):
        code, out, _ = run_cli(["analyze", "--k", "2", "--m", str(m), "--l1", l1])
        assert code == 0
        payload = json.loads(out)
        assert payload["spectrum"] == {str(i): w for i, w in zip((0, 2, 4), spectrum)}
        assert payload["nl"] == nl
