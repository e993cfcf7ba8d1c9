"""Tests for the command-line interface."""

import json
import os
import subprocess
import sys

import pytest

from betacircuits.betacalc import BetaLabel
from betacircuits.circuit import LabelTable, format_label_table, format_nnf
from betacircuits import cli
from betacircuits.cli import main
from betacircuits.examples import burglary_circuit, burglary_labels


@pytest.fixture()
def burglary_files(tmp_path):
    circuit = tmp_path / "burglary.nnf"
    labels = tmp_path / "burglary.labels"
    circuit.write_text(format_nnf(burglary_circuit()))
    labels.write_text(format_label_table(burglary_labels()))
    return circuit, labels


def run(capsys, *argv):
    rc = main([str(a) for a in argv])
    out = capsys.readouterr()
    return rc, out.out, out.err


class TestInfer:
    @pytest.mark.parametrize("backend", ["prob", "sl", "mm", "cpb", "mc"])
    def test_all_backends_print_four_fields(self, burglary_files, capsys,
                                            backend):
        circuit, labels = burglary_files
        rc, out, _ = run(capsys, "infer", "--circuit", circuit,
                         "--labels", labels, "--query", "1",
                         "--backend", backend)
        assert rc == 0
        fields = out.split()
        assert len(fields) == 4
        mean = float(fields[0])
        # mc reports the exact posterior mean E[P(q|e)], which sits a
        # ratio-bias of O(1/strength) away from the first-order 5/14.
        assert mean == pytest.approx(5.0 / 14.0, abs=0.05)
        assert float(fields[1]) >= 0.0
        assert float(fields[2]) > 0.0 and float(fields[3]) > 0.0

    def test_cpb_golden_output(self, burglary_files, capsys):
        circuit, labels = burglary_files
        rc, out, _ = run(capsys, "infer", "--circuit", circuit,
                         "--labels", labels, "--query", "1",
                         "--backend", "cpb")
        assert rc == 0
        mean, var, _, _ = out.split()
        assert float(mean) == pytest.approx(0.3571428571428571, abs=1e-12)
        assert float(var) == pytest.approx(0.04705831444690252, abs=1e-12)

    def test_query_from_evidence_file(self, burglary_files, tmp_path, capsys):
        circuit, labels = burglary_files
        cond = tmp_path / "cond.txt"
        cond.write_text("query 1\n")
        rc, out, _ = run(capsys, "infer", "--circuit", circuit,
                         "--labels", labels, "--evidence", cond,
                         "--backend", "prob")
        assert rc == 0
        assert float(out.split()[0]) == pytest.approx(5.0 / 14.0, abs=1e-12)

    def test_missing_query_is_usage_error(self, burglary_files, capsys):
        circuit, labels = burglary_files
        rc, _, err = run(capsys, "infer", "--circuit", circuit,
                         "--labels", labels, "--backend", "prob")
        assert rc == 2
        assert "no query" in err

    def test_invalid_circuit_fails_validation(self, burglary_files, tmp_path,
                                              capsys):
        _, labels = burglary_files
        bad = tmp_path / "bad.nnf"
        # AND whose children share a variable: not decomposable.
        bad.write_text("nnf 3 2 1\nL 1\nL -1\nA 2 0 1\n")
        rc, _, err = run(capsys, "infer", "--circuit", bad,
                         "--labels", labels, "--query", "1",
                         "--backend", "prob")
        assert rc == 2
        assert "error:" in err

    def test_parse_error_exit_code(self, burglary_files, tmp_path, capsys):
        _, labels = burglary_files
        bad = tmp_path / "bad.nnf"
        bad.write_text("nnf 2 1 1\nL 1\n")
        rc, _, err = run(capsys, "infer", "--circuit", bad,
                         "--labels", labels, "--query", "1",
                         "--backend", "prob")
        assert rc == 2

    def test_missing_file_exit_code(self, burglary_files, capsys):
        _, labels = burglary_files
        rc, _, _ = run(capsys, "infer", "--circuit", "/nonexistent.nnf",
                       "--labels", labels, "--query", "1",
                       "--backend", "prob")
        assert rc == 2

    def test_inconsistent_evidence_exit_code(self, tmp_path, capsys):
        circuit = tmp_path / "one.nnf"
        circuit.write_text("nnf 1 0 1\nL 1\n")
        labels = tmp_path / "one.labels"
        labels.write_text("")
        cond = tmp_path / "cond.txt"
        cond.write_text("query 1\nevidence 1 0\n")
        rc, _, err = run(capsys, "infer", "--circuit", circuit,
                         "--labels", labels, "--evidence", cond,
                         "--backend", "prob")
        assert rc == 3
        assert "error:" in err

    def test_arithmetic_error_is_a_numerical_failure(self, burglary_files,
                                                      monkeypatch, capsys):
        def underflow(*args, **kwargs):
            raise ZeroDivisionError("float division by zero")

        monkeypatch.setattr(cli, "eval_cov", underflow)
        circuit, labels = burglary_files
        rc, out, err = run(capsys, "infer", "--circuit", circuit,
                           "--labels", labels, "--query", "1",
                           "--backend", "cpb")
        assert rc == 2
        assert out == ""
        assert err == "error: numerical failure: float division by zero\n"

    def test_300_blocks_answer(self, tmp_path, make_block_nnf, capsys):
        # E[root] = 0.5^300 with Beta(5,5) labels; the other blocks cancel
        # from the conditional, which keeps the one-block mean and variance.
        k = 300
        circuit = tmp_path / "blocks.nnf"
        circuit.write_text(make_block_nnf(k))
        labels = tmp_path / "blocks.labels"
        labels.write_text(format_label_table(
            LabelTable({v: BetaLabel(5, 5) for v in range(1, 3 * k + 1)})))
        cond = tmp_path / "cond.txt"
        cond.write_text(f"query 1\nevidence {3 * k} 1\n")
        rc, out, err = run(capsys, "infer", "--circuit", circuit,
                           "--labels", labels, "--evidence", cond,
                           "--backend", "cpb")
        assert rc == 0
        mean, var = (float(f) for f in out.split()[:2])
        assert mean == pytest.approx(0.5, rel=1e-12)
        assert var == pytest.approx(3 / 88, rel=1e-12)
        # 900 variables: validate's determinism warning is all of stderr.
        assert err.startswith("warning: determinism not checked:")
        assert len(err.splitlines()) == 1

    @pytest.mark.parametrize("backend", ["sl", "cpb", "mm", "prob"])
    def test_query_implied_by_evidence(self, burglary_files, tmp_path,
                                       capsys, backend):
        # Evidence burglary=1 makes the burglary query certain; sl's
        # conditional is the identity opinion, whose base rate is 1.
        circuit, labels = burglary_files
        cond = tmp_path / "cond.txt"
        cond.write_text("evidence 1 1\n")
        rc, out, err = run(capsys, "infer", "--circuit", circuit,
                           "--labels", labels, "--evidence", cond,
                           "--query", "1", "--backend", backend)
        assert (rc, out, err) == (0, "1.0 0.0 inf 1\n", "")

    def test_unchecked_determinism_warns_on_stderr(self, burglary_files,
                                                   tmp_path, capsys):
        # The same circuit declared over 17 variables exceeds validate's
        # exact-check limit of 16: the answer is unchanged, and stderr
        # says that determinism was trusted, not checked.
        circuit, labels = burglary_files
        wide = tmp_path / "wide.nnf"
        header, body = circuit.read_text().split("\n", 1)
        wide.write_text(header.rsplit(" ", 1)[0] + " 17\n" + body)
        argv = ("--labels", labels, "--query", "1", "--backend", "cpb")
        _, expect, _ = run(capsys, "infer", "--circuit", circuit, *argv)
        rc, out, err = run(capsys, "infer", "--circuit", wide, *argv)
        assert (rc, out) == (0, expect)
        assert err.startswith("warning: determinism not checked: 17 variables")

    def test_mc_seed_reproducible(self, burglary_files, capsys):
        circuit, labels = burglary_files
        outs = []
        for _ in range(2):
            rc, out, _ = run(capsys, "infer", "--circuit", circuit,
                             "--labels", labels, "--query", "1",
                             "--backend", "mc", "--samples", "500",
                             "--seed", "7")
            assert rc == 0
            outs.append(out)
        assert outs[0] == outs[1]


class TestExperiment:
    def test_writes_metric_csvs(self, tmp_path, capsys):
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps({
            "model": "burglary", "n_ins": 10, "truth_draws": 10,
            "repetitions": 3, "backends": ["cpb"], "seed": 1,
            "golden_samples": 0}))
        out = tmp_path / "out"
        rc, _, _ = run(capsys, "experiment", "--config", config, "--out", out)
        assert rc == 0
        assert {p.name for p in out.iterdir()} == {
            "rmse.csv", "calibration.csv", "correlation.csv", "timing.csv"}

    def test_bad_config_exit_code(self, tmp_path, capsys):
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps({"model": "nope"}))
        rc, _, err = run(capsys, "experiment", "--config", config,
                         "--out", tmp_path / "out")
        assert rc == 2
        assert "error:" in err

    @pytest.mark.parametrize("raw, message", [
        ({"model": "net1", "bogus": 1}, "unknown experiment config keys ['bogus']"),
        ({"model": "net1", "n_ins": "ten"}, "n_ins must be an integer"),
        ({"model": "net1", "seed": "x"}, "seed must be an integer"),
        ({"model": "net1", "backends": 5}, "malformed experiment config"),
        (["net1"], "must be a JSON object"),
        ({"model": "net1", "model_options": {"bogus": 1}, "fast": True},
         "model 'net1' has no option 'bogus'"),
    ], ids=["unknown-key", "wrong-type", "wrong-seed-type", "not-a-list",
            "not-an-object", "unknown-model-option"])
    def test_malformed_config_exit_code(self, tmp_path, capsys, raw, message):
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps(raw))
        rc, out, err = run(capsys, "experiment", "--config", config,
                           "--out", tmp_path / "out")
        assert rc == 2
        assert out == ""
        assert err.startswith("error:") and message in err
        assert "Traceback" not in err


def _loaded_in_fresh_process(module: str, imported: str) -> str:
    """Whether importing ``imported`` loads ``module``: "True" or "False"."""
    code = f"import sys, {imported}; print({module!r} in sys.modules)"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    return out.strip()


def test_import_does_not_load_scipy():
    # ``infer`` never needs scipy; ``experiment`` (via harness) loads only
    # ``scipy.special``.
    assert _loaded_in_fresh_process("scipy", "betacircuits.cli") == "False"


def test_harness_import_does_not_load_scipy_stats():
    # Coverage needs one ``betainc`` per record, not scipy.stats' inverse
    # CDFs; loading scipy.stats would more than double the import time.
    assert _loaded_in_fresh_process("scipy.stats",
                                    "betacircuits.harness") == "False"


def test_infer_without_arrays_does_not_load_numpy(burglary_files, tmp_path):
    # Only Monte Carlo, learning and the harness build arrays; importing the
    # package and answering with any other backend must not load numpy.
    circuit, labels = burglary_files
    cov = tmp_path / "burglary.cov"
    cov.write_text("1 2 0.001\n")
    code = """
import contextlib, io, sys
import betacircuits
from betacircuits.cli import main
assert 'numpy' not in sys.modules, 'import betacircuits'
circuit, labels, cov = sys.argv[1:]
for extra in (["prob"], ["sl"], ["mm"], ["cpb"], ["cpb", "--cov", cov]):
    argv = ["infer", "--circuit", circuit, "--labels", labels,
            "--query", "1", "--backend", *extra]
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(argv) == 0, extra
    assert 'numpy' not in sys.modules, extra
print("ok")
"""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    out = subprocess.run(
        [sys.executable, "-c", code, str(circuit), str(labels), str(cov)],
        env=env, check=True, capture_output=True, text=True).stdout
    assert out.strip() == "ok"


def test_mc_backend_output_is_pinned(burglary_files, capsys):
    # numpy is imported on the first Monte Carlo call; the draw and the
    # printed line stay those of a module-level import.
    circuit, labels = burglary_files
    rc, out, _ = run(capsys, "infer", "--circuit", circuit, "--labels", labels,
                     "--query", "1", "--backend", "mc", "--samples", "2000",
                     "--seed", "7")
    assert rc == 0
    assert out == ("0.3705776968552207 0.044368737761388936 "
                   "1.5775777619675324 2.679499162399746\n")
