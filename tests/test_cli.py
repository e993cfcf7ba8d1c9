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
from betacircuits.examples import (burglary_circuit, burglary_labels,
                                   net1_model)


@pytest.fixture()
def burglary_files(tmp_path):
    circuit = tmp_path / "burglary.nnf"
    labels = tmp_path / "burglary.labels"
    circuit.write_text(format_nnf(burglary_circuit()))
    labels.write_text(format_label_table(burglary_labels()))
    return circuit, labels


@pytest.fixture()
def net1_files(tmp_path):
    """net1 compiled with all-true evidence, labels varying by variable."""
    model = net1_model()
    circuit = tmp_path / "net1.nnf"
    labels = tmp_path / "net1.labels"
    circuit.write_text(format_nnf(
        model.circuit({v: True for v in model.random_evidence_vars})))
    labels.write_text(format_label_table(LabelTable(
        {v: BetaLabel(4.0 + 2 * (v % 4), 6.0 + 3 * (v % 3))
         for v in model.prob_vars})))
    return circuit, labels, model.query_vars[0]


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

    @pytest.mark.parametrize("backend, cov, expect", [
        ("prob", False, "0.3571428571428571 2.2959183673446427e-13 "
         "357142857142.8571 642857142857.143\n"),
        ("sl", False, "0.3571428571428571 0.0373063534225331 "
         "1.8407960199004985 3.3134328358208975\n"),
        ("mm", False, "0.3571428571428571 0.0604189044038668 "
         "1.0 1.8000000000000003\n"),
        ("cpb", False, "0.3571428571428571 0.04705831444690254 "
         "1.3853140394088665 2.49356527093596\n"),
        ("cpb", True, "0.3571428571428571 0.04120137983632361 "
         "1.6330109890109885 2.93941978021978\n"),
    ], ids=["prob", "sl", "mm", "cpb", "cpb-cov"])
    def test_burglary_output_is_pinned(self, burglary_files, tmp_path,
                                       capsys, backend, cov, expect):
        circuit, labels = burglary_files
        extra = ()
        if cov:
            (tmp_path / "leaf.cov").write_text("1 2 0.001\n")
            extra = ("--cov", tmp_path / "leaf.cov")
        rc, out, err = run(capsys, "infer", "--circuit", circuit,
                           "--labels", labels, "--query", "1",
                           "--backend", backend, *extra)
        assert (rc, out, err) == (0, expect, "")

    @pytest.mark.parametrize("backend, expect", [
        ("cpb", "0.24710424710424717 0.019895173782599997 "
         "2.063616852929296 6.287582598768947\n"),
        ("mm", "0.24710424710424717 0.03686315555017518 "
         "1.0 3.046874999999999\n"),
    ])
    def test_compiled_circuit_output_is_pinned(self, net1_files, capsys,
                                               backend, expect):
        circuit, labels, query = net1_files
        rc, out, _ = run(capsys, "infer", "--circuit", circuit,
                         "--labels", labels, "--query", query,
                         "--backend", backend)
        assert (rc, out) == (0, expect)

    @pytest.mark.parametrize("backend, expect", [
        ("prob", "0.5172413793103449 2.497027348392271e-13 "
         "517241379310.34485 482758620689.65515\n"),
        ("sl", "0.5172413793103449 0.028252531394830267 "
         "4.054263565891477 3.783979328165378\n"),
        ("mm", "0.5172413793103449 0.08129856483145756 "
         "1.0714285714285716 1.0\n"),
        ("cpb", "0.5172413793103449 0.03549444344545585 "
         "3.1215418906516317 2.9134390979415223\n"),
        ("mc", "0.5049120964881326 0.03513989100758146 "
         "3.0868987382803876 3.026836226183752\n"),
    ])
    def test_evidence_output_is_pinned(self, tmp_path, capsys, backend,
                                       expect):
        # c <-> (a or b) with c unlabelled; "evidence 3 1" zeroes the -3
        # leaf, so every backend but mc answers the exact
        # P(a | a or b) = 0.3 / 0.58 (0.3 without the evidence line).
        circuit = tmp_path / "iff.nnf"
        circuit.write_text("nnf 12 12 3\nL 1\nL 3\nA 2 0 1\nL -1\nL 2\n"
                           "A 2 4 1\nL -2\nL -3\nA 2 6 7\nO 2 2 5 8\n"
                           "A 2 3 9\nO 1 2 2 10\n")
        labels = tmp_path / "iff.labels"
        labels.write_text("1 3 7\n2 4 6\n")
        cond = tmp_path / "iff.cond"
        cond.write_text("query 1\nevidence 3 1\n")
        extra = ("--samples", "2000", "--seed", "7") if backend == "mc" else ()
        rc, out, err = run(capsys, "infer", "--circuit", circuit,
                           "--labels", labels, "--evidence", cond,
                           "--backend", backend, *extra)
        assert (rc, out, err) == (0, expect, "")

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

    @pytest.mark.parametrize("backend", ["prob", "sl", "mm", "cpb", "mc"])
    def test_non_finite_inputs_exit_2(self, burglary_files, tmp_path, capsys,
                                      backend):
        # NaN passes an "alpha <= 0" test and "1e400" reads as inf; only
        # the token "inf" itself marks a certain label.
        circuit, labels = burglary_files
        rest = labels.read_text().splitlines()[1:]
        infer = ("infer", "--circuit", circuit, "--labels", labels,
                 "--query", "1", "--backend", backend)
        for line in ("1 nan 18", "1 1e400 18", "1 2 18 0.5 nan", "1 inf 18"):
            labels.write_text("\n".join([line] + rest) + "\n")
            rc, out, err = run(capsys, *infer)
            if line == "1 inf 18":
                assert rc == 0 and float(out.split()[0]) == pytest.approx(1.0)
            else:
                assert (rc, out) == (2, "")
                assert err.startswith("error: label table line 1:")
        if backend == "cpb":
            cov = tmp_path / "leaf.cov"
            cov.write_text("# cross entries\n1 2 inf\n")
            rc, out, err = run(capsys, *infer, "--cov", cov)
            assert (rc, out) == (2, "")
            assert err.startswith("error: leaf covariance line 2:")

    @pytest.mark.parametrize("backend", ["prob", "sl", "mm", "cpb", "mc"])
    def test_overflowing_alpha_sum_exits_2(self, burglary_files, capsys,
                                           backend):
        # Before, the mean read 1e308 / inf = 0.0 for the label and for its
        # complement: prob, cpb and mm exited 3 with "inconsistent
        # evidence", sl 2 on an opinion summing to 0, mc 0 with "0.0 0.0".
        circuit, labels = burglary_files
        labels.write_text("1 1e308 1e308\n2 1e-300 1e-300\n3 1 1\n")
        rc, out, err = run(capsys, "infer", "--circuit", circuit,
                           "--labels", labels, "--query", "1",
                           "--backend", backend)
        assert (rc, out) == (2, "")
        assert err.startswith("error: label table line 1: ")

    @pytest.mark.parametrize("flag, text, message", [
        ("--labels", "1 2 18\n2 2 8\n3 inf x\n", "label table line 3: "),
        ("--labels", "1 inf inf\n2 2 8\n", "label table line 1: "),
        ("--labels", "1 2 18 0.5 2 8\n", "label table line 1: "),
        ("--labels", "1 2 18\n2 2 8\n1 2 8\n", "label table line 3: "),
        ("--evidence", "evidence x 1\n", "condition file line 1: "),
        ("--evidence", "# q\nquery y\n", "condition file line 2: "),
        ("--cov", "1 2 0.001\n2 1 0.002\n", "leaf covariance line 2: ")])
    def test_misread_inputs_exit_2(self, burglary_files, tmp_path, capsys,
                                   flag, text, message):
        # Before, the label and covariance files answered with a field or
        # a line dropped, and the condition files gave no line number.
        circuit, labels = burglary_files
        bad = tmp_path / "bad.txt"
        bad.write_text(text)
        files = {"--labels": labels, flag: bad}
        rc, out, err = run(capsys, "infer", "--circuit", circuit,
                           "--query", "1", "--backend", "cpb",
                           *(x for item in files.items() for x in item))
        assert (rc, out) == (2, "")
        assert err.startswith("error: " + message)

    @pytest.mark.parametrize("line", ["evidence 0 1", "evidence 9 1",
                                      "evidence -9 0"])
    def test_evidence_variable_out_of_range(self, burglary_files, tmp_path,
                                            capsys, line):
        # Before, each of these answered the unconditioned 5/14, exit 0.
        circuit, labels = burglary_files
        cond = tmp_path / "cond.txt"
        cond.write_text(line + "\n")
        rc, out, err = run(capsys, "infer", "--circuit", circuit,
                           "--labels", labels, "--evidence", cond,
                           "--query", "1", "--backend", "prob")
        assert (rc, out) == (2, "")
        assert err.startswith("error: evidence variable ")
        assert err.endswith(" out of range 1..3\n")

    def test_evidence_literals_and_leafless_variables(self, burglary_files,
                                                      tmp_path, capsys):
        # A negative id reads as a literal: "evidence -2 1" is earthquake
        # false, which leaves burglary as the only way to the call.  A
        # variable in range but with no leaf (as compiling can leave one)
        # is accepted and changes nothing.
        circuit, labels = burglary_files
        wide = tmp_path / "wide.nnf"
        header, body = circuit.read_text().split("\n", 1)
        wide.write_text(header.rsplit(" ", 1)[0] + " 4\n" + body)
        cond = tmp_path / "cond.txt"
        for nnf, line, expect in ((circuit, "evidence -2 1", 1.0),
                                  (wide, "evidence 4 0", 5.0 / 14.0)):
            cond.write_text(line + "\n")
            rc, out, _ = run(capsys, "infer", "--circuit", nnf,
                             "--labels", labels, "--evidence", cond,
                             "--query", "1", "--backend", "prob")
            assert rc == 0
            assert float(out.split()[0]) == pytest.approx(expect, abs=1e-12)

    @pytest.mark.parametrize("backend", ["prob", "sl", "mm", "cpb", "mc"])
    def test_query_off_the_root_exits_2(self, tmp_path, capsys, backend,
                                        make_block_nnf):
        # Leaf 0 (variable 2) feeds nothing that reaches the root.  Before,
        # every backend answered "1.0 0.0 inf 1" with exit 0.
        circuit, labels = tmp_path / "off.nnf", tmp_path / "off.labels"
        circuit.write_text("nnf 5 2 2\nL 2\nL 1\nL -1\nO 1 2 1 2\nA 1 3\n")
        labels.write_text("1 3 7\n2 4 6\n")
        rc, out, err = run(capsys, "infer", "--circuit", circuit,
                           "--labels", labels, "--query", "2",
                           "--backend", backend)
        assert (rc, out) == (2, "")
        assert err == "error: query variable 2 does not occur in circuit\n"
        # Evidence zeroes the only leaf of variable 3, which still occurs.
        circuit.write_text(make_block_nnf(2))
        labels.write_text("".join(f"{v} 2 3\n" for v in range(1, 7)))
        cond = tmp_path / "off.cond"
        cond.write_text("query 3\nevidence 3 0\n")
        rc, out, err = run(capsys, "infer", "--circuit", circuit,
                           "--labels", labels, "--evidence", cond,
                           "--backend", backend)
        assert (rc, err) == (0, "")
        assert len(out.split()) == 4

    def test_cov_literal_0_is_rejected(self, burglary_files, tmp_path,
                                       capsys):
        # Before, "0 1 0.01" was stored under variable 0 and never read.
        circuit, labels = burglary_files
        cov = tmp_path / "leaf.cov"
        cov.write_text("1 2 0.001\n0 1 0.01\n")
        rc, out, err = run(capsys, "infer", "--circuit", circuit,
                           "--labels", labels, "--query", "1",
                           "--backend", "cpb", "--cov", cov)
        assert (rc, out) == (2, "")
        assert err == "error: leaf covariance line 2: 0 is not a literal\n"

    @pytest.mark.parametrize("line, value", [("1 2 0.5", "0.5"),
                                             ("-1 2 0.0079", "-0.0079")])
    def test_cov_beyond_the_labels_is_rejected(self, burglary_files, tmp_path,
                                               capsys, line, value):
        # |cov| may not pass sqrt(var[1] var[2]) = 0.00790: a correlation
        # outside [-1, 1].  Before, "1 2 0.5" answered variance 0.0 with
        # alphas near 1e12 and exit 0.
        circuit, labels = burglary_files
        cov = tmp_path / "leaf.cov"
        cov.write_text(line + "\n")
        rc, out, err = run(capsys, "infer", "--circuit", circuit,
                           "--labels", labels, "--query", "1",
                           "--backend", "cpb", "--cov", cov)
        assert (rc, out) == (2, "")
        assert err == (f"error: covariance {value} of variables 1 and 2 "
                       "exceeds sqrt(var[1] var[2]) = 0.007895420339517229\n")

    @pytest.mark.parametrize("backend", ["prob", "sl", "mm", "mc"])
    def test_cov_needs_cpb(self, burglary_files, tmp_path, capsys, backend):
        circuit, labels = burglary_files
        cov = tmp_path / "leaf.cov"
        cov.write_text("1 2 0.001\n")
        rc, out, err = run(capsys, "infer", "--circuit", circuit,
                           "--labels", labels, "--query", "1",
                           "--backend", backend, "--cov", cov)
        assert (rc, out) == (2, "")
        assert err == "error: --cov applies only to --backend cpb\n"

    @pytest.mark.parametrize("backend, flag", [
        ("prob", "--samples"), ("sl", "--seed"), ("mm", "--samples"),
        ("cpb", "--seed")])
    def test_samples_and_seed_need_mc(self, burglary_files, capsys, backend,
                                      flag):
        # Before, the other backends ignored them and exited 0.
        circuit, labels = burglary_files
        rc, out, err = run(capsys, "infer", "--circuit", circuit,
                           "--labels", labels, "--query", "1",
                           "--backend", backend, flag, "7")
        assert (rc, out) == (2, "")
        assert err == "error: --samples and --seed apply only to --backend mc\n"

    @pytest.mark.parametrize("flag, value, message", [
        ("--samples", "0", "--samples must be >= 1"),
        ("--seed", "-1", "--seed must be >= 0")])
    def test_samples_and_seed_bounds_name_the_flag(self, burglary_files,
                                                   capsys, flag, value,
                                                   message):
        # Before, the messages were numpy's and mc_eval's, not the flag's.
        circuit, labels = burglary_files
        rc, out, err = run(capsys, "infer", "--circuit", circuit,
                           "--labels", labels, "--query", "1",
                           "--backend", "mc", flag, value)
        assert (rc, out) == (2, "")
        assert err == f"error: {message}\n"

    def test_out_of_memory_exit_code(self, burglary_files, capsys):
        # 10^15 samples need 7.1 PiB per array, past a process's address
        # space, so numpy refuses the first one without allocating it.
        circuit, labels = burglary_files
        rc, out, err = run(capsys, "infer", "--circuit", circuit,
                           "--labels", labels, "--query", "1",
                           "--backend", "mc", "--samples", 10 ** 15)
        assert (rc, out) == (2, "")
        assert err.startswith("error: out of memory: Unable to allocate")

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


#: A valid cell that runs in well under a second.
FAST_BURGLARY = {"model": "burglary", "n_ins": 10, "truth_draws": 30,
                 "repetitions": 5, "backends": ["cpb"], "golden_samples": 0}


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

    def test_shared_annotations_cell(self, tmp_path, capsys):
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps({
            **FAST_BURGLARY, "model": "smokers",
            "model_options": {"shared_annotations": True}}))
        out = tmp_path / "out"
        rc, _, err = run(capsys, "experiment", "--config", config,
                         "--out", out)
        assert rc == 0 and err == ""
        header, row = (out / "rmse.csv").read_text().splitlines()
        assert header.startswith("backend,n_ins,trials,failures,")
        trials, failures = map(int, row.split(",")[2:4])
        assert trials + failures == 30 * 5 * 7

    def test_invalid_circuit_file_exit_code(self, tmp_path, capsys):
        # An OR over two literals that can both hold: not deterministic.
        # Unchecked, cpb and mm scored it against its own wrong sweep.
        circuit = tmp_path / "bad.nnf"
        circuit.write_text("nnf 3 2 2\nL 1\nL 2\nO 0 2 0 1\n")
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps({
            "circuit_file": str(circuit), "query_vars": [1], "n_ins": 10,
            "truth_draws": 10, "repetitions": 3, "backends": ["cpb", "mm"],
            "golden_samples": 0}))
        out = tmp_path / "out"
        rc, _, err = run(capsys, "experiment", "--config", config, "--out", out)
        assert rc == 2
        assert err.startswith("error:") and "OR children [0, 1] overlap" in err
        assert not out.exists()

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
        ({"model": "net1", "model_options": {"bogus": 1}, "truth_draws": 30,
          "repetitions": 5},
         "model 'net1' has no option 'bogus'"),
        # Unchecked, -6 x -6 passes the 30-trial check and writes NaN CSVs,
        # a negative golden_samples reads as 0, a repeated backend counts
        # its trials twice, a builtin ignores query_vars, and every gamma
        # is scored as given.
        ({"model": "burglary", "truth_draws": -6, "repetitions": -6,
          "golden_samples": 0}, "truth_draws must be >= 1"),
        ({"model": "burglary", "truth_draws": 30, "repetitions": 0,
          "golden_samples": 0}, "repetitions must be >= 1"),
        ({**FAST_BURGLARY, "golden_samples": -1},
         "golden_samples must be >= 0"),
        ({**FAST_BURGLARY, "backends": ["cpb", "cpb"]},
         "backends must not repeat a value"),
        ({**FAST_BURGLARY, "query_vars": [1]},
         "not accepted with a builtin model"),
        ({**FAST_BURGLARY, "gammas": []}, "gammas must be one or more values"),
        ({**FAST_BURGLARY, "gammas": [0.5, 0.5]},
         "gammas must not repeat a value"),
        ({**FAST_BURGLARY, "gammas": [1.5, -0.2]},
         "gammas must be one or more values in (0, 1)"),
        ({**FAST_BURGLARY, "gammas": [0.5, 1.0]},
         "gammas must be one or more values in (0, 1)"),
        # A JSON boolean is a Python int: unchecked, "n_ins": true ran with
        # 1 observation and "seed": false with seed 0.  And the string
        # "no" read as true for shared_annotations.
        ({**FAST_BURGLARY, "n_ins": True}, "n_ins must be an integer"),
        ({**FAST_BURGLARY, "truth_draws": True},
         "truth_draws must be an integer"),
        ({**FAST_BURGLARY, "repetitions": True},
         "repetitions must be an integer"),
        ({**FAST_BURGLARY, "seed": False}, "seed must be an integer"),
        ({**FAST_BURGLARY, "golden_samples": False},
         "golden_samples must be an integer"),
        # truth_draws x repetitions is the trial shape; no key caps it.
        ({**FAST_BURGLARY, "fast": "false"},
         "unknown experiment config keys ['fast']"),
        ({"model": "smokers", "model_options": {"shared_annotations": "no"},
          "truth_draws": 30, "repetitions": 5, "golden_samples": 0},
         "must be a bool"),
        # Unchecked, these three reached a traceback.
        ({**FAST_BURGLARY, "backends": [5]}, "unknown backend 5"),
        ({"circuit_file": 5, "query_vars": [1]},
         "circuit_file must be a string"),
        ({"circuit_file": "x.nnf", "query_vars": ["a"]},
         "query_vars must be integers"),
        # Unchecked, a repeated query counted its trials twice.
        ({"circuit_file": "x.nnf", "query_vars": [1, 1]},
         "query_vars must not repeat a value"),
        # Configs that did nothing: no backend to score (the golden run
        # still ran), and options a fixed circuit never reads.
        ({**FAST_BURGLARY, "backends": []},
         "backends must name one or more backends"),
        ({"circuit_file": "x.nnf", "query_vars": [1],
          "model_options": {"bogus": 1}},
         "model_options is not accepted with circuit_file"),
    ], ids=["unknown-key", "wrong-type", "wrong-seed-type", "not-a-list",
            "not-an-object", "unknown-model-option", "no-truth-draws",
            "no-repetitions", "negative-golden-samples", "repeated-backend",
            "query-vars-with-model", "no-gammas", "repeated-gamma",
            "gammas-out-of-range", "gamma-of-1", "bool-n-ins",
            "bool-truth-draws", "bool-repetitions", "bool-seed",
            "bool-golden-samples", "string-fast", "string-model-option",
            "int-backend", "int-circuit-file", "string-query-var",
            "repeated-query-var", "no-backends",
            "model-options-with-circuit-file"])
    def test_malformed_config_exit_code(self, tmp_path, capsys, raw, message):
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps(raw))
        rc, out, err = run(capsys, "experiment", "--config", config,
                           "--out", tmp_path / "out")
        assert rc == 2
        assert out == ""
        assert err.startswith("error:") and message in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("name", ["mc:01", "mc:+5", "mc: 5", "mc:5_000"])
    def test_mc_names_must_be_canonical(self, tmp_path, capsys, name):
        # int() reads each of these, so each wrote its own CSV row, and
        # ["mc:1", "mc:01"] named one backend twice.
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps({**FAST_BURGLARY, "backends": [name]}))
        rc, out, err = run(capsys, "experiment", "--config", config,
                           "--out", tmp_path / "out")
        assert (rc, out) == (2, "")
        assert err.startswith("error:") and "unknown backend" in err


def _loaded_in_fresh_process(module: str, imported: str) -> str:
    """Whether importing ``imported`` loads ``module``: "True" or "False"."""
    code = f"import sys, {imported}; print({module!r} in sys.modules)"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    return out.strip()


def test_import_does_not_load_scipy():
    # Neither ``infer`` nor ``experiment`` needs scipy.
    assert _loaded_in_fresh_process("scipy", "betacircuits.cli") == "False"


def test_harness_import_does_not_load_scipy():
    # Coverage runs the harness's own beta CDF.  scipy.special alone took
    # 0.23-0.31 s and 24 MB of RSS to import (scipy 1.17, 2 cores).
    assert _loaded_in_fresh_process("scipy", "betacircuits.harness") == "False"


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
