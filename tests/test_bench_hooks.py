"""The library names that the benchmark in ``bench/`` reaches still exist.

The traced runs of ``bench/workloads.py`` patch library attributes by
name, and its ``scale`` workload calls one-query entry points directly.
A change that renames or removes one of them breaks the benchmark and
fails no other test.  These tests import the workloads, resolve every
name, make each workload's reduced inputs and run one reduced round of
each in-process, which must pass the bench's own answer checks.
``bench/`` itself is only read.
"""

import importlib
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.fixture(scope="module")
def bench():
    """``bench/workloads.py`` and ``bench/tracing.py``, imported."""
    with pytest.MonkeyPatch.context() as mp:
        mp.syspath_prepend(str(ROOT / "bench"))
        yield (importlib.import_module("workloads"),
               importlib.import_module("tracing"))


def test_every_patch_target_resolves(bench, tmp_path):
    workloads, _ = bench
    assert sorted(workloads.WORKLOADS) == ["calibrate", "infer", "scale"]
    for name, cls in workloads.WORKLOADS.items():
        wl = cls(ROOT, tmp_path, 0, True)
        wl.imports(True)
        targets = wl.setup_targets() + wl.round_targets()
        missing = [f"{owner.__name__}.{attr}" for owner, attr, _ in targets
                   if not hasattr(owner, attr)]
        assert missing == [], name


def test_every_reduced_build_runs(bench, tmp_path):
    # Infer's build picks each CNF query from Circuit.variables() and
    # writes every circuit with format_nnf.
    workloads, _ = bench
    built = {}
    for name, cls in workloads.WORKLOADS.items():
        wl = built[name] = cls(ROOT, tmp_path, 0, True)
        wl.imports(False)
        wl.build()
    infer, scale = built["infer"], built["scale"]
    assert len(infer.queries) == len(infer.builtins) + len(infer.cnf_vars)
    for q in infer.queries:
        c = workloads.bc_circuit.parse_nnf(q.paths[0].read_text())
        assert q.query in c.variables(), q.tag
    assert tuple(scale.texts) == scale.ladder + (scale.UNDERFLOW_BLOCKS,)
    assert len(built["calibrate"].cells) == len(
        workloads.Calibrate.REDUCED_MODELS)


def test_every_reduced_round_is_correct(bench, tmp_path):
    # The round that a traced run replays: infer through cli.main, scale
    # and calibrate as timed.  Each answer must pass the bench's checks.
    workloads, _ = bench
    for name, cls in workloads.WORKLOADS.items():
        work = tmp_path / name
        work.mkdir()
        wl = cls(ROOT, work, 0, True)
        wl.imports(True)
        wl.build()
        tally = workloads.Tally()
        wl.traced_round(0, tally, None)
        assert (tally.problems, tally.failed) == ([], 0), name
        assert tally.answers == tally.attempted > 0, name


def test_scale_direct_calls_answer_under_the_tracer(bench, tmp_path):
    # Scale._answer calls cpb.eval_cov(cpb.shadow_circuit(staged)),
    # mc.mc_eval and semirings.conditioned_eval; the tracer's hooks read
    # ShadowedCircuit.circuit and .n_total and the results' fields.
    workloads, tracing = bench
    scale = workloads.Scale(ROOT, tmp_path, 0, True)
    bc = workloads.bc_circuit
    c = bc.parse_nnf(workloads.block_nnf(2))
    staged = bc.set_condition(c, query=1, evidence=[(6, True)])
    labels = workloads.fit_labels(range(1, 7), np.random.default_rng(0))
    tracer = tracing.Tracer()
    with tracer.patched(scale.round_targets()):
        for backend in workloads.NO_SL:
            ans = scale._answer(backend, staged, labels, 0)
            assert 0.0 < ans.mean < 1.0 and ans.variance > 0.0, backend
    # 15 nodes, and shadows of leaf -1, its block's AND and OR, and the root.
    assert [size[:2] for size in tracer.eval_cov_sizes] == [(15, 19)]
