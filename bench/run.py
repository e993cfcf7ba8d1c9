"""Benchmark of the betacircuits library: one workload, one seed, one run.

    python3 bench/run.py --workload {infer,scale,calibrate} --seed N \
        --seconds S --trace {0,1} [--reduced]

Run from anywhere inside a checkout of the repository; the library is
imported from its ``src/`` directory.  The inputs are made from ``--seed``,
every answer is checked against a computation made apart from the library
(``reference.py``), and the last line of standard output is one JSON
object: ``correct``, ``attempted``, ``failed`` and ``metrics``.  With
``--trace 0`` the metrics are the end-to-end ones; with ``--trace 1`` they
are the per-layer ones, from spans recorded around calls into each module
(``tracing.py``).  ``--reduced`` runs one round of smaller inputs, with
every check, for the self-test.  Results and traces go to ``bench/out/``.
"""

import time

T_START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import os  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / "bench" / "out"
SETUP_REPEATS = 3


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True,
                   choices=("infer", "scale", "calibrate"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--reduced", action="store_true",
                   help="one round of smaller inputs (self-test size)")
    return p.parse_args(argv)


def timed_rounds(run, seconds: float, rounds_cap) -> list[float]:
    """Whole rounds while the next one would end by ``seconds`` give or
    take half a round, so that the round count is steady from run to run."""
    durations: list[float] = []
    t0 = time.perf_counter()
    while True:
        if rounds_cap is not None:
            if len(durations) >= rounds_cap:
                break
        elif durations and (time.perf_counter() - t0
                            + statistics.median(durations) / 2 > seconds):
            break
        ts = time.perf_counter()
        run(len(durations))
        durations.append(time.perf_counter() - ts)
    return durations


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "betacircuits" / "__init__.py").is_file():
        print(f"error: no library sources at {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    import tracing
    import workloads

    work = OUT / f"work-{args.workload}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        wl = workloads.WORKLOADS[args.workload](ROOT, work, args.seed,
                                                args.reduced)
        traced = bool(args.trace)
        wl.imports(traced)
        import_s = time.perf_counter() - T_START
        tracer = tracing.Tracer() if traced else None
        builds = []
        for i in range(SETUP_REPEATS):
            t = time.perf_counter()
            if tracer is not None and i == SETUP_REPEATS - 1:
                with tracer.patched(wl.setup_targets()):
                    wl.build()
            else:
                wl.build()
            builds.append(time.perf_counter() - t)
        setup_s = import_s + statistics.median(builds)

        tally = workloads.Tally()
        cap = wl.reduced_rounds if args.reduced else None
        if not traced:
            durations = timed_rounds(lambda r: wl.run_round(r, tally),
                                     args.seconds, cap)
            metrics = {
                "setup_s": (setup_s, "s"),
                "answers_per_s": (tally.answers / sum(tally.op_seconds), "1/s"),
                "p50_ms": (1e3 * statistics.median(tally.op_seconds), "ms"),
                "peak_rss_mb": (wl.peak_rss_mb(), "MB"),
            }
            extra = {"rounds": len(durations)}
        else:
            plain, traced_s = [], []

            def pair(r):
                # Alternate which half goes first, so warm-up is shared out.
                for tr in ((None, tracer) if r % 2 == 0 else (tracer, None)):
                    n0 = len(tally.op_seconds)
                    if tr is None:
                        wl.traced_round(r, tally, None)
                    else:
                        with tr.patched(wl.round_targets()):
                            wl.traced_round(r, tally, tr)
                    (plain if tr is None else traced_s).append(
                        sum(tally.op_seconds[n0:]))

            timed_rounds(pair, args.seconds, 1 if args.reduced else None)
            overhead = 100.0 * (sum(traced_s) / sum(plain) - 1.0)
            layers = tracing.layer_metrics(
                tracer, len(traced_s), import_s=wl.import_seconds(),
                overhead_pct=overhead)
            units = {m["name"]: m["unit"] for m in json.loads(
                (ROOT / "BENCHMARK.json").read_text())["per_layer"]}
            metrics = {k: (v, units[k]) for k, v in layers.items()}
            extra = {"rounds": len(traced_s), "untraced_round_s": plain,
                     "traced_round_s": traced_s}
            tracer.write(OUT / f"trace-{args.workload}-seed{args.seed}.json",
                         {"workload": args.workload, "seed": args.seed})
    finally:
        shutil.rmtree(work, ignore_errors=True)

    for problem in tally.problems[:20]:
        print(f"check failed: {problem}", file=sys.stderr)
    result = {
        "correct": not tally.problems,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": float(v), "unit": u}
                    for k, (v, u) in metrics.items()},
    }
    record = dict(result, workload=args.workload, seed=args.seed,
                  trace=args.trace, reduced=args.reduced,
                  operations=[[t, s] for t, s in zip(tally.op_tags,
                                                     tally.op_seconds)],
                  **extra)
    (OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
     ).write_text(json.dumps(record, indent=1) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
