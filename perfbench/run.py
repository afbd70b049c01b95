#!/usr/bin/env python3
"""Benchmark of one embgeom session: one workload, one seed, one run.

    python3 perfbench/run.py --workload bert_table --seed 1 --seconds 45 --trace 0

Builds the seeded inputs in a fresh run directory, then runs whole rounds
of the session: ``--seconds`` divided by the workload's nominal round
length, at least one. The count depends on nothing measured, so every
run of a workload does the same operations. With ``--trace 0`` the last stdout
line holds the end-to-end metrics; with ``--trace 1`` the session runs
under the tracer, CLI steps run in-process, and the line holds the
per-layer metrics instead. Details of the run go to
``.perfbench/out/<workload>-seed<n>-trace<t>-<pid>.json``.
"""

import os

# Before numpy loads: BLAS threads stay at one per process, inside nproc.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from statistics import median  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".perfbench")

END_TO_END_UNITS = {
    "setup_s": "s", "peak_rss_mb": "MB", "session_s": "s", "import_s": "s",
    "neighbors_s": "s", "train_s": "s", "query_ms_p50": "ms",
    "query_ms_p90": "ms", "contextualize_s": "s", "separate_s": "s",
    "probe_s": "s",
}


def child_env(run_dir):
    env = dict(os.environ)
    env.update({
        "PYTHONPATH": SRC,
        "PYTHONHASHSEED": "0",
        "HOME": os.path.join(run_dir, "home"),
        "TMPDIR": os.path.join(run_dir, "tmp"),
        "XDG_CACHE_HOME": os.path.join(run_dir, "cache"),
    })
    for key in ("HOME", "TMPDIR", "XDG_CACHE_HOME"):
        os.makedirs(env[key], exist_ok=True)
    return env


def peak_rss_mb():
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0


def main(argv=None):
    parser = argparse.ArgumentParser(description="embgeom session benchmark")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "smoke"), default="full",
                        help="smoke runs both workloads in seconds, for the tests")
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "embgeom", "__init__.py")):
        print(f"run.py: no embgeom sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    sys.path.insert(0, HERE)
    import inputs
    import session as session_mod
    from checks import CheckError

    if args.workload not in inputs.WORKLOADS:
        parser.error(f"--workload must be one of {', '.join(inputs.WORKLOADS)}")
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}-{os.getpid()}"
    run_dir = os.path.join(WORK, "runs", name)
    os.makedirs(run_dir)
    try:
        env = child_env(run_dir)
        os.environ.update({k: env[k] for k in ("HOME", "TMPDIR", "XDG_CACHE_HOME")})

        gen_start = time.perf_counter()
        plan = inputs.make_plan(args.workload, args.seed, args.size)
        paths = inputs.write_inputs(plan, run_dir)
        generate_s = time.perf_counter() - gen_start

        import embgeom
        import embgeom.cli
        if os.path.dirname(os.path.dirname(os.path.abspath(embgeom.__file__))) != SRC:
            print(f"run.py: embgeom was imported from {embgeom.__file__}", file=sys.stderr)
            return 2

        tracer = None
        if args.trace:
            from tracing import Tracer
            tracer = Tracer()
            session_mod.instrument(tracer, embgeom)
        sess = session_mod.Session(plan, paths, run_dir, env, embgeom, tracer)

        correct, problem, round_times = True, None, []
        rounds = max(1, int(args.seconds // plan.sizes.round_seconds))
        measure_start = time.perf_counter()
        for _ in range(rounds):
            round_start = time.perf_counter()
            try:
                problem = sess.run_round()
            except CheckError as exc:
                correct, problem = False, f"check failed: {exc}"
            round_times.append(time.perf_counter() - round_start)
            if problem:
                break
            gc.collect()
        measured_s = time.perf_counter() - measure_start
        # a round that stops at its first step leaves no probe samples
        calibration_s = median(sess.samples["calibration_s"] or [session_mod.calibrate()])
        starts = sess.samples["interpreter_s"] or [session_mod.interpreter_start(env, run_dir)]
        # interpreter start and package import, from fresh interpreters
        # spread over the run, plus making this run's inputs
        setup_s = median(starts) + generate_s
        if tracer is not None:
            tracer.restore()

        if args.trace:
            units = session_mod.PER_LAYER_UNITS
            values = sess.per_layer(rounds) if correct and not problem else {}
        else:
            units = END_TO_END_UNITS
            values = dict(sess.end_to_end(), setup_s=setup_s, peak_rss_mb=peak_rss_mb())
        metrics = {k: {"value": values[k], "unit": u} for k, u in units.items() if k in values}

        detail = {
            "workload": args.workload, "seed": args.seed, "trace": args.trace,
            "size": args.size, "round_s": round_times,
            "measured_s": measured_s, "generate_s": generate_s,
            "calibration_s": calibration_s,
            "problem": problem, "samples": sess.samples, "metrics": metrics,
        }
        if tracer is not None:
            detail["spans"] = tracer.summary()
        os.makedirs(os.path.join(WORK, "out"), exist_ok=True)
        with open(os.path.join(WORK, "out", name + ".json"), "w", encoding="utf-8") as fh:
            json.dump(detail, fh, indent=1)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    if problem:
        print(f"run.py: {problem}", file=sys.stderr)
    print(json.dumps({"calibration_s": calibration_s, "rounds": len(round_times),
                      "measured_s": round(measured_s, 3)}))
    print(json.dumps({
        "correct": correct, "attempted": sess.attempted, "failed": sess.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
