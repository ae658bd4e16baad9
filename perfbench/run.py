"""urelnet benchmark: one workload, one seed, one process.

    python3 perfbench/run.py --workload desk --seed 7 --seconds 60 --trace 0

Run from the root of a source tree; the package is imported from its
``src`` directory, nothing is installed. With ``--trace 0`` the last line of
standard output is the result with the end-to-end metrics; with
``--trace 1`` it carries the per-layer metrics of a traced pass. The line
before it is a detail record (environment, samples, digests, counts); the
same record is written under ``.bench_build/perfbench/results``.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

STARTED = time.perf_counter()
ROOT = Path(__file__).resolve().parent.parent
BENCH = Path(__file__).resolve().parent
WORK = ROOT / ".bench_build" / "perfbench"
IMPORT_SAMPLES = 5
END_MARGIN_S = 1.5  # interpreter start before STARTED, and the closing checks
ONE_THREAD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}

END_TO_END = (
    ("setup_s", "s"),
    ("synth_s", "s"),
    ("train_steps_per_s", "steps/s"),
    ("eval_scenes_per_s", "scenes/s"),
    ("predict_ms_p50", "ms"),
    ("predict_ms_p90", "ms"),
    ("gradcheck_params_per_s", "params/s"),
    ("peak_rss_mb", "MB"),
)

_IMPORT_PROBE = (
    "import sys, time; sys.path.insert(0, sys.argv[1]); t = time.perf_counter(); "
    "import urelnet; print(time.perf_counter() - t)"
)


def import_seconds() -> float:
    """Package import time in a fresh interpreter (numpy included)."""
    out = subprocess.run(
        [sys.executable, "-c", _IMPORT_PROBE, str(ROOT / "src")],
        capture_output=True, text=True, check=True, timeout=120,
    )
    return float(out.stdout.strip())


def gemm_probe(shapes: list, env_overrides: dict) -> dict:
    env = dict(os.environ, **env_overrides)
    out = subprocess.run(
        [sys.executable, str(BENCH / "gemm_probe.py"), json.dumps(shapes)],
        capture_output=True, text=True, check=True, timeout=150, env=env,
    )
    return json.loads(out.stdout.strip().splitlines()[-1])


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=7, help="data seed (training seed is fixed at 0)")
    parser.add_argument(
        "--seconds", type=float, required=True,
        help="wall time of an untraced run, preparation included (BENCHMARK.json's run_seconds)",
    )
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true", help="smoke-test sizes, one round; numbers are not comparable")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "urelnet" / "__init__.py").is_file():
        print(f"error: no urelnet sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(BENCH))
    start = time.perf_counter()
    import urelnet

    in_process_import_s = time.perf_counter() - start
    if Path(urelnet.__file__).resolve().parent != ROOT / "src" / "urelnet":
        print(f"error: urelnet imported from {urelnet.__file__}, not this tree", file=sys.stderr)
        return 2

    import envinfo
    import workloads as wl

    if args.workload not in wl.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from {sorted(wl.WORKLOADS)}", file=sys.stderr)
        return 2
    workload = wl.WORKLOADS[args.workload]
    if args.tiny:
        workload = wl.tiny(workload)

    run_dir = WORK / f"{args.workload}-seed{args.seed}-trace{args.trace}-{os.getpid()}"
    detail = {
        "environment": envinfo.environment(ROOT, args.workload, args.seed),
        "workload": dict(vars(workload)),
        "in_process_import_s": in_process_import_s,
        "tiny": args.tiny,
    }
    ledger = wl.Ledger()
    try:
        measure = traced if args.trace else untraced
        metrics = measure(args, workload, run_dir, detail, ledger)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    result = {
        "correct": ledger.failed == 0,
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "metrics": metrics,
    }
    detail["ledger"] = {
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "failed_ratio": ledger.failed / ledger.attempted,
        "by_kind": ledger.by_kind,
        "failures": ledger.failures,
    }
    results_dir = WORK / "results"
    results_dir.mkdir(parents=True, exist_ok=True)
    record = {"detail": detail, "result": result}
    text = json.dumps(record, sort_keys=True, default=str)
    (results_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(text + "\n")
    print(text)
    print(json.dumps(result, sort_keys=True))
    return 0


def _prepare(args, workload, run_dir, detail, ledger):
    """Import timings, then an unmeasured warm-up pass of the workflow at a
    few scenes. Without it the first samples alone pay the BLAS library's
    lazy start-up (about 0.85 s inside the first training step at full
    dims on a 2-vCPU Xeon VM with OpenBLAS 0.3.31), which makes them
    outliers. Returns (median import seconds, the
    pool boundary, not installed)."""
    import workloads as wl

    imports = [import_seconds() for _ in range(IMPORT_SAMPLES)]
    detail["import_s_samples"] = imports
    boundary = wl.PoolBoundary()
    boundary.install()
    wl.single_pass(wl.Run(wl.warmup(workload), args.seed, run_dir / "warmup", ledger, boundary))
    boundary.uninstall()
    return statistics.median(imports), boundary


def _sample_detail(samples: dict) -> dict:
    out = {k: v for k, v in samples.items() if k != "gradcheck"}
    out["gradcheck"] = {"im" if im else "union": v for im, v in samples["gradcheck"].items()}
    out["predict_calls"] = sum(map(len, samples["predict_ms"]))
    out["predict_images"] = len(samples["predict_ms"][0])
    return out


def untraced(args, workload, run_dir, detail, ledger) -> dict:
    import workloads as wl

    import_s, boundary = _prepare(args, workload, run_dir, detail, ledger)
    boundary.install()
    run = wl.Run(workload, args.seed, run_dir / "measured", ledger, boundary)
    window_start = time.perf_counter()
    samples = wl.measure(run, STARTED + args.seconds - END_MARGIN_S)
    window_s = time.perf_counter() - window_start
    boundary.uninstall()
    run.check_digests()
    values = wl.end_to_end(import_s, samples)
    values["peak_rss_mb"] = peak_rss_mb()
    detail.update(
        window_s=window_s,
        samples=_sample_detail(samples),
        synth_sizes=run.synth_sizes,
        digests={k: sorted(v) for k, v in run.digests.items()},
        relation_r50=run.relation_r50,
        end_to_end=values,
    )
    return {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}


def traced(args, workload, run_dir, detail, ledger) -> dict:
    import layers
    import workloads as wl
    from tracing import Tracer

    import_s, boundary = _prepare(args, workload, run_dir, detail, ledger)

    # One untraced pass, then the same pass traced: the ratio is the overhead.
    boundary.install()
    plain = wl.Run(workload, args.seed, run_dir / "plain", ledger, boundary)
    start = time.perf_counter()
    plain_samples = wl.single_pass(plain)
    plain_wall = time.perf_counter() - start
    boundary.uninstall()

    tracer = Tracer()
    tracer.install(layers.observers())
    boundary.install()
    run = wl.Run(workload, args.seed, run_dir / "traced", ledger, boundary, tracer)
    try:
        start = time.perf_counter()
        traced_samples = wl.single_pass(run)
        traced_wall = time.perf_counter() - start
    finally:
        boundary.uninstall()
        tracer.uninstall()
    for name, found in run.digests.items():
        found.update(plain.digests[name])
    run.check_digests()

    untraced_values = wl.end_to_end(import_s, plain_samples)
    traced_values = wl.end_to_end(import_s, traced_samples)
    overhead = traced_wall / plain_wall
    values, named = layers.summarize(tracer, overhead, run.relation_r50)

    layers_per_model = tracer.counts["training.model_layers"] // max(1, tracer.counts["training.runs"])
    expected_fd = sum(wl.toy_param_count(im) for im in workload.gradcheck_im)
    checks = {}
    for name, (observed, expected) in layers.identities(tracer, layers_per_model, expected_fd).items():
        ok = observed == expected
        ledger.record("check.identity", ok, f"{name}: {observed} != {expected}")
        checks[name] = {"observed": observed, "expected": expected, "ok": ok}

    shapes = layers.training_shapes(tracer)
    probe_shapes = [{k: s[k] for k in ("layer", "batch", "in", "out", "activation")} for s in shapes]
    gemm = {
        "traced": shapes,
        "default_pool": gemm_probe(probe_shapes, {}),
        "one_thread": gemm_probe(probe_shapes, ONE_THREAD_ENV),
    }

    traces_dir = WORK / "traces"
    traces_dir.mkdir(parents=True, exist_ok=True)
    spans_path = traces_dir / f"{args.workload}-seed{args.seed}.spans.jsonl"
    tracer.write_spans(spans_path)

    detail.update(
        functions={
            name: {"calls": tracer.calls[name], "self_s": tracer.self_s.get(name)}
            for name in sorted(tracer.calls)
        },
        modules=tracer.module_totals(),
        named_counts=named,
        raw_counts=dict(tracer.counts),
        identities=checks,
        tracing_overhead={
            "pass_wall": overhead,
            "untraced": untraced_values,
            "traced": traced_values,
            "traced_over_untraced": {
                k: traced_values[k] / untraced_values[k] for k in traced_values if untraced_values[k]
            },
        },
        gemm=gemm,
        spans_file=str(spans_path.relative_to(ROOT)),
        span_count=len(tracer.spans),
        digests={k: sorted(v) for k, v in run.digests.items()},
        peak_rss_mb=peak_rss_mb(),
    )
    return {name: {"value": values[name], "unit": unit_name} for name, unit_name, _ in layers.per_layer_spec()}


if __name__ == "__main__":
    sys.exit(main())
