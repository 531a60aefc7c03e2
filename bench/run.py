"""kgkit benchmark: one workload, one seed, one run.

    python3 bench/run.py --workload ingest --seed 0 --seconds 30 --trace 0

Run from the root of a source checkout; kgkit is imported from `src/`.
With `--trace 0` the run measures the workload for about `--seconds`
seconds, in whole cycles, and reports the end-to-end metrics.  With
`--trace 1` it runs a fixed prefix of the same operation stream twice,
first plain and then under the tracer, and reports the per-layer metrics
(whose counts repeat exactly for a seed) and the tracing overhead.

Human-readable lines come first; the last line of stdout is one JSON
object with the keys correct, attempted, failed and metrics.  A failed
operation or output check makes the exit code 1.  Without `src/kgkit` the
run prints an error and exits 2.

`--record` runs the default seed for a fixed number of cycles and stores
the output checksums in `bench/checksums.json`.
"""

import time

# Process start, as now minus the CPU time the interpreter has used so far:
# start-up before this line is CPU-bound, so this counts it in setup_s.
PROCESS_START = time.perf_counter() - time.process_time()

import argparse  # noqa: E402
import importlib.util  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import workloads as wl  # noqa: E402  (benchmark code only; imports no kgkit)

SETUP_REPS = 3  # input generations per run; setup_s takes their median
SETUP_REFS = 5  # reference loops before and after the set-up
RECORD_CYCLES = 1  # cycles a --record run covers
END_TO_END_UNITS = {
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "throughput_per_s": "1/ref-s",
    "op_p50_ms": "ref-ms",
    "cli_p50_ms": "ref-ms",
}


class MissingSources(Exception):
    """The checkout has no kgkit sources to benchmark."""


def _import_kgkit() -> None:
    """Import kgkit from the checkout."""
    src = ROOT / "src"
    if not (src / "kgkit" / "__init__.py").is_file():
        raise MissingSources(f"no kgkit sources under {src}")
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))
    import kgkit.cli  # noqa: F401  (pulls in every layer and numpy)


def _load_oracles():
    """tests/oracles.py, imported without writing a bytecode cache next to it."""
    spec = importlib.util.spec_from_file_location("kgkit_bench_oracles", ROOT / "tests" / "oracles.py")
    module = importlib.util.module_from_spec(spec)
    sys.dont_write_bytecode, saved = True, sys.dont_write_bytecode
    try:
        spec.loader.exec_module(module)
    finally:
        sys.dont_write_bytecode = saved
    return module


def oracle_check(name: str, seed: int, rec, scale: float = 1.0) -> None:
    """Engine vs. naive oracle on the workload's reasoning generator at 1/50 scale."""
    from kgkit import io, owl, rdfs

    gen = wl.gen

    if name not in ("ingest", "reasoning"):
        return

    def compare() -> bool:
        oracles = _load_oracles()
        if name == "ingest":
            doc = gen.ingest_doc(seed, 0, size=round(gen.INGEST_SIZES[2] * scale / 50), table_rows=1)
            graph = io.parse_turtle(doc.turtle).graph
            closure, naive = rdfs.saturate_rdfs(graph), oracles.naive_rdfs_closure
        else:
            kb = gen.reasoning_kb(seed, scale=scale / 50)
            graph = io.parse_ntriples("\n".join(kb.lines) + "\n")
            closure, naive = owl.saturate_owl(graph)[0], oracles.naive_owl_closure
        return oracles.closure_triples(closure) == naive(oracles.triples_of(graph))

    same, op = rec.timed("oracle", compare)
    rec.check(op, bool(same), "closure differs from the naive oracle at 1/50 scale")


def _reference_times() -> list[float]:
    """SETUP_REFS reference-loop times, after one untimed warm-up loop."""
    wl.reference_loop()
    return [wl.reference_loop() for _ in range(SETUP_REFS)]


def run(
    name: str,
    seed: int,
    seconds: float,
    trace: bool,
    scale: float = 1.0,
    record: bool = False,
    outdir=None,
    setup_reps: int = SETUP_REPS,
    started: float | None = None,
):
    """One benchmark run; returns (result object, human-readable lines).

    Working files go to `outdir` (default `.bench_run/` in the checkout)
    and are removed at the end; the traced run leaves its spans there.
    `setup_s` is measured in this process: the time from `started`
    (default: this call) until kgkit and numpy are imported, plus the
    median of `setup_reps` generations of the workload's inputs.  The import
    is timed once, because a process imports a module only once.  Input
    generation is pure Python and is reference-scaled like an operation,
    without the sampling's own time.  Start-up and import are scaled by the
    square root of the host speed, because their time moves with the
    reference loop's at about half its rate (bench/METRICS.md).  That speed
    comes from loops run just before and just after the import, not during
    it: loops sampled inside an import read the host's speed poorly.
    """
    started = time.perf_counter() if started is None else started
    import_s = time.perf_counter() - started
    refs = _reference_times()
    t = time.perf_counter()
    _import_kgkit()
    import_s += time.perf_counter() - t
    host_ref = statistics.median(refs + _reference_times())

    outdir = Path(outdir) if outdir is not None else ROOT / ".bench_run"
    workdir = outdir / f"{name}-{os.getpid()}"
    if workdir.exists():
        shutil.rmtree(workdir)
    workdir.mkdir(parents=True)
    try:
        reps = []
        for _ in range(setup_reps):
            with wl.SpeedSampler() as sampler:
                t = time.perf_counter()
                workload = wl.WORKLOADS[name](seed, workdir, scale)
                workload.prepare()
                rep_s = time.perf_counter() - t - sum(sampler.samples)
            reps.append(rep_s * wl.REF_NOMINAL_S / statistics.fmean(sampler.samples or [host_ref]))
        speed = wl.REF_NOMINAL_S / host_ref
        setup_s = import_s * speed**0.5 + statistics.median(reps)

        expected = None
        if seed == wl.DEFAULT_SEED and scale == 1.0 and not record and wl.CHECKSUMS.exists():
            expected = json.loads(wl.CHECKSUMS.read_text(encoding="utf-8")).get(name, {})
        checks = wl.Recorder()
        oracle_check(name, seed, checks, scale)

        lines = [
            f"workload {name}  seed {seed}  seconds {seconds}  trace {int(trace)}",
            f"setup: start and import {import_s:.4f} s wall at host speed {speed:.4f} of nominal, "
            f"inputs {statistics.median(reps):.4f} ref-s (median of {len(reps)})",
        ]
        if trace:
            recorders, metrics, units = _traced(workload, expected, outdir / f"trace-{name}-seed{seed}.jsonl", lines)
        else:
            recorders = [_timed(workload, expected, RECORD_CYCLES if record else None, seconds, lines)]
            metrics = {
                "setup_s": setup_s,
                "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
                **workload.headline(recorders[0]),
            }
            units = END_TO_END_UNITS
        workload.finish()
        rec = recorders[-1]

        ops = checks.ops + [op for r in recorders for op in r.ops]
        failed = [op for op in ops if not op.ok]
        lines.append("inputs: " + "  ".join(f"{key}={_fmt(v)}" for key, v in workload.sizes().items()))
        kinds = sorted({op.kind for op in ops})
        lines.append("operations: " + "  ".join(f"{kd}={sum(op.kind == kd for op in ops)}" for kd in kinds))
        if not trace:
            named = {
                "setup_s": (setup_s, "s"),
                "peak_rss_mb": (metrics["peak_rss_mb"], "MB"),
                "error_rate": (len(failed) / len(ops), "ratio"),
            }
            for ref in (False, True):
                named.update({f"{key}{' (ref)' if ref else ''}": v for key, v in workload.report(rec, ref).items()})
            lines.extend(f"metric {key} = {_fmt(value)} {unit}" for key, (value, unit) in named.items())
            if "task_tail_ms" in named:
                lines.append(f"task_tail_ms is the p{wl.TASK_TAIL_PERCENTILE} of library task latency")
            refs = [op.ref for op in rec.ops]
            lines.append(
                f"host speed: reference loop median {1000 * statistics.median(refs):.3f} ms "
                f"(min {1000 * min(refs):.3f}, max {1000 * max(refs):.3f}; nominal {1000 * wl.REF_NOMINAL_S:g} ms)"
            )
            lines.append("end-to-end: " + "  ".join(f"{key}={_fmt(metrics[key])} {u}" for key, u in units.items()))
        lines.extend(f"FAILED {op.kind}: {op.note}" for op in failed[:20])
        lines.append(f"output checks: {'passed' if not failed else 'FAILED'} ({len(ops)} operations, {len(failed)} failed)")
        if record:
            stored = json.loads(wl.CHECKSUMS.read_text(encoding="utf-8")) if wl.CHECKSUMS.exists() else {}
            stored[name] = dict(sorted(rec.checksums.items()))
            wl.CHECKSUMS.write_text(json.dumps(stored, indent=1, sort_keys=True) + "\n", encoding="utf-8")
            lines.append(f"recorded {len(rec.checksums)} checksums in {wl.CHECKSUMS.relative_to(ROOT)}")
        result = {
            "correct": not failed,
            "attempted": len(ops),
            "failed": len(failed),
            "metrics": {key: {"value": metrics[key], "unit": unit} for key, unit in units.items()},
        }
        return result, lines
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def _timed(workload, expected, cycles: int | None, seconds: float, lines: list[str]):
    """Whole cycles while about `seconds` remain, or exactly `cycles` of them."""
    rec = wl.Recorder(expected=expected)
    workload.begin()
    start, last, k = time.perf_counter(), 0.0, 0
    while k == 0 or (k < cycles if cycles else time.perf_counter() - start + 0.5 * last < seconds):
        c0 = time.perf_counter()
        workload.cycle(k, rec)
        last, k = time.perf_counter() - c0, k + 1
    lines.append(f"timed phase: {k} cycles, {len(rec.ops)} operations, {time.perf_counter() - start:.2f} s wall")
    return rec


def _traced(workload, expected, trace_path: Path, lines: list[str]):
    """The first cycle twice, plain and then traced; returns the per-layer metrics."""
    import tracer as tr

    passes = []
    tracer = tr.Tracer()
    for traced in (False, True):
        rec = wl.Recorder(expected=expected)
        workload.begin()
        if traced:
            rec.tracer = tracer
            tracer.install()
        try:
            workload.cycle(0, rec)
        finally:
            tracer.uninstall()
        passes.append(rec)
    # reference-scaled, so a change of host speed between the passes cancels
    plain, traced_wall = (r.total(True, *{op.kind for op in r.ops}) for r in passes)
    tracer.write(trace_path)
    lines.append(f"traced prefix: 1 cycle, {len(passes[1].ops)} operations, {len(tracer.spans)} spans in {trace_path}")
    return passes, tr.layer_metrics(tracer, traced_wall, plain), tr.LAYER_UNITS


def _fmt(value) -> str:
    return f"{value:.6g}" if isinstance(value, float) else str(value)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=["ingest", "reasoning", "link_prediction"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--record", action="store_true", help="store default-seed checksums")
    args = parser.parse_args(argv)
    if args.record and (args.seed != 0 or args.trace):
        parser.error("--record needs the default seed 0 and --trace 0")
    try:
        result, lines = run(
            args.workload, args.seed, args.seconds, bool(args.trace), record=args.record, started=PROCESS_START
        )
    except MissingSources as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    for line in lines:
        print(line)
    print(json.dumps(result, sort_keys=True))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
