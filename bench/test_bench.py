"""Tests of the benchmark itself: generators, tracer, output checks, smoke runs.

    python3 -m pytest -q bench/test_bench.py

The smoke runs use tiny inputs (`scale`) and zero seconds, so each
workload runs exactly one cycle.
"""

import importlib
import sys
import time
import types
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(BENCH.parent / "src"))

import generators as gen  # noqa: E402
import run as bench_run  # noqa: E402
import tracer as tr  # noqa: E402

TINY = 0.05


def _tiny(name, trace=False, seed=3, tmp_path=None):
    result, lines = bench_run.run(name, seed, 0, trace, scale=TINY, outdir=tmp_path, setup_reps=1)
    return result, lines


# -- generators ------------------------------------------------------------


def test_generators_are_deterministic_per_seed():
    same = [gen.ingest_doc(5, 2).turtle, gen.ingest_doc(5, 2).turtle]
    assert same[0] == same[1]
    assert gen.ingest_doc(6, 2).turtle != same[0]
    assert gen.ingest_table(5, 2) == gen.ingest_table(5, 2)
    assert gen.ingest_table(5, 2)[0] != gen.ingest_table(6, 2)[0]
    assert gen.reasoning_kb(5).lines == gen.reasoning_kb(5).lines
    assert gen.reasoning_kb(5).lines != gen.reasoning_kb(6).lines
    kb = gen.reasoning_kb(5)
    assert gen.reasoning_update(5, kb, 1, 3000) == gen.reasoning_update(5, kb, 1, 3000)
    assert gen.reasoning_update(5, kb, 1, 3000) != gen.reasoning_update(6, kb, 1, 3000)
    assert gen.link_prediction(5).train_nt == gen.link_prediction(5).train_nt
    assert gen.link_prediction(5).train_nt != gen.link_prediction(6).train_nt


def test_generated_sizes_match_the_workload_design():
    sizes = [len(gen.ingest_doc(0, j).expected_nt) for j in range(len(gen.INGEST_SIZES))]
    assert 1200 < min(sizes) and max(sizes) < 7000 and max(sizes) / min(sizes) > 3
    kb = gen.reasoning_kb(0)
    assert 2500 < len(kb.lines) < 4000 and kb.individuals == 1000
    lp = gen.link_prediction(0)
    assert (lp.entities, lp.relations, lp.train_triples, lp.test_triples) == (500, 10, 3000, 200)
    train = set(lp.train_nt.splitlines())
    assert not train & set(lp.test_nt.splitlines())


def test_generators_do_not_import_kgkit():
    source = (BENCH / "generators.py").read_text(encoding="utf-8")
    assert "import kgkit" not in source and "from kgkit" not in source


# -- tracer ----------------------------------------------------------------


def test_install_and_uninstall_restore_every_wrapped_attribute():
    owners = [(tr._resolve(target), attr) for _, target, attr, _ in tr.WRAPS]
    before = [vars(owner)[attr] for owner, attr in owners]
    tracer = tr.Tracer()
    tracer.install()
    try:
        assert all(vars(owner)[attr] is not orig for (owner, attr), orig in zip(owners, before))
        with pytest.raises(RuntimeError):
            tracer.install()
    finally:
        tracer.uninstall()
    assert all(vars(owner)[attr] is orig for (owner, attr), orig in zip(owners, before))


def test_wrap_list_names_public_attributes_only():
    for _, target, attr, _ in tr.WRAPS:
        assert not attr.startswith("_")
        assert callable(getattr(tr._resolve(target), attr))


@pytest.fixture
def toy_module():
    mod = types.ModuleType("bench_toy")

    def leaf():
        time.sleep(0.002)

    def outer(depth=0):
        time.sleep(0.002)
        mod.leaf()
        if depth == 0:
            mod.outer(1)  # nested call of the same name

    mod.leaf, mod.outer = leaf, outer
    sys.modules["bench_toy"] = mod
    yield mod
    del sys.modules["bench_toy"]


def test_self_time_and_busy_arithmetic(toy_module):
    tracer = tr.Tracer(wraps=(("outer", "bench_toy", "outer", ()), ("leaf", "bench_toy", "leaf", ())))
    tracer.install()
    try:
        toy_module.outer()
    finally:
        tracer.uninstall()
    assert tracer.calls == {"outer": 2, "leaf": 2}
    spans = tracer.spans
    top = next(s for s in spans if s[3] == -1)
    top_duration = top[2] - top[1]
    own, busy = tracer.self_time(), tracer.busy()
    # self times partition the outermost span exactly
    assert own["outer"] + own["leaf"] == pytest.approx(top_duration, rel=1e-9)
    # a nested span of the same name is not counted twice as busy time
    assert busy["outer"] == pytest.approx(top_duration, rel=1e-9)
    assert 0 < own["outer"] < top_duration
    assert [s[3] for s in spans] == [-1, 0, 0, 2]


def test_overhead_share_and_every_layer_metric_reported():
    metrics = tr.layer_metrics(tr.Tracer(), traced_wall=1.25, untraced_wall=1.0)
    assert set(metrics) == set(tr.LAYER_UNITS)
    assert metrics["trace.overhead_share"] == pytest.approx(0.25)
    assert all(value == 0 for key, value in metrics.items() if key != "trace.overhead_share")


# -- smoke runs and output checks ---------------------------------------------


@pytest.mark.parametrize("name", ["ingest", "reasoning", "link_prediction"])
def test_tiny_untraced_run_passes_its_checks(name, tmp_path):
    result, lines = _tiny(name, tmp_path=tmp_path)
    assert result["correct"], lines
    assert result["failed"] == 0 and result["attempted"] > 0
    assert set(result["metrics"]) == set(bench_run.END_TO_END_UNITS)
    assert all(m["value"] > 0 for m in result["metrics"].values())
    assert any(line.startswith("metric error_rate = 0 ") for line in lines)


def test_traced_counts_repeat_and_stay_in_their_workloads(tmp_path):
    counts = {}
    for name in ("ingest", "reasoning", "link_prediction"):
        first, _ = _tiny(name, trace=True, tmp_path=tmp_path)
        second, _ = _tiny(name, trace=True, tmp_path=tmp_path)
        assert first["correct"] and second["correct"]
        assert set(first["metrics"]) == set(tr.LAYER_UNITS)
        counted = {k for k, unit in tr.LAYER_UNITS.items() if unit == "count"}
        assert {k: first["metrics"][k]["value"] for k in counted} == {k: second["metrics"][k]["value"] for k in counted}
        counts[name] = {k: v["value"] for k, v in first["metrics"].items()}
        assert (tmp_path / f"trace-{name}-seed3.jsonl").stat().st_size > 0
    assert counts["ingest"]["owl.saturate.calls"] == 0
    assert counts["ingest"]["rdfs.saturate.calls"] > 0
    assert counts["reasoning"]["owl.saturate.calls"] > 0
    for name in ("ingest", "reasoning"):
        assert all(v == 0 for k, v in counts[name].items() if k.startswith("embeddings."))
    assert counts["link_prediction"]["embeddings.negative_sample.calls"] > 0


def test_corrupted_answers_are_counted_as_failed(tmp_path, monkeypatch):
    cli = importlib.import_module("kgkit.cli")
    owl = importlib.import_module("kgkit.owl")
    serialize = cli.serialize_ntriples
    monkeypatch.setattr(cli, "serialize_ntriples", lambda graph: "".join(serialize(graph).splitlines(True)[1:]))
    result, lines = _tiny("ingest", tmp_path=tmp_path)
    assert not result["correct"] and result["failed"] > 0
    assert any(line.startswith("FAILED parse") for line in lines)

    def realize(graph, individual):
        return set()

    monkeypatch.setattr(owl, "realize", realize)
    result, lines = _tiny("reasoning", tmp_path=tmp_path)
    assert not result["correct"] and result["failed"] >= 1
    assert any("realize" in line for line in lines if line.startswith("FAILED"))

    embeddings = importlib.import_module("kgkit.embeddings")
    monkeypatch.setattr(embeddings, "save_model", lambda model, path: Path(path).write_text("d=2 norm=L1\n"))
    result, lines = _tiny("link_prediction", tmp_path=tmp_path)
    assert not result["correct"] and result["failed"] == result["attempted"]


def _churn(objects: int) -> None:
    """CPU- and allocation-heavy busy work: builds and drops small containers."""
    keep = []
    for i in range(objects):
        keep.append({"a": (i, str(i)), "b": [i]})
        if len(keep) > 20_000:
            keep = keep[10_000:]


def injected_slowdown(tmp_path, pairs: int = 16, objects: int = 60_000) -> tuple[float, float]:
    """Median slowdown of `kgkit parse` with `_churn` injected into its parse
    call, as (wall-time ratio, reference-scaled ratio).  Plain and slowed
    parses alternate, and each ratio is taken within a pair, so a change of
    host speed between pairs cancels."""
    import statistics

    import workloads as wl

    cli = importlib.import_module("kgkit.cli")
    parse = cli.parse_turtle

    def slowed(*args, **kwargs):
        result = parse(*args, **kwargs)
        _churn(objects)
        return result

    (tmp_path / "doc.ttl").write_text(gen.ingest_doc(0, 2).turtle, encoding="utf-8")
    argv = ["parse", str(tmp_path / "doc.ttl"), "--out", str(tmp_path / "doc.nt")]
    rec, raw, ref = wl.Recorder(), [], []
    try:
        for _ in range(pairs):
            cli.parse_turtle = parse
            _, plain = rec.cli("plain", argv)
            cli.parse_turtle = slowed
            _, slow = rec.cli("slowed", argv)
            assert plain.ok and slow.ok
            raw.append(slow.seconds / plain.seconds)
            ref.append(slow.ref_seconds / plain.ref_seconds)
    finally:
        cli.parse_turtle = parse
    return statistics.median(raw), statistics.median(ref)


def test_reference_scaling_keeps_an_injected_slowdown(tmp_path):
    # the reference loop runs inside the operation and shares its heap; an
    # operation that churns more memory must not slow the loop and so hide
    # part of its own regression
    raw, ref = injected_slowdown(tmp_path)
    assert raw > 1.2
    assert abs((ref - 1) / (raw - 1) - 1) < 0.35


def test_checksum_mismatch_fails_the_operation():
    import workloads as wl

    rec = wl.Recorder(expected={"k": "recorded"})
    _, op = rec.timed("op", lambda: None)
    rec.golden(op, "k", "recorded")
    rec.golden(op, "unrecorded key", "anything")
    assert op.ok
    rec.golden(op, "k", "changed")
    assert not op.ok and "checksum mismatch" in op.note


def test_missing_sources_exit_nonzero_without_a_result(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(bench_run, "ROOT", tmp_path)
    assert bench_run.main(["--workload", "ingest", "--seed", "1", "--seconds", "1"]) == 2
    assert capsys.readouterr().out == ""


def test_benchmark_json_matches_the_reported_metrics():
    import json

    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == bench_run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == tr.LAYER_UNITS
    assert [w["name"] for w in spec["workloads"]] == ["ingest", "reasoning", "link_prediction"]
    setup = next(m for m in spec["end_to_end"] if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in spec["end_to_end"])
