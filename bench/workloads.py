"""The three benchmark workloads and the output checks on every operation.

Each workload is a closed loop with one client, no think time and no extra
threads.  A run is a sequence of cycles (a batch of documents, a reasoning
round, a train-then-evaluate pass); every cycle is a deterministic function
of the seed and its index, so a prefix of the stream is the same in every
run of a seed.  Operations go through kgkit's public functions, looked up
on their modules at call time so the tracer's wrappers see them, and CLI
operations go through `kgkit.cli.main(argv)` in-process with `--out` files.

Checks never call kgkit: they compare outputs with what the generators
know by construction, with invariants (closure contains input, round trip,
consistency after each update, determinism), and for the default seed with
the checksums recorded in `checksums.json`.
"""

from __future__ import annotations

import contextlib
import gc
import hashlib
import io as _stdio
import json
import signal
import statistics
import time
from dataclasses import dataclass, field
from pathlib import Path

import generators as gen

DEFAULT_SEED = 0
CHECKSUMS = Path(__file__).with_name("checksums.json")
TASK_TAIL_PERCENTILE = 75

# The speed of a shared host drifts by 15-50% and flips between states
# within a second, and CPU time drifts with wall time, so it is not
# scheduling noise.  Each operation's speed is therefore sampled while it
# runs: an interval-timer signal handler (in the main thread; no extra
# thread is started) runs a fixed pure-Python reference loop 1 ms into the
# operation and every SAMPLE_PERIOD_S after that.  The operation's reported
# ("ref") time is its wall time scaled by REF_NOMINAL_S over the mean
# reference time: what it would take on a host that runs the loop in
# REF_NOMINAL_S, roughly a shared 2-core x86-64 host at its usual speed.  Raw wall
# times are printed as well.
REF_NOMINAL_S = 0.0015
SAMPLE_PERIOD_S = 0.05
_REF_KEYS = tuple((i * 7919) & 63 for i in range(100))
_REF_TABLE = {k: (k * 2654435761) & 0xFF for k in range(64)}
_REF_ROUNDS = (None,) * 320


def reference_loop() -> float:
    """Seconds for 32,000 dict probes and integer xors.

    The loop allocates nothing (its keys and values are small cached ints)
    and touches a few cache lines, so it reads the host's speed and not the
    state of the heap or the caches an operation leaves behind.
    """
    t0 = time.perf_counter()
    table, keys, acc = _REF_TABLE, _REF_KEYS, 0
    for _ in _REF_ROUNDS:
        for k in keys:
            acc ^= table[k]
    return time.perf_counter() - t0


class SpeedSampler:
    """Reference-loop samples taken on an interval timer while active."""

    def __init__(self):
        self.samples: list[float] = []

    def _tick(self, signum, frame) -> None:
        self.samples.append(reference_loop())

    def __enter__(self) -> "SpeedSampler":
        self.samples = []
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, 0.001, SAMPLE_PERIOD_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)


def _kgkit(module: str):
    import importlib

    return importlib.import_module(f"kgkit.{module}")


def sha256(data: str | bytes) -> str:
    if isinstance(data, str):
        data = data.encode("utf-8")
    return hashlib.sha256(data).hexdigest()


def percentile(values: list[float], pct: int) -> float:
    """Inclusive-interpolated percentile, as statistics.quantiles gives it."""
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[pct - 1]


@dataclass
class Op:
    kind: str
    seconds: float  # wall time
    ref: float = REF_NOMINAL_S  # mean reference-loop time during the operation
    ok: bool = True
    note: str = ""

    @property
    def ref_seconds(self) -> float:
        return self.seconds * REF_NOMINAL_S / self.ref


@dataclass
class Recorder:
    """Operations attempted in one pass, their times and failed checks."""

    ops: list[Op] = field(default_factory=list)
    checksums: dict[str, str] = field(default_factory=dict)  # recorded outputs, default seed
    expected: dict[str, str] | None = None  # checksums to compare with, default seed
    tracer: object = None  # the installed tracer, told which operation is running
    _ref: float | None = None  # reference time of the last sampled operation

    def timed(self, kind: str, fn, *args):
        """Run and time one operation; an exception fails it.

        The heap is collected first, untimed, so the collector's work inside
        an operation is the operation's own and does not depend on what ran
        before it.
        """
        gc.collect()
        if self.tracer is not None:
            self.tracer.op = len(self.ops)
        with SpeedSampler() as sampler:
            t0 = time.perf_counter()
            try:
                result = fn(*args)
                note = ""
            except Exception as exc:  # the benchmark must keep going and count the failure
                result = None
                note = f"{type(exc).__name__}: {exc}"
            seconds = time.perf_counter() - t0
        if sampler.samples:
            self._ref = statistics.fmean(sampler.samples)
        elif self._ref is None:  # an operation too short to sample, before any other
            self._ref = reference_loop()
        op = Op(kind, seconds, self._ref, not note, note)
        self.ops.append(op)
        return result, op

    def cli(self, kind: str, argv: list[str]):
        """`kgkit <argv>` in-process; a non-zero exit fails the operation."""
        out, err = _stdio.StringIO(), _stdio.StringIO()

        def call():
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                return _kgkit("cli").main(argv)

        code, op = self.timed(kind, call)
        if op.ok and code != 0:
            self.fail(op, f"exit {code}: {err.getvalue().strip()[:200]}")
        return out.getvalue(), op

    def output(self, op: Op, read):
        """`read()` of a successful operation's output; a read that raises fails it."""
        if not op.ok:
            return None
        try:
            return read()
        except (OSError, ValueError, LookupError, TypeError) as exc:
            self.fail(op, f"unreadable output: {type(exc).__name__}: {exc}")
            return None

    def fail(self, op: Op, note: str) -> None:
        if op.ok:
            op.ok = False
            op.note = note

    def check(self, op: Op, condition: bool, note: str) -> None:
        if op.ok and not condition:
            self.fail(op, note)

    def golden(self, op: Op, key: str, value: str) -> None:
        """Record a default-seed checksum and compare it with the stored one."""
        self.checksums[key] = value
        if self.expected is not None and key in self.expected:
            self.check(op, self.expected[key] == value, f"checksum mismatch for {key}")

    def times(self, kind: str, ref: bool) -> list[float]:
        return [op.ref_seconds if ref else op.seconds for op in self.ops if op.kind == kind]

    def total(self, ref: bool, *kinds: str) -> float:
        return sum(op.ref_seconds if ref else op.seconds for op in self.ops if op.kind in kinds)


def _write(path: Path, text: str) -> None:
    path.write_text(text, encoding="utf-8")


def _text(path: Path):
    return lambda: path.read_text(encoding="utf-8")


class Workload:
    """Base: inputs are made in `prepare`, operations run in `cycle`."""

    name = ""

    def __init__(self, seed: int, workdir: Path, scale: float = 1.0):
        self.seed = seed
        self.dir = workdir
        self.scale = scale

    def prepare(self) -> None:
        raise NotImplementedError

    def begin(self) -> None:
        """Reset per-pass state so a pass can be repeated from cycle 0."""

    def finish(self) -> None:
        """Untimed, untraced work after the measured passes."""

    def cycle(self, k: int, rec: Recorder) -> None:
        raise NotImplementedError

    def sizes(self) -> dict[str, float]:
        raise NotImplementedError

    # end-to-end metric name -> the metric of this workload it reports
    HEADLINE: dict[str, str] = {}

    def report(self, rec: Recorder, ref: bool) -> dict[str, tuple[float, str]]:
        """The workload's own metrics, from wall or from reference-scaled times."""
        raise NotImplementedError

    def headline(self, rec: Recorder) -> dict[str, float]:
        """throughput_per_s, op_p50_ms and cli_p50_ms, from reference-scaled times."""
        own = self.report(rec, ref=True)
        return {name: own[metric][0] for name, metric in self.HEADLINE.items()}


def _ms(values: list[float], ref: bool) -> tuple[float, str]:
    return 1000 * statistics.median(values), "ref-ms" if ref else "ms"


def _rate(count: float, seconds: float, ref: bool) -> tuple[float, str]:
    return count / seconds, "1/ref-s" if ref else "1/s"


# ---------------------------------------------------------------------------


class Ingest(Workload):
    name = "ingest"
    docs_per_cycle = len(gen.INGEST_SIZES)

    def prepare(self) -> None:
        self.docs: dict[int, gen.IngestDoc] = {}
        for j in range(self.docs_per_cycle):
            self._doc(j)
        _write(self.dir / "table.spec", gen.REIFY_SPEC)
        self.closure_triples = 0
        self.begin()

    def _doc(self, index: int) -> gen.IngestDoc:
        doc = self.docs.get(index)
        if doc is None:
            size = max(20, round(gen.INGEST_SIZES[index % self.docs_per_cycle] * self.scale))
            rows = max(5, round(gen.INGEST_REIFY_ROWS * self.scale))
            doc = gen.ingest_doc(self.seed, index, size=size, table_rows=rows)
            if index < self.docs_per_cycle:
                self.docs[index] = doc
        return doc

    def cycle(self, k: int, rec: Recorder) -> None:
        d = self.dir
        round_trip = gen.seeded_rng("ingest-roundtrip", self.seed, k).randrange(self.docs_per_cycle)
        for j in range(self.docs_per_cycle):
            index = k * self.docs_per_cycle + j
            doc = self._doc(index)
            _write(d / "doc.ttl", doc.turtle)
            _write(d / "table.csv", doc.csv)
            parse_key, infer_key, reify_key = (f"ingest/{index}/{x}" for x in ("parse", "closure", "reify"))

            _, op = rec.cli("parse", ["parse", str(d / "doc.ttl"), "--out", str(d / "doc.nt")])
            parsed = rec.output(op, _text(d / "doc.nt")) or ""
            parsed_lines = parsed.splitlines()
            rec.check(op, set(parsed_lines) == doc.expected_nt, "parse output differs from the generated triples")
            rec.check(op, len(parsed_lines) == len(doc.expected_nt), "parse output has duplicate lines")
            rec.golden(op, parse_key, sha256(parsed))

            _, op = rec.cli("infer", ["infer", str(d / "doc.nt"), "--profile", "rdfs", "--out", str(d / "closure.nt")])
            closure = rec.output(op, _text(d / "closure.nt")) or ""
            closure_lines = closure.splitlines()
            rec.check(op, set(closure_lines) >= set(parsed_lines), "closure misses input triples")
            rec.check(op, len(closure_lines) == len(set(closure_lines)), "closure has duplicate lines")
            rec.golden(op, infer_key, sha256(closure))

            _, op = rec.cli("reify", ["reify", str(d / "table.csv"), "--spec", str(d / "table.spec"), "--out", str(d / "reified.nt")])
            reified = rec.output(op, _text(d / "reified.nt")) or ""
            rec.check(op, set(reified.splitlines()) == doc.expected_reified, "reify output differs from the generated rows")
            rec.golden(op, reify_key, sha256(reified))

            if j == round_trip:
                # parse(serialize(g)) must reproduce the canonical bytes
                _, op = rec.cli("roundtrip", ["parse", str(d / "doc.nt"), "--out", str(d / "again.nt")])
                again = rec.output(op, _text(d / "again.nt")) or ""
                rec.check(op, again == parsed, "parse(serialize(g)) does not round-trip")
            self.input_triples += len(doc.expected_nt) + len(doc.expected_reified)
            self.doc_triples.append(len(doc.expected_nt))
            self.closure_triples = max(self.closure_triples, len(closure_lines))

    def begin(self) -> None:
        self.input_triples = 0
        self.doc_triples: list[int] = []  # input triples of each document, in operation order

    def sizes(self) -> dict[str, float]:
        docs = [self.docs[j] for j in range(self.docs_per_cycle)]
        return {
            "documents_per_cycle": len(docs),
            "input_triples_min": min(len(doc.expected_nt) for doc in docs),
            "input_triples_max": max(len(doc.expected_nt) for doc in docs),
            "input_triples_median": statistics.median(len(doc.expected_nt) for doc in docs),
            "reified_triples_per_doc": statistics.median(len(doc.expected_reified) for doc in docs),
            "largest_closure_triples": self.closure_triples,
            "sameas_share": 0.0,
        }

    def per_document(self, rec: Recorder, kind: str, ref: bool) -> list[float]:
        """Each document's time scaled to the median document size of a cycle.

        A cycle's documents differ in size about fourfold, so the plain median
        would rest on the few documents of the middle size; scaled, every
        document counts.
        """
        median_size = statistics.median(len(self.docs[j].expected_nt) for j in range(self.docs_per_cycle))
        return [t * median_size / n for t, n in zip(rec.times(kind, ref), self.doc_triples)]

    def report(self, rec: Recorder, ref: bool) -> dict[str, tuple[float, str]]:
        return {
            "ingest_triples_per_s": _rate(self.input_triples, rec.total(ref, "parse", "infer", "reify"), ref),
            "parse_p50_ms": _ms(self.per_document(rec, "parse", ref), ref),
            "infer_p50_ms": _ms(self.per_document(rec, "infer", ref), ref),
        }

    HEADLINE = {"throughput_per_s": "ingest_triples_per_s", "op_p50_ms": "infer_p50_ms", "cli_p50_ms": "parse_p50_ms"}


# ---------------------------------------------------------------------------


def _term_text(term) -> str:
    """N-Triples text of an IRI result term, without calling kgkit's writer."""
    value = getattr(term, "value", None)
    if type(term).__name__ != "IRI" or not isinstance(value, str):
        raise TypeError(f"unexpected result term {term!r}")
    return f"<{value}>"


def _rows_text(rows: list[dict], variables: tuple[str, ...]) -> list[dict[str, str]]:
    return [{v: _term_text(b[v]) for v in variables} for b in rows]


class Reasoning(Workload):
    """A cycle is a session: load the base KB, then ROUNDS_PER_CYCLE rounds.

    Starting every session from the base KB keeps the KB sizes a run
    measures the same however many sessions fit in it; each round's update
    batch is still distinct (it is drawn from the round's global index).
    """

    name = "reasoning"
    ROUNDS_PER_CYCLE = 2

    def prepare(self) -> None:
        self.kb_data = gen.reasoning_kb(self.seed, self.scale)
        self.base_text = "\n".join(self.kb_data.lines) + "\n"
        _write(self.dir / "competency.txt", gen.COMPETENCY)
        self.closure_triples = 0

    def _load(self):
        self.kb = _kgkit("io").parse_ntriples(self.base_text)

    def _update(self, text: str) -> int:
        batch = _kgkit("io").parse_ntriples(text)
        return sum(self.kb.insert(t) for t in batch.triples())

    def cycle(self, k: int, rec: Recorder) -> None:
        self.kb = None
        self.snapshot = list(self.kb_data.lines)
        _, op = rec.timed("load", self._load)
        if op.ok:
            for r in range(k * self.ROUNDS_PER_CYCLE, (k + 1) * self.ROUNDS_PER_CYCLE):
                self._round(r, rec)

    def _round(self, r: int, rec: Recorder) -> None:
        owl, query_mod, terms = _kgkit("owl"), _kgkit("query"), _kgkit("terms")
        data, kb_ns = self.kb_data, gen.KB
        batch = gen.reasoning_update(self.seed, data, r, len(data.lines))
        added, op = rec.timed("update", self._update, "\n".join(batch) + "\n")
        rec.check(op, added == len(batch), f"update inserted {added} of {len(batch)} new triples")
        self.snapshot.extend(batch)

        plan = gen.reasoning_tasks(self.seed, data, r)
        IRI = terms.IRI
        person, cls = IRI(kb_ns + plan.person), lambda local: IRI(kb_ns + local)
        verdict = owl.InstanceCheck
        answers: list[str] = []

        def task(fn, *args, expect=None, describe=repr):
            result, op = rec.timed("task", fn, *args)
            text = rec.output(op, lambda: describe(result))
            if op.ok:
                answers.append(f"{fn.__name__}: {text}")
                if expect is not None:
                    rec.check(op, result == expect, f"{fn.__name__}{args[1:]} gave {text}")
            return result, op

        consistent, op = task(owl.is_consistent, self.kb, describe=lambda res: str(res[0]))
        rec.check(op, bool(consistent and consistent[0]), "KB became inconsistent after an update")
        task(owl.check_instance, self.kb, person, cls("Person"), expect=verdict.ENTAILED)
        task(owl.check_instance, self.kb, person, cls("Student"), expect=verdict.NOT_ENTAILED)
        task(owl.check_instance, self.kb, person, cls("Organisation"), expect=verdict.INCONSISTENT_IF_ASSERTED)
        names = lambda res: " ".join(sorted(_term_text(t) for t in res))  # noqa: E731
        task(owl.realize, self.kb, person, expect={cls(f"Role{plan.role}")}, describe=names)
        task(
            owl.retrieve_instances,
            self.kb,
            cls(f"City{plan.city}"),
            expect={IRI(m) for m in plan.expected_city_members},
            describe=names,
        )
        task(owl.subsumes, self.kb, cls("Agent"), cls(f"Role{plan.role_sub}"), expect=True)
        task(owl.is_satisfiable, self.kb, cls(f"Course{plan.course}"), expect=True)
        q, _ = query_mod.parse_query(plan.query_text)
        library_rows = {}
        for regime in ("none", "rdfs", "owl"):
            rows, op = task(query_mod.query, self.kb, q, regime, describe=lambda res: str(len(res)))
            rows = rec.output(op, lambda: _rows_text(rows, q.projection))
            if op.ok:
                library_rows[regime] = rows
                answers.append(sha256(json.dumps(rows, sort_keys=True)))
                # RDFS derives no Role memberships and no partOf edges, so the
                # closed-world query must answer exactly as on the raw graph
                rec.check(op, regime != "rdfs" or library_rows[regime] == library_rows.get("none"), "rdfs rows differ from raw rows")

        _write(self.dir / "kb.nt", "\n".join(self.snapshot) + "\n")
        _write(self.dir / "query.txt", plan.query_text)
        out, op = rec.cli("check", ["check", str(self.dir / "kb.nt"), "--competency", str(self.dir / "competency.txt"), "--json"])
        verdict_json = rec.output(op, lambda: json.loads(out))
        passed = rec.output(op, lambda: [(c["name"], c["pass"]) for c in verdict_json["competency"]])
        if op.ok:
            rec.check(op, verdict_json.get("consistent") is True, "kgkit check reports an inconsistent KB")
            rec.check(op, passed == [(n, True) for n in gen.COMPETENCY_NAMES], f"competency verdicts {passed}")
            rec.golden(op, f"reasoning/{r}/check", sha256(out))
        out_path = self.dir / "rows.json"
        _, op = rec.cli("query", ["query", str(self.dir / "kb.nt"), str(self.dir / "query.txt"), "--regime", "owl", "--out", str(out_path)])
        cli_rows = rec.output(op, lambda: json.loads(_text(out_path)()))
        if op.ok:
            rec.check(op, cli_rows == library_rows.get("owl"), "kgkit query rows differ from the library's owl rows")
            rec.golden(op, f"reasoning/{r}/query", sha256(json.dumps(cli_rows, sort_keys=True)))
        tasks_op = next(op for op in reversed(rec.ops) if op.kind == "task")
        rec.golden(tasks_op, f"reasoning/{r}/tasks", sha256("\n".join(answers)))

    def finish(self) -> None:
        """Closure size of the final KB, for the printed input sizes; untimed."""
        if self.kb is not None:
            closure, _ = _kgkit("owl").saturate_owl(self.kb)
            self.closure_triples = len(closure.graph)

    def sizes(self) -> dict[str, float]:
        data = self.kb_data
        return {
            "input_triples": len(data.lines),
            "individuals": data.individuals,
            "sameas_individual_share": data.sameas_individuals / data.individuals,
            "update_share_per_round": max(5, len(data.lines) // 100) / len(data.lines),
            "final_closure_triples": self.closure_triples,
        }

    def report(self, rec: Recorder, ref: bool) -> dict[str, tuple[float, str]]:
        tasks = rec.times("task", ref)
        tail = percentile(tasks, TASK_TAIL_PERCENTILE)
        return {
            "task_p50_ms": _ms(tasks, ref),
            "task_tail_ms": _ms([tail], ref),
            "session_tasks_per_s": _rate(len(tasks), rec.total(ref, "load", "update", "task"), ref),
            "check_p50_ms": _ms(rec.times("check", ref), ref),
            "query_p50_ms": _ms(rec.times("query", ref), ref),
        }

    HEADLINE = {"throughput_per_s": "session_tasks_per_s", "op_p50_ms": "task_p50_ms", "cli_p50_ms": "check_p50_ms"}


# ---------------------------------------------------------------------------


def _eval_in_range(m: dict) -> bool:
    ordered = 0.0 <= m["hits_at_1"] <= m["hits_at_3"] <= m["hits_at_10"] <= 1.0
    return ordered and 0.0 < m["mrr"] <= 1.0 and m["mean_rank"] >= 1.0


class LinkPrediction(Workload):
    name = "link_prediction"
    EPOCHS = 1
    EVALS_PER_CYCLE = 3

    def prepare(self) -> None:
        self.data = gen.link_prediction(self.seed, self.scale)
        _write(self.dir / "train.nt", self.data.train_nt)
        _write(self.dir / "test.nt", self.data.test_nt)
        self.model_bytes: str | None = None
        self.eval_json: str | None = None

    def cycle(self, k: int, rec: Recorder) -> None:
        d = self.dir
        model = d / "model.tsv"
        _, op = rec.cli(
            "train",
            ["embed", "train", str(d / "train.nt"), "--model", str(model), "--epochs", str(self.EPOCHS), "--seed", str(self.seed)],
        )
        text = rec.output(op, _text(model))
        if op.ok:
            rows = text.splitlines()
            rec.check(op, len(rows) == 1 + self.data.entities + self.data.relations, "model has the wrong number of rows")
            rec.check(op, self.model_bytes in (None, text), "training is not deterministic for a fixed seed")
            self.model_bytes = text
            rec.golden(op, "link_prediction/model", sha256(text))
        for _ in range(self.EVALS_PER_CYCLE):
            out, op = rec.cli("eval", ["embed", "eval", str(d / "train.nt"), "--model", str(model), "--test", str(d / "test.nt")])
            in_range = rec.output(op, lambda: _eval_in_range(json.loads(out)))
            if not op.ok:
                continue
            rec.check(op, in_range, f"eval metrics out of range: {out.strip()}")
            rec.check(op, self.eval_json in (None, out), "evaluation is not deterministic")
            self.eval_json = out
            rec.golden(op, "link_prediction/eval", out.strip())

    def sizes(self) -> dict[str, float]:
        return {
            "entities": self.data.entities,
            "relations": self.data.relations,
            "train_triples": self.data.train_triples,
            "test_triples": self.data.test_triples,
            "epochs_per_train": self.EPOCHS,
        }

    def report(self, rec: Recorder, ref: bool) -> dict[str, tuple[float, str]]:
        train, evals = rec.times("train", ref), rec.times("eval", ref)
        return {
            "train_triples_per_s": _rate(self.data.train_triples * self.EPOCHS * len(train), sum(train), ref),
            "eval_triples_per_s": _rate(self.data.test_triples * len(evals), sum(evals), ref),
            "train_p50_ms": _ms(train, ref),
            "eval_p50_ms": _ms(evals, ref),
        }

    HEADLINE = {"throughput_per_s": "train_triples_per_s", "op_p50_ms": "eval_p50_ms", "cli_p50_ms": "train_p50_ms"}


WORKLOADS = {w.name: w for w in (Ingest, Reasoning, LinkPrediction)}
