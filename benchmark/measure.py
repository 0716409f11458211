"""Measured and traced replays of one workload, with oracle checks."""

from __future__ import annotations

import gc
import json
import pickle
import random
import resource
import statistics
import sys
import time
import traceback
from collections import Counter
from pathlib import Path

from dyntr.graph_core import InsertCentered
from dyntr.oracle import (
    brute_redundant,
    brute_tr_dag,
    replay,
    scc_partition,
    validity_triple,
)
from layer_trace import Tracer, layer_metrics
from workloads import build_length

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
TRACE_DIR = ROOT / ".bench_out"

SETUP_REPS = 3  # set-ups per run; setup_s is their median
QUERY_BATCH = 4  # is_redundant calls after every update, timed as one sample
TRACE_CHUNKS = 10  # the traced run alternates plain and traced this often

# The host reference: per-root reachability over a fixed random digraph in
# plain Python, the kind of loop the engines run, using no dyntr code.  Its
# time tracks how fast the host runs such code at the moment; every timed
# figure of a plain run is scaled to a host that runs it in REF_NS.
_ref_rng = random.Random(20_240_501)
REF_N = 1000
REF_ADJ = [sorted({_ref_rng.randrange(REF_N) for _ in range(5)}) for _ in range(REF_N)]
REF_NS = 5e6
REF_PER_ROUND = 20  # references spread over every round
REF_AROUND_SETUP = 4  # references before and after every set-up


def host_reference() -> int:
    """Nanoseconds the host takes for the reference job right now."""
    t0 = time.perf_counter_ns()
    for root in range(0, REF_N, 64):
        seen = bytearray(REF_N)
        seen[root] = 1
        stack = [root]
        while stack:
            for w in REF_ADJ[stack.pop()]:
                if not seen[w]:
                    seen[w] = 1
                    stack.append(w)
    return time.perf_counter_ns() - t0


def between_references(fn):
    """Run ``fn`` between host references; return (result, scale).

    ``scale`` is REF_NS over the mean reference: the factor that turns a
    time measured during ``fn`` into one on the reference host.
    """
    ref_ns = sum(host_reference() for _ in range(REF_AROUND_SETUP))
    result = fn()
    ref_ns += sum(host_reference() for _ in range(REF_AROUND_SETUP))
    return result, REF_NS * 2 * REF_AROUND_SETUP / ref_ns


class Churn:
    """Closed-loop replay of one workload's churn phase.

    One caller: each update, query batch or tr_edges call is issued only
    after the previous one returned.  After every update a batch of
    ``QUERY_BATCH`` is_redundant calls on random live edges follows, and
    after every ``tr_every`` updates one tr_edges call.  Only those calls
    are timed.  Picking query edges and the oracle checks run outside the
    timed calls.  With ``checked`` the query batch before every tr_edges
    call is checked, and the tr_edges result every ``check_every``
    updates; without, only the size of every tr_edges result is kept, so
    that replays of the same updates can be compared.  With
    ``reference_every`` a host reference runs, untimed, after every that
    many updates.
    """

    def __init__(self, wl, seed: int, updates: list, start: int, live,
                 checked: bool = True, reference_every: int = 0) -> None:
        self.wl = wl
        self.updates = updates
        self.pos = start
        self.rng = random.Random(seed + 1_000_003)
        self.check_rng = random.Random(seed + 2_000_003)
        self.checked = checked
        self.live = sorted(live)
        self.where = {e: i for i, e in enumerate(self.live)}
        self.samples: dict[str, list[int]] = {"ins": [], "del": [], "red": [], "tr": []}
        self.done = 0
        self.phase_ns = 0
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []
        self.checkpoints: list[tuple[int, int]] = []
        self.tr_sizes: list[int] = []
        self.reference_every = reference_every
        self.ref_ns = 0
        self.refs = 0

    # ---- the timed loop ----

    def run(self, eng, count: int, tracer=None) -> None:
        """Run until ``count`` updates are done."""
        try:
            self._loop(eng, count, tracer)
        except Exception as exc:  # an engine call raised: count it, stop
            traceback.print_exc(file=sys.stderr)
            self.failed += 1
            self.errors.append(f"after {self.done} updates: {exc!r}")

    def _loop(self, eng, count, tracer) -> None:
        ins, dele, tr = eng.insert_centered, eng.delete_edges, eng.tr_edges
        is_red = eng.is_redundant

        def red(edges):
            return [is_red(x, y) for x, y in edges]

        if tracer is not None:
            ins = tracer.span("op.ins", ins)
            dele = tracer.span("op.del", dele)
            red = tracer.span("op.red", red)
            tr = tracer.span("op.tr", tr)
        clock = time.perf_counter_ns
        samples = self.samples
        tr_every, check_every = self.wl.tr_every, self.wl.check_every
        reference_every = self.reference_every
        while self.done < count:
            upd = self.updates[self.pos]
            self.pos += 1
            self.attempted += 1
            if isinstance(upd, InsertCentered):
                kind = "ins"
                t0 = clock()
                ins(upd.center, upd.edges)
                dt = clock() - t0
                for e in upd.edges:
                    self._add(e)
            else:
                kind = "del"
                t0 = clock()
                dele(upd.edges)
                dt = clock() - t0
                for e in upd.edges:
                    self._remove(e)
            samples[kind].append(dt)
            self.phase_ns += dt
            self.done += 1

            queries = self._pick_queries(self.rng)
            self.attempted += len(queries)
            t0 = clock()
            answers = red(queries)
            dt = clock() - t0
            samples["red"].append(dt)
            self.phase_ns += dt

            if self.done % tr_every == 0:
                self.attempted += 1
                t0 = clock()
                result = tr()
                dt = clock() - t0
                samples["tr"].append(dt)
                self.phase_ns += dt
                self.tr_sizes.append(len(result))
                if self.checked:
                    self.check_queries(queries, answers)
                    if self.done % check_every == 0:
                        self.check_tr(result)
            if reference_every and self.done % reference_every == 0:
                self.ref_ns += host_reference()
                self.refs += 1

    @property
    def scale(self) -> float:
        """The host reference factor of the replay: REF_NS / mean reference."""
        return REF_NS * self.refs / self.ref_ns if self.refs else 1.0

    # ---- live-edge bookkeeping, outside the timed calls ----

    def _add(self, e) -> None:
        self.where[e] = len(self.live)
        self.live.append(e)

    def _remove(self, e) -> None:
        i = self.where.pop(e)
        last = self.live.pop()
        if last != e:
            self.live[i] = last
            self.where[last] = i

    def _pick_queries(self, rng: random.Random) -> list:
        live = self.live
        return [live[rng.randrange(len(live))] for _ in range(QUERY_BATCH)]

    # ---- oracle checks ----

    def check_tr(self, tr_result) -> None:
        """Compare one tr_edges result with the oracle; record its size.

        In dag mode the reduction is unique and must equal the brute-force
        one; in general mode it must pass the validity triple (subgraph,
        same closure, inclusion-minimal).
        """
        n, edges = self.wl.n, self.live
        if self.wl.mode == "dag":
            reason = None if set(tr_result) == brute_tr_dag(n, edges) else "differs from brute_tr_dag"
        else:
            reason = validity_triple(n, edges, tr_result)
        if reason is not None:
            self.failed += 1
            self.errors.append(f"tr_edges after {self.done} updates: {reason}")
        self.checkpoints.append((self.done, len(tr_result)))

    def check_queries(self, queries, answers) -> None:
        """Compare one batch of is_redundant answers with brute force."""
        n, edges = self.wl.n, self.live
        for (x, y), answer in zip(queries, answers):
            if brute_redundant(n, edges, x, y) != answer:
                self.failed += 1
                self.errors.append(f"is_redundant({x}, {y}) after {self.done} updates")

    def check_now(self, eng) -> None:
        """Untimed tr_edges and query batch on the current state, checked.

        Its query edges come from a random stream of their own, so a
        checked replay issues the same timed calls as an unchecked one.
        """
        try:
            queries = self._pick_queries(self.check_rng)
            self.attempted += 1 + len(queries)
            self.check_queries(queries, [eng.is_redundant(x, y) for x, y in queries])
            self.check_tr(eng.tr_edges())
        except Exception as exc:  # an engine call raised: count it
            traceback.print_exc(file=sys.stderr)
            self.failed += 1
            self.errors.append(f"check after {self.done} updates: {exc!r}")


def set_up(wl, seed: int, build: list):
    """Engine constructor plus the build phase; returns (engine, seconds)."""
    t0 = time.perf_counter()
    eng = wl.make_engine(seed)
    for upd in build:
        eng.insert_centered(upd.center, upd.edges)
    return eng, time.perf_counter() - t0


def shape(n: int, live) -> dict:
    comp, ncomp = scc_partition(n, live)
    return {
        "live_edges": len(live),
        "scc_count": ncomp,
        "largest_scc": max(Counter(comp[1:]).values()),
    }


def src_lines() -> int:
    return sum(len(p.read_text().splitlines()) for p in (SRC / "dyntr").glob("*.py"))


def quantile(xs: list[int], q: int) -> float:
    """The q-th percentile (q a multiple of 10) of the samples, 0 if none.

    A run only lacks samples when an engine call raised, which already
    makes the result incorrect.
    """
    if not xs:
        return 0.0
    if len(xs) == 1:
        return float(xs[0])
    if q == 50:
        return float(statistics.median(xs))
    return statistics.quantiles(xs, n=10, method="inclusive")[q // 10 - 1]


def end_to_end(rounds: list[Churn], setup_times: list[float], scaled: bool = True) -> dict:
    """Metrics over the rounds' times, call by call.

    The rounds make the same calls in the same order, so the i-th sample
    of a kind is the same call in every round.  Its time is the median
    over the rounds of its time times the round's host reference factor
    (or of its time as measured, without ``scaled``); percentiles and
    throughput are computed over those times.
    """
    s = {
        kind: [
            statistics.median(t * (c.scale if scaled else 1.0) for t, c in zip(times, rounds))
            for times in zip(*(c.samples[kind] for c in rounds))
        ]
        for kind in rounds[0].samples
    }
    done = len(s["ins"]) + len(s["del"])
    ns = sum(sum(xs) for xs in s.values())
    per_query = [t / QUERY_BATCH for t in s["red"]]
    rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return {
        "setup_s": (statistics.median(setup_times), "s"),
        "upd_per_s": (done / (ns / 1e9) if ns else 0.0, "1/s"),
        "ins_p50_ms": (quantile(s["ins"], 50) / 1e6, "ms"),
        "ins_p90_ms": (quantile(s["ins"], 90) / 1e6, "ms"),
        "del_p50_ms": (quantile(s["del"], 50) / 1e6, "ms"),
        "del_p90_ms": (quantile(s["del"], 90) / 1e6, "ms"),
        "red_p50_us": (quantile(per_query, 50) / 1e3, "us"),
        "red_p90_us": (quantile(per_query, 90) / 1e3, "us"),
        "tr_p50_ms": (quantile(s["tr"], 50) / 1e6, "ms"),
        "peak_rss_mb": (rss_kb / 1024, "MB"),
    }


def emit(info: dict, metrics: dict, attempted: int, failed: int, errors: list[str]) -> None:
    for line in errors[:20]:
        print(f"error {line}")
    print("info " + json.dumps(info))
    for name, (value, unit) in metrics.items():
        print(f"metric {name} {value:.6g} {unit}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))


def run_workload(wl, seed: int, seconds: float, trace: bool) -> None:
    # the build phase takes at most 5n batches, about 5n/2 on average
    updates = wl.generate(wl.n, 5 * wl.n + wl.round_updates, seed)
    start = build_length(wl.n, updates)
    del updates[start + wl.round_updates :]
    built = replay(wl.n, updates[:start])
    info = {
        "workload": wl.name,
        "engine": wl.engine.__name__,
        "n": wl.n,
        "mode": wl.mode,
        "seed": seed,
        "build_updates": start,
        "shape": shape(wl.n, built),
        "query_batch": QUERY_BATCH,
        "tr_every": wl.tr_every,
        "round_updates": wl.round_updates,
        "src_lines": src_lines(),
    }
    if trace:
        measure_traced(wl, seed, updates, start, built, info)
    else:
        measure_plain(wl, seed, seconds, updates, start, built, info)


def measure_plain(wl, seed, seconds, updates, start, built, info) -> None:
    """End-to-end metrics: set up three times, then replay churn rounds.

    Every round restores the set-up engine from a pickle and replays the
    same ``round_updates`` updates and queries, so the rounds do identical
    work and differ only in how fast the host ran them: on a shared host
    the same work runs up to 2x slower for seconds to minutes at a time.
    Each set-up runs between host references, and each round runs them
    between its calls; its times are scaled by their factor.  Rounds repeat until their timed
    calls add up to ``seconds``; every call's time is its median over the
    rounds.  The first round is checked against the oracle; every later
    one must reach the same tr_edges sizes.
    """
    setup_raw, setup_times = [], []
    for _ in range(SETUP_REPS):
        eng = None  # free the previous engine before the next set-up
        gc.collect()
        (eng, secs), scale = between_references(lambda: set_up(wl, seed, updates[:start]))
        setup_raw.append(secs)
        setup_times.append(secs * scale)
    snapshot = pickle.dumps(eng, protocol=pickle.HIGHEST_PROTOCOL)
    rounds: list[Churn] = []
    attempted = failed = 0
    errors: list[str] = []
    while not rounds or sum(c.phase_ns for c in rounds) < seconds * 1e9:
        first = not rounds
        eng = None
        eng = pickle.loads(snapshot)
        churn = Churn(wl, seed, updates, start, built, checked=first,
                      reference_every=max(1, wl.round_updates // REF_PER_ROUND))
        if first:
            churn.check_now(eng)
        gc.collect()
        churn.run(eng, wl.round_updates)
        if first:
            churn.check_now(eng)
        elif churn.tr_sizes != rounds[0].tr_sizes:
            churn.failed += 1
            churn.errors.append(f"round {len(rounds)} reached other tr_edges sizes than round 0")
        rounds.append(churn)
        attempted += churn.attempted
        failed += churn.failed
        errors += churn.errors
        if failed:
            break
    info["setup_raw_s"] = [round(t, 4) for t in setup_raw]
    info["round_raw_s"] = [round(c.phase_ns / 1e9, 3) for c in rounds]
    info["round_scale"] = [round(c.scale, 3) for c in rounds]
    info["as_measured"] = {
        name: round(value, 6) for name, (value, _) in end_to_end(rounds, setup_raw, scaled=False).items()
    }
    info["rounds"] = len(rounds)
    info["samples"] = {k: len(v) for k, v in rounds[0].samples.items()}
    info["checkpoints"] = rounds[0].checkpoints
    info["fail_frac"] = failed / attempted
    emit(info, end_to_end(rounds, setup_times), attempted, failed, errors)


def measure_traced(wl, seed, updates, start, built, info) -> None:
    """Per-layer metrics: one trace window replayed plain and traced.

    Both replays start from the same pickled engine, so the traced one
    does the same work and its call counts depend only on the seed.  They
    run in alternating chunks, so that a change in machine speed during
    the run hits both alike and their time ratio is the tracing overhead.
    """
    eng, _ = set_up(wl, seed, updates[:start])
    first = Churn(wl, seed, updates, start, built)
    first.check_now(eng)
    snapshot = pickle.dumps(eng, protocol=pickle.HIGHEST_PROTOCOL)
    plain, traced = (Churn(wl, seed, updates, start, built) for _ in range(2))
    plain_eng, eng = pickle.loads(snapshot), pickle.loads(snapshot)
    del snapshot
    ops_before = getattr(eng, "op_counter", 0)
    tracer = Tracer()
    gc.collect()
    for i in range(1, TRACE_CHUNKS + 1):
        upto = wl.round_updates * i // TRACE_CHUNKS
        plain.run(plain_eng, upto)
        tracer.install()
        try:
            traced.run(eng, upto, tracer=tracer)
        finally:
            tracer.uninstall()
        if plain.failed or traced.failed:
            break
    traced.check_now(eng)
    runs = (first, plain, traced)
    attempted = sum(c.attempted for c in runs)
    failed = sum(c.failed for c in runs)
    errors = [e for c in runs for e in c.errors]
    if plain.checkpoints != traced.checkpoints[: len(plain.checkpoints)]:
        failed += 1
        errors.append("traced replay reached other reduction sizes than the plain one")
    ops_per_update = (getattr(eng, "op_counter", 0) - ops_before) / max(traced.done, 1)
    overhead = traced.phase_ns / plain.phase_ns if plain.phase_ns else 0.0
    info["updates"] = traced.done
    info["plain_s"] = plain.phase_ns / 1e9
    info["traced_s"] = traced.phase_ns / 1e9
    info["checkpoints"] = first.checkpoints + traced.checkpoints
    info["span_calls"] = dict(sorted(tracer.calls.items()))
    trace_path = TRACE_DIR / f"trace-{wl.name}-seed{seed}.json"
    tracer.dump(trace_path, {"workload": wl.name, "seed": seed})
    info["trace_file"] = str(trace_path.relative_to(ROOT))
    emit(info, layer_metrics(tracer, ops_per_update, overhead), attempted, failed, errors)
