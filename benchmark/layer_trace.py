"""Outside-in layer trace: timing wrappers around dyntr's public calls.

The wrappers are installed from the benchmark only, by replacing class
attributes and module globals of dyntr for the length of one traced
replay, and are removed afterwards; the dyntr sources stay untouched.

There are two kinds of span:

* a *span* keeps a record (id, name, parent id, start ns, end ns) in
  memory.  Its time minus the time of the spans inside it is its self
  time.
* a *leaf* is a call that may run hundreds of times per update:
  ``DecReach.delete`` runs once per root state, about 750 times per
  deletion at n=1000.
  A leaf keeps no record of its own.  Its call count and total ns are
  added to the record of the span it runs in, and to per-name totals.
  A leaf must not call another wrapped function.
"""

from __future__ import annotations

import itertools
import json
import time
from collections import defaultdict
from pathlib import Path

from dyntr import algebraic, dec_reach, graph_core, scc_snapshots, tr_dag, tr_general


def _count_useful(tracer: "Tracer", args: tuple, result) -> None:
    # a DecReach.delete call did work when it reassigned a cursor or
    # dropped a vertex; the rest only filtered the removed ids
    st = args[0]
    d_delta, a_delta = result
    if d_delta or a_delta or st.touched_in or st.touched_out:
        tracer.counts["dec_reach.delete.useful"] += 1


def _count_views(tracer: "Tracer", args: tuple, result) -> None:
    tracer.counts["scc_snapshots.delete.views"] += len(args[0].views)


_Snap = scc_snapshots.SccSnapshots
_AlgDag, _AlgGen = algebraic.AlgebraicDag, algebraic.AlgebraicGeneral

# (span name, owner, attribute, leaf, hook run on the result)
TARGETS = (
    ("graph_core.insert", graph_core.TimestampedGraph, "apply_insert_centered", True, None),
    ("graph_core.delete", graph_core.TimestampedGraph, "apply_delete", True, None),
    ("dec_reach.init", dec_reach.DecReach, "__init__", True, None),
    ("dec_reach.delete", dec_reach.DecReach, "delete", True, _count_useful),
    ("tr_dag.insert", tr_dag.TrDag, "insert_centered", False, None),
    ("tr_dag.delete", tr_dag.TrDag, "delete_edges", False, None),
    ("scc_snapshots.rebuild", _Snap, "rebuild", False, None),
    ("scc_snapshots.delete", _Snap, "delete", False, _count_views),
    ("scc_snapshots.build_view", _Snap, "_build_view", True, None),
    ("scc_snapshots.refresh_groups", _Snap, "refresh_groups", True, None),
    ("tr_general.insert", tr_general.TrGeneral, "insert_centered", False, None),
    ("tr_general.delete", tr_general.TrGeneral, "delete_edges", False, None),
    ("tr_general.tr", tr_general.TrGeneral, "tr_edges", False, None),
    # both engines call minimal_scss through their own module global
    ("tr_general.minimal_scss", tr_general, "minimal_scss", True, None),
    ("tr_general.minimal_scss", algebraic, "minimal_scss", True, None),
    ("algebraic.insert", _AlgDag, "insert_centered", False, None),
    ("algebraic.delete", _AlgDag, "delete_edges", False, None),
    ("algebraic.tr", _AlgDag, "tr_edges", False, None),
    ("algebraic.insert", _AlgGen, "insert_centered", False, None),
    ("algebraic.delete", _AlgGen, "delete_edges", False, None),
    ("algebraic.tr", _AlgGen, "tr_edges", False, None),
    ("algebraic.rank1", algebraic.InverseState, "rank1_update", True, None),
    ("algebraic.matrix_inverse", algebraic, "matrix_inverse", True, None),
    ("algebraic.group_redundant", _AlgGen, "group_redundant", True, None),
)


class Tracer:
    """Span records and per-name totals for one traced replay."""

    def __init__(self) -> None:
        # (id, name, parent id or 0, start ns, end ns, {leaf: [calls, ns]})
        self.records: list[tuple] = []
        # open spans, innermost last: [id, child ns, {leaf: [calls, ns]}]
        self.stack: list[list] = []
        self.calls: dict[str, int] = defaultdict(int)
        self.total_ns: dict[str, int] = defaultdict(int)
        self.self_ns: dict[str, int] = defaultdict(int)
        self.counts: dict[str, int] = defaultdict(int)
        self._ids = itertools.count(1)
        self._saved: list[tuple[object, str, object]] = []

    def span(self, name: str, fn, hook=None):
        stack, records, ids = self.stack, self.records, self._ids
        calls, total_ns, self_ns = self.calls, self.total_ns, self.self_ns
        clock = time.perf_counter_ns

        def wrapper(*args, **kwargs):
            parent = stack[-1] if stack else None
            node = [next(ids), 0, {}]
            stack.append(node)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                dt = end - start
                calls[name] += 1
                total_ns[name] += dt
                self_ns[name] += dt - node[1]
                if parent is not None:
                    parent[1] += dt
                records.append(
                    (node[0], name, parent[0] if parent else 0, start, end, node[2])
                )
            if hook is not None:
                hook(self, args, result)
            return result

        return wrapper

    def leaf(self, name: str, fn, hook=None):
        stack, calls, total_ns = self.stack, self.calls, self.total_ns
        clock = time.perf_counter_ns

        def wrapper(*args, **kwargs):
            start = clock()
            result = fn(*args, **kwargs)
            dt = clock() - start
            calls[name] += 1
            total_ns[name] += dt
            if stack:
                top = stack[-1]
                top[1] += dt
                agg = top[2].get(name)
                if agg is None:
                    top[2][name] = [1, dt]
                else:
                    agg[0] += 1
                    agg[1] += dt
            if hook is not None:
                hook(self, args, result)
            return result

        return wrapper

    def install(self) -> None:
        for name, owner, attr, is_leaf, hook in TARGETS:
            original = owner.__dict__[attr]
            self._saved.append((owner, attr, original))
            make = self.leaf if is_leaf else self.span
            setattr(owner, attr, make(name, original, hook))

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def leaf_calls_under(self, parent: str, name: str) -> int:
        return sum(rec[5].get(name, (0,))[0] for rec in self.records if rec[1] == parent)

    def dump(self, path: Path, extra: dict) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        doc = {
            **extra,
            "fields": ["id", "name", "parent", "start_ns", "end_ns", "leaves"],
            "spans": self.records,
        }
        path.write_text(json.dumps(doc, separators=(",", ":")))


def layer_metrics(
    tracer: Tracer, ops_per_update: float, overhead: float
) -> dict[str, tuple[float, str]]:
    """Per-layer metrics of one traced replay, as name -> (value, unit).

    Totals cover the whole traced replay; layers a workload never
    reaches read 0.
    """
    calls, total_ns, self_ns, counts = (
        tracer.calls, tracer.total_ns, tracer.self_ns, tracer.counts
    )

    def ms(ns: int) -> float:
        return ns / 1e6

    def share(num: int, den: int) -> float:
        return num / den if den else 0.0

    rebuilt = tracer.leaf_calls_under("scc_snapshots.delete", "scc_snapshots.build_view")
    return {
        "dec_reach.delete.calls": (calls["dec_reach.delete"], "count"),
        "dec_reach.delete.ms": (ms(total_ns["dec_reach.delete"]), "ms"),
        "dec_reach.delete.useful_frac": (
            share(counts["dec_reach.delete.useful"], calls["dec_reach.delete"]),
            "ratio",
        ),
        "dec_reach.init.calls": (calls["dec_reach.init"], "count"),
        "dec_reach.init.ms": (ms(total_ns["dec_reach.init"]), "ms"),
        "tr_dag.insert.self_ms": (ms(self_ns["tr_dag.insert"]), "ms"),
        "tr_dag.delete.self_ms": (ms(self_ns["tr_dag.delete"]), "ms"),
        "tr_dag.ops_per_update": (ops_per_update, "count"),
        "graph_core.insert.ms": (ms(total_ns["graph_core.insert"]), "ms"),
        "graph_core.delete.ms": (ms(total_ns["graph_core.delete"]), "ms"),
        "scc_snapshots.rebuild.calls": (calls["scc_snapshots.rebuild"], "count"),
        "scc_snapshots.rebuild.ms": (ms(total_ns["scc_snapshots.rebuild"]), "ms"),
        "scc_snapshots.delete.ms": (ms(total_ns["scc_snapshots.delete"]), "ms"),
        "scc_snapshots.delete.views_rebuilt": (rebuilt, "count"),
        "scc_snapshots.delete.rebuilt_frac": (
            share(rebuilt, counts["scc_snapshots.delete.views"]),
            "ratio",
        ),
        "scc_snapshots.refresh_groups.calls": (calls["scc_snapshots.refresh_groups"], "count"),
        "scc_snapshots.refresh_groups.ms": (ms(total_ns["scc_snapshots.refresh_groups"]), "ms"),
        "tr_general.insert.self_ms": (ms(self_ns["tr_general.insert"]), "ms"),
        "tr_general.delete.self_ms": (ms(self_ns["tr_general.delete"]), "ms"),
        "tr_general.tr.self_ms": (ms(self_ns["tr_general.tr"]), "ms"),
        "tr_general.minimal_scss.calls": (calls["tr_general.minimal_scss"], "count"),
        "tr_general.minimal_scss.ms": (ms(total_ns["tr_general.minimal_scss"]), "ms"),
        "algebraic.rank1.calls": (calls["algebraic.rank1"], "count"),
        "algebraic.rank1.ms": (ms(total_ns["algebraic.rank1"]), "ms"),
        "algebraic.matrix_inverse.calls": (calls["algebraic.matrix_inverse"], "count"),
        "algebraic.group_redundant.calls": (calls["algebraic.group_redundant"], "count"),
        "algebraic.group_redundant.ms": (ms(total_ns["algebraic.group_redundant"]), "ms"),
        "algebraic.tr.self_ms": (ms(self_ns["algebraic.tr"]), "ms"),
        "trace.overhead_x": (overhead, "ratio"),
    }
