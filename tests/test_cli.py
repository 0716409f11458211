"""Stream parsing, run/bench front end, exit codes, engine interchange."""

import csv
import io
import os
import pickle
import random
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from dyntr import cli
from dyntr.cli import (
    CSV_HEADER,
    DelCmd,
    InsCmd,
    RedCmd,
    Stream,
    TrCmd,
    bench,
    make_engine,
    parse_stream,
    run_stream,
    serialize_stream,
)
from dyntr.errors import (
    BadUpdate,
    CycleCreated,
    DuplicateEdge,
    MissingEdge,
    NotIncident,
    ParseError,
    StreamCheckError,
    TooLarge,
)
from dyntr.graph_core import DeleteSet, InsertCentered
from dyntr.oracle import random_update_stream, validity_triple

PROPERTY_SETTINGS = settings(
    max_examples=100,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)

D3_STREAM = "dtr v1 n=3 mode=dag\nins 1 1 2 1 3\nins 3 3 2\ntr\nred 1 2\n"
# the cycle 1 -> 2 -> 3 -> 1 plus the chord (2, 1), which the first tr
# drops; deleting (2, 3) then leaves the cycle 1 -> 2 -> 1 and (3, 1)
G3_STREAM = "dtr v1 n=3 mode=general\nins 1 1 2 3 1\nins 2 2 1 2 3\ntr\ndel 2 3\ntr\n"

ENGINES = [("dag", "comb"), ("dag", "alg"), ("general", "comb"), ("general", "alg")]
ORACLES = [("dag", "oracle"), ("general", "oracle")]


class TestParse:
    def test_well_formed_stream(self):
        s = parse_stream(D3_STREAM)
        assert s.n == 3
        assert s.mode == "dag"
        assert s.commands == (
            InsCmd(1, ((1, 2), (1, 3))),
            InsCmd(3, ((3, 2),)),
            TrCmd(),
            RedCmd((1, 2)),
        )

    def test_missing_header(self):
        with pytest.raises(ParseError) as err:
            parse_stream("")
        assert err.value.line_no == 1

    def test_bad_version_token(self):
        with pytest.raises(ParseError):
            parse_stream("dtr v2 n=3 mode=dag\n")

    def test_vertex_count_zero_rejected(self):
        with pytest.raises(ParseError) as err:
            parse_stream("dtr v1 n=0 mode=dag\n")
        assert err.value.line_no == 1

    def test_bad_mode(self):
        with pytest.raises(ParseError):
            parse_stream("dtr v1 n=3 mode=mixed\n")

    def test_leading_zero_rejected(self):
        with pytest.raises(ParseError):
            parse_stream("dtr v1 n=03 mode=dag\n")

    def test_vertex_out_of_range(self):
        with pytest.raises(ParseError) as err:
            parse_stream("dtr v1 n=3 mode=dag\nins 1 1 4\n")
        assert err.value.line_no == 2

    def test_blank_line_rejected(self):
        with pytest.raises(ParseError) as err:
            parse_stream("dtr v1 n=3 mode=dag\n\ntr\n")
        assert err.value.line_no == 2

    def test_double_space_rejected(self):
        with pytest.raises(ParseError):
            parse_stream("dtr v1 n=3 mode=dag\nins 1  1 2\n")

    def test_ins_without_edges(self):
        with pytest.raises(ParseError):
            parse_stream("dtr v1 n=3 mode=dag\nins 1\n")

    def test_del_without_edges(self):
        with pytest.raises(ParseError) as err:
            parse_stream("dtr v1 n=3 mode=dag\ndel\n")
        assert err.value.line_no == 2

    def test_del_odd_tokens(self):
        with pytest.raises(ParseError):
            parse_stream("dtr v1 n=3 mode=dag\ndel 1 2 3\n")

    def test_tr_takes_no_arguments(self):
        with pytest.raises(ParseError):
            parse_stream("dtr v1 n=3 mode=dag\ntr 1\n")

    def test_red_arity(self):
        with pytest.raises(ParseError):
            parse_stream("dtr v1 n=3 mode=dag\nred 1\n")

    def test_unknown_command(self):
        with pytest.raises(ParseError) as err:
            parse_stream("dtr v1 n=3 mode=dag\ntr\nfoo\n")
        assert err.value.line_no == 3

    def test_second_header_rejected(self):
        with pytest.raises(ParseError):
            parse_stream("dtr v1 n=3 mode=dag\ndtr v1 n=3 mode=dag\n")

    @pytest.mark.parametrize(
        "text",
        [
            "dtr v1 n=3 mode=dag\nins 1 1 \u00b2\n",
            "dtr v1 n=\u00b2 mode=dag\n",
            "dtr v1 n=3 mode=dag\nins 1 1 \u0662\n",
        ],
        ids=["superscript-vertex", "superscript-header", "arabic-indic-vertex"],
    )
    def test_non_ascii_digits_rejected(self, text, tmp_path, capsys):
        with pytest.raises(ParseError):
            parse_stream(text)
        path = tmp_path / "s.txt"
        path.write_text(text, encoding="utf-8")
        assert cli.main(["run", str(path)]) == 1
        assert "parse error" in capsys.readouterr().err


@st.composite
def stream_objects(draw):
    n = draw(st.integers(min_value=1, max_value=9))
    vertex = st.integers(min_value=1, max_value=n)
    commands = []
    for _ in range(draw(st.integers(min_value=0, max_value=6))):
        kind = draw(st.sampled_from(["ins", "del", "tr", "red"]))
        if kind == "ins":
            edges = tuple(
                (draw(vertex), draw(vertex))
                for _ in range(draw(st.integers(min_value=1, max_value=3)))
            )
            commands.append(InsCmd(draw(vertex), edges))
        elif kind == "del":
            edges = tuple(
                (draw(vertex), draw(vertex))
                for _ in range(draw(st.integers(min_value=1, max_value=3)))
            )
            commands.append(DelCmd(edges))
        elif kind == "tr":
            commands.append(TrCmd())
        else:
            commands.append(RedCmd((draw(vertex), draw(vertex))))
    mode = draw(st.sampled_from(["dag", "general"]))
    return Stream(n, mode, tuple(commands))


@given(stream_objects())
@PROPERTY_SETTINGS
def test_round_trip_is_identity(stream):
    text = serialize_stream(stream)
    assert parse_stream(text) == stream
    assert serialize_stream(parse_stream(text)) == text


class TestRunStream:
    def test_diamond_outputs(self):
        assert run_stream(D3_STREAM) == "tr m=2\n1 3\n3 2\nred 1 2 1\n"

    def test_empty_reduction(self):
        assert run_stream("dtr v1 n=3 mode=dag\ntr\n") == "tr m=0\n"

    def test_irredundant_edge_reports_zero(self):
        out = run_stream("dtr v1 n=2 mode=dag\nins 1 1 2\nred 1 2\n")
        assert out == "red 1 2 0\n"

    def test_general_mode_marks_one_edge_per_group(self):
        text = (
            "dtr v1 n=4 mode=general\n"
            "ins 1 1 2 2 1\n"
            "ins 3 3 4 4 3\n"
            "ins 1 1 3\n"
            "ins 2 2 4\n"
            "tr\n"
        )
        assert run_stream(text) == "tr m=5\n1 2\n1 3\n2 1\n3 4\n4 3\n"

    def test_engine_error_names_the_line(self):
        text = "dtr v1 n=3 mode=dag\nins 1 1 2\nins 2 2 1\n"
        with pytest.raises(CycleCreated) as err:
            run_stream(text)
        assert "line 3" in str(err.value)
        assert "ins 2 2 1" in str(err.value)

    def test_deleting_dead_edge_names_the_line(self):
        text = "dtr v1 n=3 mode=dag\ndel 1 2\n"
        with pytest.raises(MissingEdge) as err:
            run_stream(text)
        assert "line 2" in str(err.value)

    def test_mode_assertion(self):
        with pytest.raises(ParseError):
            run_stream("dtr v1 n=3 mode=general\ntr\n", expect_mode="dag")

    def test_check_passes_on_correct_engines(self):
        out = run_stream(D3_STREAM, check=True)
        assert out.startswith("tr m=2\n")

    def test_check_mismatch_dumps_reproducer(self, monkeypatch):
        monkeypatch.setattr(cli, "brute_tr_dag", lambda n, edges: set())
        with pytest.raises(StreamCheckError) as err:
            run_stream(D3_STREAM, check=True)
        message = str(err.value)
        assert "check mismatch at line 2" in message
        assert "dtr v1 n=3 mode=dag\nins 1 1 2 1 3" in message

    @pytest.mark.parametrize("engine", ["comb", "alg", "oracle"])
    def test_check_passes_on_a_general_stream(self, engine):
        out = run_stream(G3_STREAM, engine=engine, check=True)
        assert out == "tr m=3\n1 2\n2 3\n3 1\ntr m=3\n1 2\n2 1\n3 1\n"

    def test_general_check_mismatch_dumps_reproducer(self, monkeypatch):
        monkeypatch.setattr(cli, "validity_triple", lambda n, live, got: "forced")
        with pytest.raises(StreamCheckError) as err:
            run_stream(G3_STREAM, check=True)
        message = str(err.value)
        assert "check mismatch at line 2: forced" in message
        assert message.endswith(
            "--- reproducer stream ---\ndtr v1 n=3 mode=general\nins 1 1 2 3 1"
        )

    def test_stats_rows(self, tmp_path):
        path = tmp_path / "stats.csv"
        run_stream(
            "dtr v1 n=3 mode=dag\nins 1 1 2 1 3\nins 3 3 2\ndel 1 3\ntr\n",
            stats_path=str(path),
        )
        rows = list(csv.reader(path.open()))
        assert rows[0] == CSV_HEADER.split(",")
        assert len(rows) == 4  # header + one row per update, none for tr
        steps = [r[0] for r in rows[1:]]
        ops = [r[1] for r in rows[1:]]
        ms = [int(r[3]) for r in rows[1:]]
        sizes = [int(r[7]) for r in rows[1:]]
        assert steps == ["1", "2", "3"]
        assert ops == ["ins", "ins", "del"]
        assert ms == [2, 3, 2]
        assert sizes == [2, 2, 2]


class TestBench:
    def test_header_and_row_count(self, tmp_path):
        path = tmp_path / "bench.csv"
        text = bench(6, 10, "dag", "comb", seed=4, out_csv=str(path))
        assert text.splitlines()[0] == CSV_HEADER
        assert path.read_text(encoding="utf-8") == text
        updates = random_update_stream(6, 10, "dag", seed=4)
        assert len(text.splitlines()) == len(updates) + 1

    @pytest.mark.parametrize("mode,engine", ENGINES + ORACLES)
    def test_non_timing_columns_deterministic(self, mode, engine):
        def strip_micros(text):
            rows = [line.split(",") for line in text.splitlines()]
            return [row[:5] + row[6:] for row in rows]

        a = bench(7, 12, mode, engine, seed=9)
        b = bench(7, 12, mode, engine, seed=9)
        assert strip_micros(a) == strip_micros(b)

    def test_alg_engine_rows(self):
        text = bench(5, 8, "dag", "alg", seed=2)
        rows = [line.split(",") for line in text.splitlines()[1:]]
        assert all(row[4] == "alg" for row in rows)
        assert all(int(row[6]) > 0 for row in rows)


class TestMain:
    def test_run_from_file(self, tmp_path, capsys):
        path = tmp_path / "stream.txt"
        path.write_text(D3_STREAM, encoding="utf-8")
        assert cli.main(["run", str(path)]) == 0
        assert capsys.readouterr().out == "tr m=2\n1 3\n3 2\nred 1 2 1\n"

    def test_run_from_stdin(self, monkeypatch, capsys):
        stdin = io.TextIOWrapper(io.BytesIO(b"dtr v1 n=2 mode=dag\ntr\n"))
        monkeypatch.setattr("sys.stdin", stdin)
        assert cli.main(["run"]) == 0
        assert capsys.readouterr().out == "tr m=0\n"

    def test_parse_error_exits_one(self, tmp_path, capsys):
        path = tmp_path / "bad.txt"
        path.write_text("dtr v1 n=3 mode=dag\nfoo\n", encoding="utf-8")
        assert cli.main(["run", str(path)]) == 1
        assert "parse error" in capsys.readouterr().err

    def test_file_not_utf8_is_a_parse_error(self, tmp_path, capsys):
        path = tmp_path / "bad.txt"
        path.write_bytes(b"\xff")
        assert cli.main(["run", str(path)]) == 1
        assert "parse error" in capsys.readouterr().err

    def test_stdin_not_utf8_is_a_parse_error(self):
        # a strict stdin decoder must not see the bytes before the parser
        src = Path(cli.__file__).resolve().parents[1]
        env = dict(os.environ, PYTHONIOENCODING="utf-8:strict", PYTHONPATH=str(src))
        proc = subprocess.run(
            [sys.executable, "-m", "dyntr.cli", "run", "-"],
            input=b"\xff", capture_output=True, env=env, timeout=60,
        )
        assert proc.returncode == 1
        assert proc.stderr.decode().startswith("parse error:")

    def test_engine_error_exits_two(self, tmp_path, capsys):
        path = tmp_path / "cyc.txt"
        path.write_text(
            "dtr v1 n=2 mode=dag\nins 1 1 2\nins 2 2 1\n", encoding="utf-8"
        )
        assert cli.main(["run", str(path)]) == 2
        assert "engine error" in capsys.readouterr().err

    def test_self_loop_is_an_engine_error(self, tmp_path, capsys):
        path = tmp_path / "loop.txt"
        path.write_text("dtr v1 n=2 mode=dag\nins 1 1 1\n", encoding="utf-8")
        assert cli.main(["run", str(path)]) == 2
        assert "engine error: line 2 (ins 1 1 1): bad edge (1, 1)" in (
            capsys.readouterr().err
        )

    def test_oversized_algebraic_engine_exits_two(self, tmp_path, capsys):
        path = tmp_path / "huge.txt"
        path.write_text("dtr v1 n=1000000 mode=dag\ntr\n", encoding="utf-8")
        assert cli.main(["run", str(path), "--engine", "alg"]) == 2
        assert "engine error" in capsys.readouterr().err

    @pytest.mark.parametrize("mode", ["dag", "general"])
    def test_vertex_count_past_memory_exits_two(self, tmp_path, capsys, mode):
        path = tmp_path / "huge.txt"
        path.write_text(f"dtr v1 n={10**12} mode={mode}\ntr\n", encoding="utf-8")
        out = tmp_path / "b.csv"
        assert cli.main(["run", str(path)]) == 2
        args = ["bench", "--n", str(10**12), "--steps", "1", "--mode", mode]
        assert cli.main([*args, "--out", str(out)]) == 2
        assert capsys.readouterr().err.count("engine error") == 2
        assert not out.exists()

    def test_out_of_memory_exits_two(self, tmp_path, capsys, monkeypatch):
        def no_memory(n):
            raise MemoryError

        monkeypatch.setattr(cli, "TrDag", no_memory)
        path = tmp_path / "s.txt"
        path.write_text(D3_STREAM, encoding="utf-8")
        out = tmp_path / "b.csv"
        assert cli.main(["run", str(path)]) == 2
        assert cli.main(["bench", "--n", "4", "--steps", "5", "--out", str(out)]) == 2
        assert capsys.readouterr().err.count("engine error: out of memory") == 2
        assert not out.exists()

    def test_general_check_mismatch_exits_three(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(cli, "validity_triple", lambda n, live, got: "forced")
        path = tmp_path / "s.txt"
        path.write_text(G3_STREAM, encoding="utf-8")
        assert cli.main(["run", str(path), "--check"]) == 3
        assert "reproducer" in capsys.readouterr().err

    def test_check_mismatch_exits_three(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(cli, "brute_tr_dag", lambda n, edges: set())
        path = tmp_path / "s.txt"
        path.write_text(D3_STREAM, encoding="utf-8")
        assert cli.main(["run", str(path), "--check"]) == 3
        assert "reproducer" in capsys.readouterr().err

    def test_bench_writes_csv(self, tmp_path):
        out = tmp_path / "b.csv"
        code = cli.main(
            ["bench", "--n", "5", "--steps", "6", "--out", str(out)]
        )
        assert code == 0
        assert out.read_text(encoding="utf-8").splitlines()[0] == CSV_HEADER

    def test_bench_io_error_exits_two(self, tmp_path, capsys):
        out = tmp_path / "no" / "dir" / "b.csv"
        code = cli.main(
            ["bench", "--n", "4", "--steps", "5", "--out", str(out)]
        )
        assert code == 2
        assert "io error" in capsys.readouterr().err

    def test_bench_without_vertices_exits_two(self, tmp_path, capsys):
        out = tmp_path / "b.csv"
        code = cli.main(
            ["bench", "--n", "0", "--steps", "5", "--out", str(out)]
        )
        assert code == 2
        assert "engine error: vertex count must be positive" in (
            capsys.readouterr().err
        )
        assert not out.exists()

    @pytest.mark.parametrize(
        "flag,value",
        [("--density", "2"), ("--density", "-1"), ("--density", "nan"),
         ("--steps", "-3")],
    )
    def test_bench_rejects_flags_out_of_range(self, tmp_path, capsys, flag, value):
        out = tmp_path / "b.csv"
        args = ["bench", "--n", "4", "--steps", "5", "--out", str(out), flag, value]
        with pytest.raises(SystemExit) as ex:
            cli.main(args)
        assert ex.value.code == 2
        assert f"error: {flag} must" in capsys.readouterr().err
        assert not out.exists()


def d3_on(mode, engine):
    eng = make_engine(mode, engine, 3, seed=5)
    eng.insert_centered(1, [(1, 2), (1, 3)])
    eng.insert_centered(3, [(3, 2)])
    return eng


@pytest.mark.parametrize(
    "call",
    [
        lambda: make_engine("dga", "comb", 5),
        lambda: make_engine("general", "cmb", 5),
        lambda: run_stream(D3_STREAM, engine="cmb"),
        lambda: bench(5, 3, "dga", "alg"),
        lambda: bench(5, 3, "dag", "cmb"),
    ],
    ids=["mode", "engine", "run-engine", "bench-mode", "bench-engine"],
)
def test_unknown_mode_or_engine_is_a_bad_update(call):
    with pytest.raises(BadUpdate, match=r"unknown (mode 'dga'|engine 'cmb')"):
        call()


@pytest.mark.parametrize("n", [0, -1])
@pytest.mark.parametrize("mode,engine", ENGINES)
def test_vertex_count_below_one_is_a_dyntr_error(mode, engine, n):
    with pytest.raises(BadUpdate, match="must be positive"):
        make_engine(mode, engine, n)


@pytest.mark.parametrize("mode,engine", ENGINES + ORACLES)
def test_vertex_count_past_memory_is_too_large(mode, engine):
    # checked before any per-vertex array is allocated
    with pytest.raises(TooLarge, match="physical memory"):
        make_engine(mode, engine, 10**12)


@pytest.mark.parametrize("n", [2.0, "3", None])
@pytest.mark.parametrize("mode,engine", ENGINES + [("dag", "oracle")])
def test_vertex_count_that_is_no_int_is_a_dyntr_error(mode, engine, n):
    with pytest.raises(BadUpdate, match="vertex count is an int"):
        make_engine(mode, engine, n)


@pytest.mark.parametrize("mode,engine", ENGINES + [("dag", "oracle")])
def test_vertex_count_takes_bools_and_numpy_ints(mode, engine):
    assert make_engine(mode, engine, True, seed=5).g.n == 1
    eng = make_engine(mode, engine, np.int64(3), seed=5)
    assert type(eng.g.n) is int
    eng.insert_centered(1, [(1, 2), (1, 3)])
    eng.insert_centered(3, [(3, 2)])
    assert eng.tr_edges() == [(1, 3), (3, 2)]


@pytest.mark.parametrize("mode,engine", ENGINES)
def test_empty_deletion_is_a_no_op(mode, engine):
    eng = d3_on(mode, engine)
    eng.delete_edges([])
    assert eng.tr_edges() == [(1, 3), (3, 2)]


@pytest.mark.parametrize("mode,engine", ENGINES)
def test_repeated_edge_in_a_deletion_batch_changes_nothing(mode, engine):
    eng = d3_on(mode, engine)
    with pytest.raises(DuplicateEdge, match="edge repeated within the batch"):
        eng.delete_edges([(1, 3), (1, 3)])
    assert eng.g.edge_list() == [(1, 2), (1, 3), (3, 2)]
    assert eng.tr_edges() == [(1, 3), (3, 2)]
    assert eng.is_redundant(1, 2) is True
    eng.delete_edges([(1, 3)])
    assert eng.tr_edges() == [(1, 2), (3, 2)]


@pytest.mark.parametrize("mode,engine", ENGINES)
def test_center_past_n_is_a_bad_update(mode, engine):
    eng = make_engine(mode, engine, 3, seed=5)
    with pytest.raises(BadUpdate):
        eng.insert_centered(4, [(4, 1)])
    eng.insert_centered(1, [(1, 2)])
    assert eng.tr_edges() == [(1, 2)]


def apply(eng, upd):
    if isinstance(upd, InsertCentered):
        eng.insert_centered(upd.center, upd.edges)
    else:
        eng.delete_edges(upd.edges)


def same_answers(eng, ref):
    live = sorted(ref.g.eid)
    assert eng.g.edge_list() == live
    assert eng.tr_edges() == ref.tr_edges()
    assert [eng.is_redundant(*e) for e in live] == [ref.is_redundant(*e) for e in live]


def malformed_twins(upd, n):
    """Updates that name the vertices of ``upd`` in a shape the graph rejects."""
    t, h = upd.edges[0]
    edges = [(float(t), h), (str(t), h), (t, h, h), t, [t, h]]
    # batches that are not iterable at all
    batches = [t, None]
    if isinstance(upd, DeleteSet):
        return [DeleteSet((e,)) for e in edges] + [DeleteSet(b) for b in batches]
    return [InsertCentered(upd.center, (e,)) for e in edges] + [
        InsertCentered(float(upd.center), upd.edges),
        InsertCentered(n + 1, ((n + 1, 1),)),
    ] + [InsertCentered(upd.center, b) for b in batches]


@pytest.mark.parametrize("mode,engine", ENGINES + ORACLES)
def test_rejected_batches_leave_no_trace(mode, engine):
    n = 7
    eng, ref = (make_engine(mode, engine, n, seed=5) for _ in range(2))
    for upd in random_update_stream(n, 30, mode, seed=9):
        for bad in malformed_twins(upd, n):
            with pytest.raises(BadUpdate):
                apply(eng, bad)
        apply(eng, upd)
        apply(ref, upd)
        same_answers(eng, ref)
        if engine == "alg":
            assert np.array_equal(eng.state.minv, ref.state.minv)


def semantic_twins(live, n, mode, rng):
    """Well-shaped updates that the graph ``live`` rejects, each with the
    error it raises; a valid edge rides along where the batch allows one."""
    t, h = rng.choice(sorted(live))
    dead = [(a, b) for a in range(1, n + 1) for b in range(1, n + 1)
            if a != b and (a, b) not in live and (b, a) not in live]
    a, b = rng.choice(dead)
    c = rng.choice([v for v in range(1, n + 1) if v not in (a, b)])
    twins = [
        (InsertCentered(t, ((t, h),)), DuplicateEdge),
        (InsertCentered(c, ((a, b),)), NotIncident),
        (DeleteSet(((t, h), (a, b))), MissingEdge),
    ]
    if mode == "dag":
        # (h, t) closes t -> h -> t; the batch is linked, probed, rolled back
        ride = [(x, h) for x in range(1, n + 1) if (x, h) in dead]
        twins.append((InsertCentered(h, ((h, t), *ride[:1])), CycleCreated))
    return twins


@pytest.mark.parametrize("mode,engine", ENGINES + ORACLES)
def test_semantic_rejections_leave_no_trace(mode, engine):
    n = 7
    rng = random.Random(3)
    eng, ref = (make_engine(mode, engine, n, seed=5) for _ in range(2))
    for upd in random_update_stream(n, 40, mode, seed=11):
        apply(eng, upd)
        apply(ref, upd)
        live = set(ref.g.eid)
        if live and len(live) < n * (n - 1) // 2:
            for bad, error in semantic_twins(live, n, mode, rng):
                with pytest.raises(error):
                    apply(eng, bad)
        same_answers(eng, ref)
        if hasattr(ref, "tr_size"):
            assert eng.tr_size() == ref.tr_size() == len(ref.tr_edges())
        if engine == "alg":
            assert np.array_equal(eng.state.minv, ref.state.minv)


@pytest.mark.parametrize("mode,engine", ENGINES + ORACLES)
def test_pickled_engine_replays_like_the_original(mode, engine):
    n = 8
    updates = random_update_stream(n, 60, mode, seed=4)
    eng = make_engine(mode, engine, n, seed=5)
    for upd in updates[:30]:
        apply(eng, upd)
    eng.tr_edges()  # whatever a query keeps goes into the pickle too
    twin = pickle.loads(pickle.dumps(eng, protocol=pickle.HIGHEST_PROTOCOL))
    for upd in updates[30:]:
        apply(eng, upd)
        apply(twin, upd)
        got = eng.tr_edges()
        assert twin.tr_edges() == got
        # a returned list is the caller's own
        got.append((0, 0))
        twin.tr_edges().append((0, 0))
        assert eng.tr_edges() == twin.tr_edges() == got[:-1]


@pytest.mark.parametrize("mode,engine", ENGINES)
def test_numpy_int_vertices_work_like_ints(mode, engine):
    n = 7
    eng, ref = (make_engine(mode, engine, n, seed=5) for _ in range(2))
    for upd in random_update_stream(n, 30, mode, seed=9):
        edges = tuple((np.int64(t), np.int64(h)) for t, h in upd.edges)
        if isinstance(upd, InsertCentered):
            eng.insert_centered(np.int64(upd.center), edges)
        else:
            eng.delete_edges(edges)
        apply(ref, upd)
        same_answers(eng, ref)


@pytest.mark.parametrize("mode,engine", ENGINES + ORACLES)
def test_queries_check_their_vertices(mode, engine):
    n = 3
    eng = make_engine(mode, engine, n, seed=5)
    eng.insert_centered(1, [(1, 2)])
    for x, y in [(1.0, 2), (1, 2.0), ("1", 2), (None, 2)]:
        with pytest.raises(BadUpdate, match="a vertex is an int"):
            eng.is_redundant(x, y)
    assert eng.is_redundant(np.int64(1), np.int32(2)) is eng.is_redundant(1, 2) is False
    with pytest.raises(MissingEdge):
        eng.is_redundant(np.int64(2), 1)
    # a vertex outside 1..n is a bad input, not a missing edge
    for x, y in [(0, 2), (1, n + 1)]:
        with pytest.raises(BadUpdate, match="bad edge"):
            eng.is_redundant(x, y)
        with pytest.raises(BadUpdate, match="bad edge"):
            eng.delete_edges([(x, y)])
    assert eng.tr_edges() == [(1, 2)]


@st.composite
def dag_runs(draw):
    n = draw(st.integers(min_value=2, max_value=9))
    steps = draw(st.integers(min_value=5, max_value=30))
    seed = draw(st.integers(min_value=0, max_value=2**32 - 1))
    return n, random_update_stream(n, steps, "dag", seed=seed)


@st.composite
def general_runs(draw):
    n = draw(st.integers(min_value=2, max_value=8))
    steps = draw(st.integers(min_value=5, max_value=24))
    seed = draw(st.integers(min_value=0, max_value=2**32 - 1))
    return n, random_update_stream(n, steps, "general", seed=seed)


def stream_with_probes(n, mode, updates):
    commands = []
    for upd in updates:
        if isinstance(upd, InsertCentered):
            commands.append(InsCmd(upd.center, tuple(upd.edges)))
        else:
            commands.append(DelCmd(tuple(upd.edges)))
        commands.append(TrCmd())
    return serialize_stream(Stream(n, mode, tuple(commands)))


@given(dag_runs())
@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
def test_dag_engines_are_interchangeable(case):
    n, updates = case
    text = stream_with_probes(n, "dag", updates)
    outputs = {
        engine: run_stream(text, engine=engine, seed=13)
        for engine in ("comb", "alg", "oracle")
    }
    assert outputs["comb"] == outputs["alg"] == outputs["oracle"]


@given(general_runs())
@settings(max_examples=40, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
def test_general_engines_agree_on_classification(case):
    n, updates = case
    engines = {
        name: make_engine("general", name, n, seed=21)
        for name in ("comb", "alg", "oracle")
    }
    for upd in updates:
        for eng in engines.values():
            if isinstance(upd, InsertCentered):
                eng.insert_centered(upd.center, upd.edges)
            else:
                eng.delete_edges(upd.edges)
        live = list(engines["comb"].g.eid)
        reductions = {name: eng.tr_edges() for name, eng in engines.items()}
        for tr in reductions.values():
            assert validity_triple(n, live, tr) is None
        for edge in live:
            bits = {eng.is_redundant(*edge) for eng in engines.values()}
            assert len(bits) == 1
