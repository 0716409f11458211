"""Stream front end: parse update streams, drive an engine, report results.

Stream format (UTF-8, one command per line, single spaces)::

    dtr v1 n=<n> mode=<dag|general>
    ins <center> <tail> <head> [<tail> <head> ...]
    del <tail> <head> [<tail> <head> ...]
    tr
    red <tail> <head>

``tr`` prints "tr m=<k>" followed by the k reduction edges in
lexicographic order; ``red a b`` prints "red a b 1" when the edge is
redundant and "red a b 0" otherwise.  ``--check`` validates the engine
against from-scratch recomputation after every update and aborts with a
verbatim reproducer stream on the first mismatch.  Exit codes: 0 ok,
1 parse error, 2 engine error, 3 check mismatch.
"""

from __future__ import annotations

import argparse
import sys
import time
from dataclasses import dataclass
from pathlib import Path

from .algebraic import AlgebraicDag, AlgebraicGeneral
from .errors import BadUpdate, DynTrError, ParseError, StreamCheckError
from .graph_core import DeleteSet, Edge, InsertCentered, Update
from .oracle import OracleEngine, brute_tr_dag, random_update_stream, validity_triple
from .tr_dag import TrDag
from .tr_general import TrGeneral

CSV_HEADER = "step,op,n,m,engine,micros,elementary_ops,tr_size"

ENGINES = ("comb", "alg", "oracle")
MODES = ("dag", "general")


# the update commands are the engines' own update records
InsCmd = InsertCentered
DelCmd = DeleteSet


@dataclass(frozen=True)
class TrCmd:
    pass


@dataclass(frozen=True)
class RedCmd:
    edge: Edge


Command = InsCmd | DelCmd | TrCmd | RedCmd


@dataclass(frozen=True)
class Stream:
    n: int
    mode: str
    commands: tuple[Command, ...]


# ---- parsing and serialization ----


def _num(tok: str, line_no: int, what: str) -> int:
    # str.isdigit alone also accepts digits such as "²" and "١"
    if not (tok.isascii() and tok.isdigit()) or (len(tok) > 1 and tok[0] == "0"):
        raise ParseError(line_no, f"bad {what} {tok!r}")
    return int(tok)


def _vertex(tok: str, n: int, line_no: int) -> int:
    v = _num(tok, line_no, "vertex")
    if not 1 <= v <= n:
        raise ParseError(line_no, f"vertex {v} outside 1..{n}")
    return v


def _pairs(toks: list[str], n: int, line_no: int) -> tuple[Edge, ...]:
    if not toks or len(toks) % 2:
        raise ParseError(line_no, "expected a list of tail head pairs")
    return tuple(
        (_vertex(a, n, line_no), _vertex(b, n, line_no))
        for a, b in zip(toks[0::2], toks[1::2])
    )


def parse_stream(text: str) -> Stream:
    lines = text.splitlines()
    if not lines:
        raise ParseError(1, "missing header")
    head = lines[0].split(" ")
    if (
        len(head) != 4
        or head[0] != "dtr"
        or head[1] != "v1"
        or not head[2].startswith("n=")
        or not head[3].startswith("mode=")
    ):
        raise ParseError(1, f"bad header {lines[0]!r}")
    n = _num(head[2][2:], 1, "vertex count")
    if n < 1:
        raise ParseError(1, "vertex count must be positive")
    mode = head[3][5:]
    if mode not in MODES:
        raise ParseError(1, f"bad mode {mode!r}")
    commands: list[Command] = []
    for line_no, line in enumerate(lines[1:], start=2):
        toks = line.split(" ")
        word = toks[0]
        if word == "ins":
            if len(toks) < 4:
                raise ParseError(line_no, "ins needs a center and edges")
            commands.append(
                InsCmd(_vertex(toks[1], n, line_no), _pairs(toks[2:], n, line_no))
            )
        elif word == "del":
            if len(toks) < 3:
                raise ParseError(line_no, "del needs edges")
            commands.append(DelCmd(_pairs(toks[1:], n, line_no)))
        elif word == "tr":
            if len(toks) != 1:
                raise ParseError(line_no, "tr takes no arguments")
            commands.append(TrCmd())
        elif word == "red":
            if len(toks) != 3:
                raise ParseError(line_no, "red takes one edge")
            commands.append(
                RedCmd((_vertex(toks[1], n, line_no), _vertex(toks[2], n, line_no)))
            )
        else:
            raise ParseError(line_no, f"unknown command {word!r}")
    return Stream(n, mode, tuple(commands))


def _format_command(cmd: Command) -> str:
    if isinstance(cmd, InsCmd):
        body = " ".join(f"{t} {h}" for t, h in cmd.edges)
        return f"ins {cmd.center} {body}"
    if isinstance(cmd, DelCmd):
        body = " ".join(f"{t} {h}" for t, h in cmd.edges)
        return f"del {body}"
    if isinstance(cmd, TrCmd):
        return "tr"
    return f"red {cmd.edge[0]} {cmd.edge[1]}"


def serialize_stream(stream: Stream) -> str:
    lines = [f"dtr v1 n={stream.n} mode={stream.mode}"]
    lines.extend(_format_command(cmd) for cmd in stream.commands)
    return "\n".join(lines) + "\n"


# ---- engines behind one interface ----


def make_engine(mode: str, engine: str, n: int, seed: int = 0):
    if mode not in MODES:
        raise BadUpdate(f"unknown mode {mode!r}")
    if engine == "comb":
        return TrDag(n) if mode == "dag" else TrGeneral(n)
    if engine == "alg":
        if mode == "dag":
            return AlgebraicDag(n, seed=seed)
        return AlgebraicGeneral(n, seed=seed)
    if engine == "oracle":
        return OracleEngine(n, mode)
    raise BadUpdate(f"unknown engine {engine!r}")


def _elementary_ops(eng) -> int:
    counter = getattr(eng, "op_counter", None)
    if counter is not None:
        return counter
    state = getattr(eng, "state", None)
    if state is not None:
        # each pass, one row or column of an update or one of the 2n
        # an inversion makes, touches every entry of the inverse
        return state.generation * state.size * state.size
    return 0


def _tr_size(eng) -> int:
    size = getattr(eng, "tr_size", None)
    if size is not None:
        return size()
    return len(eng.tr_edges())


def _timed_update(eng, upd: Update) -> tuple[str, int]:
    """Apply one update; return its op name and wall time in microseconds."""
    started = time.perf_counter_ns()
    if isinstance(upd, InsertCentered):
        eng.insert_centered(upd.center, upd.edges)
        op = "ins"
    else:
        eng.delete_edges(upd.edges)
        op = "del"
    return op, (time.perf_counter_ns() - started) // 1000


def _csv_row(step: int, op: str, n: int, engine: str, micros: int, eng) -> str:
    return (
        f"{step},{op},{n},{len(eng.g.eid)},{engine},"
        f"{micros},{_elementary_ops(eng)},{_tr_size(eng)}"
    )


def _check(mode: str, eng) -> str | None:
    g = eng.g
    live = list(g.eid)
    got = eng.tr_edges()
    if mode == "dag":
        want = sorted(brute_tr_dag(g.n, live))
        if got != want:
            return f"reduction {got} != expected {want}"
        return None
    return validity_triple(g.n, live, got)


# ---- stream runner ----


def run_stream(
    text: str,
    engine: str = "comb",
    check: bool = False,
    stats_path: str | None = None,
    seed: int = 0,
    expect_mode: str | None = None,
) -> str:
    stream = parse_stream(text)
    if expect_mode is not None and stream.mode != expect_mode:
        raise ParseError(
            1, f"stream mode {stream.mode!r} does not match --mode {expect_mode!r}"
        )
    eng = make_engine(stream.mode, engine, stream.n, seed)
    raw = text.splitlines()
    out: list[str] = []
    rows = [CSV_HEADER]
    step = 0
    for pos, cmd in enumerate(stream.commands):
        line_no = pos + 2
        op = None
        try:
            if isinstance(cmd, (InsCmd, DelCmd)):
                op, micros = _timed_update(eng, cmd)
            elif isinstance(cmd, TrCmd):
                tr = eng.tr_edges()
                out.append(f"tr m={len(tr)}")
                out.extend(f"{a} {b}" for a, b in tr)
            else:
                a, b = cmd.edge
                out.append(f"red {a} {b} {1 if eng.is_redundant(a, b) else 0}")
        except DynTrError as ex:
            raise type(ex)(f"line {line_no} ({raw[line_no - 1]}): {ex}") from ex
        if op is None:
            continue
        step += 1
        if stats_path is not None:
            rows.append(_csv_row(step, op, stream.n, engine, micros, eng))
        if check:
            reason = _check(stream.mode, eng)
            if reason is not None:
                dump = "\n".join(raw[:line_no])
                raise StreamCheckError(
                    f"check mismatch at line {line_no}: {reason}\n"
                    f"--- reproducer stream ---\n{dump}"
                )
    if stats_path is not None:
        Path(stats_path).write_text("\n".join(rows) + "\n", encoding="utf-8")
    return "\n".join(out) + "\n" if out else ""


# ---- benchmark ----


def bench(
    n: int,
    steps: int,
    mode: str,
    engine: str,
    seed: int = 0,
    out_csv: str | None = None,
    density: float = 0.35,
) -> str:
    """Drive one engine over a generated stream, one CSV row per update.

    Every column except micros is deterministic in the arguments.
    ``density`` is the insert share of the mixed phase; 0.5 holds the
    edge count near its build level instead of draining it.
    """
    eng = make_engine(mode, engine, n, seed)
    updates = random_update_stream(n, steps, mode, density=density, seed=seed)
    rows = [CSV_HEADER]
    for step, upd in enumerate(updates, start=1):
        op, micros = _timed_update(eng, upd)
        rows.append(_csv_row(step, op, n, engine, micros, eng))
    text = "\n".join(rows) + "\n"
    if out_csv is not None:
        Path(out_csv).write_text(text, encoding="utf-8")
    return text


# ---- entry point ----


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="dyntr",
        description="dynamic transitive reduction over update streams",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    run_p = sub.add_parser("run", help="drive an engine over an update stream")
    run_p.add_argument("stream", nargs="?", default="-",
                       help="stream file, or - for stdin")
    run_p.add_argument("--engine", choices=ENGINES, default="comb")
    run_p.add_argument("--mode", choices=MODES, default=None,
                       help="assert the stream header's mode")
    run_p.add_argument("--check", action="store_true",
                       help="validate against recomputation after every update")
    run_p.add_argument("--stats", metavar="PATH", default=None,
                       help="write per-update CSV statistics")
    run_p.add_argument("--seed", type=int, default=0)
    bench_p = sub.add_parser("bench", help="run a generated stream, write CSV")
    bench_p.add_argument("--n", type=int, required=True)
    bench_p.add_argument("--steps", type=int, required=True)
    bench_p.add_argument("--mode", choices=MODES, default="dag")
    bench_p.add_argument("--engine", choices=ENGINES, default="comb")
    bench_p.add_argument("--seed", type=int, default=0)
    bench_p.add_argument("--density", type=float, default=0.35,
                         help="insert share of the mixed phase")
    bench_p.add_argument("--out", metavar="PATH", required=True)
    args = parser.parse_args(argv)
    if args.command == "bench":
        # NaN fails the range test too
        if not 0 <= args.density <= 1:
            bench_p.error(f"--density must lie in [0, 1], got {args.density}")
        if args.steps < 0:
            bench_p.error(f"--steps must not be negative, got {args.steps}")
    try:
        if args.command == "run":
            if args.stream == "-":
                data = sys.stdin.buffer.read()
            else:
                data = Path(args.stream).read_bytes()
            # bytes that are not UTF-8 become lone surrogates, which no
            # token accepts, so they end in a ParseError
            text = data.decode("utf-8", errors="surrogateescape")
            sys.stdout.write(
                run_stream(
                    text,
                    engine=args.engine,
                    check=args.check,
                    stats_path=args.stats,
                    seed=args.seed,
                    expect_mode=args.mode,
                )
            )
        else:
            bench(args.n, args.steps, args.mode, args.engine, args.seed,
                  args.out, density=args.density)
    except ParseError as ex:
        print(f"parse error: {ex}", file=sys.stderr)
        return 1
    except StreamCheckError as ex:
        print(ex, file=sys.stderr)
        return 3
    except DynTrError as ex:
        print(f"engine error: {ex}", file=sys.stderr)
        return 2
    except MemoryError:
        # a size that passes the physical-memory check can still fail
        # under a lower address-space cap
        print("engine error: out of memory for this stream's size", file=sys.stderr)
        return 2
    except OSError as ex:
        print(f"io error: {ex}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
