"""The README's examples run as written."""

import ast
import re
from pathlib import Path

import pytest

from dyntr.cli import run_stream

README = (Path(__file__).resolve().parents[1] / "README.md").read_text(
    encoding="utf-8"
)
BLOCKS = re.findall(r"^```(\w*)\n(.*?)^```", README, flags=re.M | re.S)


def block(lang: str, starts: str) -> str:
    (text,) = [body for tag, body in BLOCKS if tag == lang and body.startswith(starts)]
    return text


@pytest.mark.parametrize("engine", ["comb", "alg", "oracle"])
def test_stream_example(engine):
    out = run_stream(block("", "dtr v1"), engine=engine)
    assert out == "tr m=3\n1 2\n2 3\n3 4\nred 1 3 1\ntr m=3\n1 2\n1 3\n3 4\n"


def test_library_example():
    # a commented line states the value of its expression
    env: dict = {}
    for line in block("python", "from dyntr").splitlines():
        code, _, note = line.partition("#")
        if note:
            assert eval(code, env) == ast.literal_eval(note.split(":")[0].strip())
        else:
            exec(line, env)
