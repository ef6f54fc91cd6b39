"""README examples: the library tour runs and its commented results hold,
and the CLI example's commented output is what the command prints."""

import ast
import json
import re
from math import isqrt
from pathlib import Path

from homcount.algebra import SPASM_GUARD, TREEWIDTH_GUARD
from homcount.cli import main
from homcount.counting import ARRAY_MIN_ENTRIES, DENSE_LIMIT
from homcount.families import CFI_EDGE_GUARD, wl_equivalent_triangle_pair
from homcount.graphs import VERTEX_GUARD
from homcount.refinement import KWL_ENTRY_GUARD

README = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")


def test_library_tour_comments_hold():
    source = README.split("## Library tour", 1)[1].split("```python\n", 1)[1].split("```", 1)[0]
    lines = source.splitlines()
    namespace: dict = {}
    checked = []
    for node in ast.parse(source).body:
        if isinstance(node, ast.Expr):
            value = eval(compile(ast.Expression(node.value), "README.md", "eval"), namespace)
            expected = lines[node.end_lineno - 1].split("#", 1)[1].split(":", 1)[0].strip()
            assert repr(value) == expected
            checked.append(expected)
        else:
            exec(compile(ast.Module([node], []), "README.md", "exec"), namespace)
    assert checked == ["(2, 2, 2, 2, 2, 2)", "False"]


def test_wl_example_output(tmp_path, capsys):
    line = re.search(r"^homcount wl g1\.jsonl h1\.jsonl --variant wl1 +# (.*)$", README, re.M)
    pair = wl_equivalent_triangle_pair()
    paths = []
    for g in (pair.g, pair.h):
        path = tmp_path / f"{g.id}.jsonl"
        path.write_text(json.dumps(g.to_record()) + "\n", encoding="utf-8")
        paths.append(str(path))
    assert main(["wl", *paths, "--variant", "wl1"]) == 0
    assert capsys.readouterr().out == line.group(1) + "\n"


def test_kernel_limits_match_the_code():
    # the README's numbers for the array kernel are the constants that decide
    text = " ".join(README.split())
    assert int(re.search(r"within 2\^(\d+) entries", text).group(1)) == DENSE_LIMIT.bit_length() - 1
    assert int(re.search(r"about (\d+)k entries", text).group(1)) == round(ARRAY_MIN_ENTRIES / 1000)
    assert int(re.search(r"at most (\d+) vertices", text).group(1)) == isqrt(DENSE_LIMIT)


def test_guard_numbers_match_the_code():
    # the "## Guards" section's limits are the constants that enforce them
    text = " ".join(README.split("## Guards", 1)[1].split())
    assert int(re.search(r"patterns up to (\d+) vertices", text).group(1)) == TREEWIDTH_GUARD
    assert int(re.search(r"machinery up to (\d+)", text).group(1)) == SPASM_GUARD
    digits, power = re.search(r"at (\d+)·10\^(\d+)", text).groups()
    assert int(digits) * 10 ** int(power) == KWL_ENTRY_GUARD
    assert 2 ** int(re.search(r"up to 2\^(\d+) vertices", text).group(1)) == VERTEX_GUARD
    assert 2 ** int(re.search(r"gadget graph at 2\^(\d+) edges", text).group(1)) == CFI_EDGE_GUARD
