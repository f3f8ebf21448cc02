"""The one-pass canonical JSON writer against the recursive writer it replaced.

``oracle_canonical_json`` is the earlier ``cli.canonical_json``, kept as it was:
it recurses once per value and formats each scalar through one ``isinstance``
chain.  On every document without C0 control characters other than newline,
return and tab the two must agree byte for byte.  The oracle writes the other
control characters raw, which is not JSON; the new writer escapes them.
"""

import json
import math
from collections import OrderedDict

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from su_einstein import cli


def _oracle_scalar(v) -> str:
    if v is None:
        return "null"
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    if isinstance(v, (float, np.floating)):
        v = float(v)
        if v != v or v in (float("inf"), float("-inf")):
            return '"%s"' % v  # JSON has no NaN/Inf; stringify
        return format(v, ".17g")
    if isinstance(v, str):
        out = v.replace("\\", "\\\\").replace('"', '\\"')
        out = out.replace("\n", "\\n").replace("\r", "\\r").replace("\t", "\\t")
        return f'"{out}"'
    raise TypeError(f"cannot serialize {type(v)}")


def oracle_canonical_json(obj, indent: int = 0) -> str:
    """Deterministic JSON: sorted keys, fixed float formatting."""
    pad = "  " * indent
    pad_in = "  " * (indent + 1)
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        items = [
            f'{pad_in}{_oracle_scalar(str(k))}: {oracle_canonical_json(v, indent + 1)}'
            for k, v in sorted(obj.items())
        ]
        return "{\n" + ",\n".join(items) + "\n" + pad + "}"
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        items = [f"{pad_in}{oracle_canonical_json(v, indent + 1)}" for v in obj]
        return "[\n" + ",\n".join(items) + "\n" + pad + "]"
    return _oracle_scalar(obj)


class Text(str):
    pass


class Real(float):
    pass


class Count(int):
    """An int subclass whose str is not its digits: the writer must use int(v)."""

    def __str__(self):
        return f"Count({int(self)})"


SPECIAL_FLOATS = [math.nan, math.inf, -math.inf, 0.0, -0.0, 5e-324, 2.2250738585072009e-308,
                  1e300, -1e300, 1.7976931348623157e308, 1 / 3, 0.1]
INT64 = st.integers(min_value=-2**63, max_value=2**63 - 1)
# every character but the C0 controls, and the three controls both writers escape
SAFE_TEXT = st.text(st.characters(min_codepoint=0x20) | st.sampled_from('\n\r\t\\"'))
FLOATS = st.floats() | st.sampled_from(SPECIAL_FLOATS)
SCALARS = (st.none() | st.booleans() | st.integers() | INT64.map(np.int64)
           | FLOATS | FLOATS.map(np.float64) | SAFE_TEXT
           | SAFE_TEXT.map(Text) | FLOATS.map(Real) | st.integers().map(Count))


def containers(children):
    return (st.lists(children, max_size=4) | st.lists(children, max_size=4).map(tuple)
            | st.dictionaries(SAFE_TEXT, children, max_size=4)
            | st.dictionaries(st.integers(), children, max_size=4)
            | st.dictionaries(SAFE_TEXT, children, max_size=4).map(OrderedDict))


DOCUMENTS = st.recursive(SCALARS, containers, max_leaves=30)


@settings(max_examples=400, deadline=None)
@given(doc=DOCUMENTS)
def test_byte_identical_to_the_recursive_writer(doc):
    assert cli.canonical_json(doc) == oracle_canonical_json(doc)


@pytest.mark.parametrize("doc", [
    {}, [], (), {"a": {}, "b": [], "c": ()}, [[[]]], {10: 1, 9: 2, -1: 3},
    {"x": [1.0, np.float64(-0.0), np.int64(-3), True, None, "7,1,7"]},
    {"v": [math.nan, -math.inf, np.float64(math.inf), Real(math.nan)]},
    {Text("k"): Text('say "hi"\\'), "e": Count(7)},
    ["tab\there", "cr\rlf\n"],
], ids=repr)
def test_byte_identical_on_the_edge_cases(doc):
    assert cli.canonical_json(doc) == oracle_canonical_json(doc)


def test_a_check_document_is_byte_identical():
    doc = {"schema_version": 1, "command": "check",
           "params": {"n": 4, "scheme": 1, "x": [7.0, 1.0, 7.0]},
           "results": {"x": [7.0, 1.0, 7.0], "lambda": 0.13265306122448978,
                       "residual": 2.7755575615628914e-17, "I1": 25.0, "verdict": "EINSTEIN"},
           "diagnostics": {"tol": 1e-08}}
    assert cli.canonical_json(doc) == oracle_canonical_json(doc)


# A bare object's repr holds its address, so its case id is given by hand to
# stay the same from run to run.
@pytest.mark.parametrize("bad", [object(), {"a": {1, 2}}, [np.bool_(True)]],
                         ids=["object()", "{'a': {1, 2}}", "[np.True_]"])
def test_unserializable_values_raise_as_before(bad):
    with pytest.raises(TypeError):
        oracle_canonical_json(bad)
    with pytest.raises(TypeError):
        cli.canonical_json(bad)


def test_control_characters_are_escaped():
    assert cli.canonical_json({"a": "x\x01y"}) == '{\n  "a": "x\\u0001y"\n}'
    assert cli.canonical_json(["\x00\x08\x0c\x1f\n\r\t"]) == (
        '[\n  "\\u0000\\u0008\\u000c\\u001f\\n\\r\\t"\n]')
    assert cli.canonical_json({"\x1b": Text("\x02")}) == '{\n  "\\u001b": "\\u0002"\n}'


@settings(max_examples=300, deadline=None)
@given(s=st.text(), key=st.text())
def test_every_string_round_trips_through_json_loads(s, key):
    doc = {"s": s, key: [s, {key: s}]}
    text = cli.canonical_json(doc)
    assert json.loads(text) == doc
    assert cli.canonical_json(json.loads(text)) == text
