import math
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qtc.errors import NUMBER, NumericalError, ParseError, json_field, write_json


@pytest.mark.parametrize("value", [float("nan"), float("inf"), -float("inf")])
def test_write_json_refuses_non_finite_and_keeps_the_file(tmp_path, value):
    """No JSON artifact holds a number that read_json's callers reject: a NaN or
    infinity is a numerical error naming the file, and the file stays as it was."""
    path = tmp_path / "model.json"
    write_json(path, {"bias": 1.5, "theta": [0.25]})
    intact = path.read_bytes()
    assert intact == b'{\n  "bias": 1.5,\n  "theta": [\n    0.25\n  ]\n}\n'
    with pytest.raises(NumericalError, match=re.escape(f"{path}: holds a non-finite number")):
        write_json(path, {"bias": 1.5, "theta": [value]})
    assert path.read_bytes() == intact


def _element_by_element(d, key, kind, items=None):
    """json_field's checks made one element at a time: its value, or the
    ParseError message json_field gives."""
    def holds(value, k):
        return isinstance(value, k) and (not isinstance(value, bool) or k is bool)

    value = d[key]
    if not holds(value, kind) or (items is not None and not all(holds(v, items) for v in value)):
        return f"field {key!r} has the wrong type"
    numbers = value if items is not None else [value]
    if any(isinstance(v, float) and not math.isfinite(v) for v in numbers):
        return f"field {key!r} holds a non-finite number"
    return value


JSON_SCALARS = st.one_of(st.none(), st.booleans(), st.integers(-2**70, 2**70), st.floats(),
                         st.text(max_size=3))
KINDS = [(list, str), (list, int), (list, NUMBER), (list, bool), (int, None), (NUMBER, None),
         (str, None), ((int, type(None)), None)]


@settings(max_examples=300, deadline=None)
@given(st.one_of(JSON_SCALARS, st.lists(JSON_SCALARS, max_size=5)), st.sampled_from(KINDS))
def test_property_json_field_matches_element_by_element_checks(value, kinds):
    kind, items = kinds
    expected = _element_by_element({"k": value}, "k", kind, items)
    try:
        got = json_field({"k": value}, "k", kind, items=items)
    except ParseError as exc:
        got = str(exc)
    assert got == expected
