import re

import pytest

from qtc.errors import NumericalError, write_json


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
