import io

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tanlift import NumericalError
from tanlift.reportio import dumps, format_float, trajectory_rows, write_csv

EDGE_VALUES = {
    -0.0: "-0",
    5e-324: "4.9406564584124654e-324",
    1e-310: "9.9999999999999694e-311",
    2.2250738585072014e-308: "2.2250738585072014e-308",
    1e308: "1e+308",
    1.7976931348623157e308: "1.7976931348623157e+308",
    0.1: "0.10000000000000001",
    -1 / 3: "-0.33333333333333331",
}


@pytest.mark.parametrize("value", list(EDGE_VALUES))
def test_format_float_is_the_same_for_float_and_numpy_float(value):
    assert format_float(value) == format_float(np.float64(value)) == EDGE_VALUES[value]


def test_trajectory_csv_bytes():
    times = np.array([0.0, 1e-310, 0.5])
    bases = np.array([[-0.0, 1e308], [5e-324, -1.5], [0.1, 2.0]])
    fibers = np.array([[1 / 3, -0.0], [0.0, 1e-300], [7.0, -2.5e-320]])
    stream = io.StringIO()
    write_csv(stream, ["t", "x1", "x2", "y1", "y2"], trajectory_rows(times, bases, fibers))
    assert stream.getvalue() == (
        "t,x1,x2,y1,y2\n"
        "0,-0,1e+308,0.33333333333333331,-0\n"
        "9.9999999999999694e-311,4.9406564584124654e-324,-1.5,0,1e-300\n"
        "0.5,0.10000000000000001,2,7,-2.4999721679567075e-320\n"
    )


@pytest.mark.parametrize("bad", [float("nan"), np.float64("inf"), -np.inf])
def test_non_finite_values_are_not_serialized(bad):
    # A float and a numpy float give the same message.
    for value in (float(bad), np.float64(bad)):
        with pytest.raises(NumericalError, match=rf"^cannot serialize non-finite value {float(bad)!r}$"):
            format_float(value)
    fibers = np.array([[0.0, bad]])
    with pytest.raises(NumericalError, match="^cannot serialize non-finite value "):
        write_csv(io.StringIO(), ["t", "x1", "y1"], trajectory_rows([0.0], [[1.0]], fibers[:, 1:]))


def _per_value_csv(header, rows):
    """The CSV text of a per-value ``format_float`` join, and the message it stops with."""
    stream = io.StringIO()
    stream.write(",".join(header) + "\n")
    try:
        for row in rows:
            stream.write(",".join(format_float(v) for v in row) + "\n")
    except NumericalError as err:
        return stream.getvalue(), str(err)
    return stream.getvalue(), None


_CSV_VALUES = (
    st.floats(allow_nan=True, allow_infinity=True)
    | st.sampled_from([-0.0, 0.0, 5e-324, -5e-324, 1e-310, 2.0**53, 2.0**53 + 2, 1.7976931348623157e308])
    | st.integers(-(2**70), 2**70)
    | st.floats(allow_subnormal=True, min_value=-1e-300, max_value=1e-300).map(np.float64)
)


@settings(max_examples=300, deadline=None)
@given(st.lists(st.lists(_CSV_VALUES, max_size=6), max_size=8))
def test_csv_rows_have_the_bytes_of_a_per_value_format_float_join(rows):
    # Rows of unequal widths each get a template of their own width.
    header = [f"c{i}" for i in range(len(rows[0]) if rows else 0)]
    want, message = _per_value_csv(header, rows)
    stream = io.StringIO()
    try:
        write_csv(stream, header, iter(rows))
    except NumericalError as err:
        assert str(err) == message
    else:
        assert message is None
    assert stream.getvalue() == want


@pytest.mark.parametrize(
    "obj, message",
    [
        ({"a": {1: 2.0}}, "JSON object keys must be strings, got 1"),
        ([{0.5}], "cannot serialize set as JSON"),
        ({"a": object()}, "cannot serialize object as JSON"),
    ],
    ids=["key", "set", "object"],
)
def test_dumps_names_a_key_or_a_value_json_cannot_hold(obj, message):
    with pytest.raises(TypeError) as err:
        dumps(obj)
    assert str(err.value) == message
