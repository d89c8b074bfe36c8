import io

import numpy as np
import pytest

from tanlift import NumericalError
from tanlift.reportio import format_float, trajectory_rows, write_csv

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
