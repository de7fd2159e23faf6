"""``kron simulate`` writes the bytes that ``csv.writer`` wrote when fed one
``%.12g`` string per cell (``oracles.simulate_csv_as_first_written``), for
any depth and any finite doubles the trajectory may hold."""

import contextlib
import io
import json
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import kronflow.dynamics as dynamics
from kronflow.cli import main
from oracles import simulate_csv_as_first_written

HALVING = {"kind": "solenoid", "generator": "1", "a": {"prefix": [1, 2], "tail": {"constant": 2}}}
FINITE = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 1e-300, 1.7e308, -1.7e308, 1e12, -1e12, 1e16, 2 * math.pi]),
)
TABLES = st.integers(1, 64).flatmap(lambda depth: st.tuples(
    st.just(depth),
    st.lists(st.tuples(FINITE, st.lists(FINITE, min_size=depth, max_size=depth)), min_size=1, max_size=4),
))


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    path = tmp_path_factory.mktemp("csv")
    (path / "halving.json").write_text(json.dumps(HALVING))
    return path


@settings(max_examples=200, deadline=None)
@given(TABLES)
def test_simulate_writes_the_csv_writer_bytes(workdir, table):
    depth, rows = table
    out = workdir / "traj.csv"
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(dynamics, "sample_trajectory", lambda *args: rows)
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            code = main(["simulate", str(workdir / "halving.json"), "--t1", "1", "--steps", "1",
                         "--depth", str(depth), "--out", str(out)])
    assert code == 0
    assert out.read_bytes() == simulate_csv_as_first_written(rows, depth)
