"""Property test of the text-table value token: every finite float64
round-trips bit-exactly through ``nets.write_table`` and
``nets.read_table`` at width 1 and wider, each written token is the one
``reference.table_token`` spells, and ``float.fromhex`` reads it back to
the same bits."""
import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

import reference  # noqa: E402
from slmp import nets  # noqa: E402

# +-0, the smallest and largest subnormals, the smallest normal, the largest finite
EDGES = np.array([0.0, -0.0, 5e-324, -5e-324, 2.225073858507201e-308, -2.225073858507201e-308,
                  2.2250738585072014e-308, -2.2250738585072014e-308,
                  1.7976931348623157e308, -1.7976931348623157e308])


@settings(max_examples=40, deadline=None, database=None, derandomize=True)
@given(bits=st.lists(st.integers(0, 2**64 - 1), max_size=60), width=st.integers(2, 7))
def test_finite_values_round_trip_bit_exactly(tmp_path_factory, bits, width):
    values = np.array(bits, dtype=np.uint64).view(np.float64)
    values = np.concatenate([EDGES, values[np.isfinite(values)]])
    wide = np.resize(values, (-(-values.size // width), width))
    path = tmp_path_factory.mktemp("table") / "t.txt"
    for rows in (values, wide):
        nets.write_table(path, (None, {"n": int}), {"n": len(rows)}, rows)
        _, back = nets.read_table(path, (None, {"n": int}), lambda head: (len(rows), rows[:1].size))
        assert back.shape == rows.shape and back.tobytes() == rows.tobytes()
        tokens = path.read_text().split()[1:]
        assert tokens == [reference.table_token(float(v)) for v in rows.ravel()]
        assert np.array([float.fromhex(t) for t in tokens]).tobytes() == rows.tobytes()
