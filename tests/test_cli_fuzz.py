"""Property tests: generated and mutated input files driven through the CLI.

Whatever the file holds, a command exits 0, 1 or 2, writes one line to
stderr at most and never a traceback, and raises no warning.
"""

import contextlib
import io
import math
import warnings

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tuhf.cli import main

# zero and unimodular cells make partial isometries that split cleanly;
# arbitrary floats (nan and +-inf included) exercise every other branch
_CELL = st.one_of(
    st.just((0.0, 0.0)),
    st.sampled_from([(1.0, 0.0), (0.0, 1.0), (-1.0, 0.0), (0.6, 0.8)]),
    st.tuples(st.floats(width=64), st.floats(width=64)),
)
_BAD_CELLS = ["1", "a,b", "1,2,3", ",", "1e5000,0", "nan,nan", "0x1,0"]
_BAD_DIMS = ["dim", "dim x", "dim 0", "dim -1", "", "size 2"]


@st.composite
def matrix_files(draw):
    """(file text, whether a well-formed file of finite entries was kept)."""
    k = draw(st.integers(1, 4))
    cells = [[draw(_CELL) for _ in range(k)] for _ in range(k)]
    rows = [[f"{re!r},{im!r}" for re, im in row] for row in cells]
    dim = f"dim {k}"
    mutation = draw(st.sampled_from(["none", "none", "cell", "drop-row", "extra-row", "dim"]))
    if mutation == "cell":
        rows[draw(st.integers(0, k - 1))][draw(st.integers(0, k - 1))] = draw(
            st.sampled_from(_BAD_CELLS)
        )
    elif mutation == "drop-row":
        del rows[draw(st.integers(0, k - 1))]
    elif mutation == "extra-row":
        rows.append(rows[0])
    elif mutation == "dim":
        dim = draw(st.sampled_from(_BAD_DIMS + [f"dim {k + 1}"]))
    text = "\n".join([dim] + [" ".join(row) for row in rows]) + "\n"
    finite = all(math.isfinite(x) for row in cells for cell in row for x in cell)
    return text, mutation == "none" and finite


@pytest.fixture(scope="module")
def matrix_path(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz") / "v.mat"


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(case=matrix_files())
def test_normalizer_split_on_any_matrix_file(matrix_path, case):
    text, well_formed = case
    matrix_path.write_text(text)
    out, err = io.StringIO(), io.StringIO()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(["normalizer", "split", "--matrix", str(matrix_path)])
    out, err = out.getvalue(), err.getvalue()
    assert code in ((0, 1) if well_formed else (2,))
    if code == 0:
        assert err == "" and len(out.splitlines()) == 2
    else:
        assert out == "" and err.startswith("error: ") and err.count("\n") == 1
    assert "Traceback" not in err
