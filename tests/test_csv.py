"""The CSV contract of ``sample`` and ``verify``.

``sample`` writes a header ``X1..Xn[,S]`` and one ``%.17g`` cell per value,
each line ended by ``\\r\\n``: the bytes of a ``csv.writer`` fed ``%.17g``
strings, which the references below rebuild row by row.  ``verify`` reads
the ``X*`` columns back and rejects malformed input with the IO exit code.
"""

import csv
import io
import json
import math
import warnings

import numpy as np
import pytest

from jointmix import oracle
from jointmix.cli import EXIT_IO, main
from jointmix.couplings import SampleBatch, sample_matrix_variate_cm
from jointmix.generators import CharacteristicGenerator

SPECIAL_CELLS = [-0.0, 5e-324, 1e308, math.inf, -math.inf, math.nan]


def _reference_csv(header, rows) -> bytes:
    buf = io.StringIO(newline="")
    writer = csv.writer(buf)
    writer.writerow(header)
    for row in rows:
        writer.writerow(row)
    return buf.getvalue().encode()


def _reference_batch_csv(data, include_sum) -> bytes:
    header = [f"X{i + 1}" for i in range(data.shape[1])] + (["S"] if include_sum else [])
    rows = []
    for row in data:
        cells = ["%.17g" % v for v in row]
        if include_sum:
            cells.append("%.17g" % row.sum())
        rows.append(cells)
    return _reference_csv(header, rows)


def _cells(count, n):
    """count x n values over many magnitudes, the special cells first."""
    rng = np.random.default_rng(1000 * count + n)
    data = rng.standard_normal((count, n)) * 10.0 ** rng.integers(-300, 300, size=(count, n))
    k = min(len(SPECIAL_CELLS), data.size)
    data.flat[:k] = SPECIAL_CELLS[:k]
    return data


@pytest.mark.filterwarnings("ignore:invalid value encountered:RuntimeWarning")  # inf - inf
@pytest.mark.parametrize("include_sum", [False, True], ids=["plain", "with_sum"])
@pytest.mark.parametrize("count", [0, 1, 10_001])
@pytest.mark.parametrize("n", [1, 3, 60])
def test_write_csv_matches_csv_writer(tmp_path, n, count, include_sum):
    data = _cells(count, n)
    batch = SampleBatch(data, seed=0, joint_center=0.0, kind="elliptical")
    path = tmp_path / "b.csv"
    batch.write_csv(path, include_sum=include_sum)
    assert path.read_bytes() == _reference_batch_csv(data, include_sum)


def test_write_csv_sum_column_of_moderate_rows(tmp_path):
    # finite rows of 60 cells: the S column is the per-row pairwise sum
    data = np.random.default_rng(5).standard_normal((500, 60)) * 1e3
    batch = SampleBatch(data, seed=0, joint_center=0.0, kind="elliptical")
    path = tmp_path / "b.csv"
    batch.write_csv(path, include_sum=True)
    written = np.array(
        [float(line.rsplit(",", 1)[1]) for line in path.read_text().splitlines()[1:]]
    )
    expected = np.array([row.sum() for row in data])
    assert np.array_equal(written.view(np.uint64), expected.view(np.uint64))


def test_write_csv_of_strided_data(tmp_path):
    # a column-major or sliced matrix writes the same bytes as a C-ordered one
    data = np.asfortranarray(np.random.default_rng(6).standard_normal((10_001, 9)))[:, ::2]
    batch = SampleBatch(data, seed=0, joint_center=0.0, kind="elliptical")
    path = tmp_path / "b.csv"
    batch.write_csv(path, include_sum=True)
    assert path.read_bytes() == _reference_batch_csv(np.ascontiguousarray(data), True)


def test_matrix_csv_matches_csv_writer(tmp_path, capsys):
    path = tmp_path / "m.csv"
    argv = ["sample", "--coupling", "matrix", "--generator", "student_t:4", "--p", "2",
            "--n", "3", "-N", "10001", "--seed", "21", "-o", str(path)]
    assert main(argv) == 0
    capsys.readouterr()
    mbatch = sample_matrix_variate_cm(
        2, np.eye(2), CharacteristicGenerator.student_t(4.0), 3, 10_001, 21
    )
    header = ["draw"] + [f"X{j + 1}_{i + 1}" for j in range(3) for i in range(2)]
    rows = [
        [str(k)] + ["%.17g" % v for v in mbatch.data[k].T.reshape(-1)]
        for k in range(10_001)
    ]
    assert path.read_bytes() == _reference_csv(header, rows)
    # the sidecar is the one SampleBatch writes, from the batch's own fields
    sidecar = json.loads((tmp_path / "m.csv.json").read_text())
    assert {k: v for k, v in sidecar.items() if k != "config"} == mbatch.sidecar()
    with pytest.raises(ValueError, match="no sum column"):
        mbatch.write_csv(tmp_path / "s.csv", include_sum=True)


# --- verify ----------------------------------------------------------------

def _verify(tmp_path, capsys, content: bytes, center="0"):
    path = tmp_path / "in.csv"
    path.write_bytes(content)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = main(["verify", "-i", str(path), "-C", center])
    out, err = capsys.readouterr()
    return code, out, err, caught


@pytest.mark.parametrize(
    "content",
    [
        b"",
        b"X1,X2\r\n",
        b"X1,X2\r\n\r\n\r\n",
        b"X1,X2\r\n1,-1\r\n2\r\n",
        b"X1,X2\r\n1,\r\n",
        b"X1,X2\r\n1,-1\r\nabc,2\r\n",
        b"X1,X2\r\n1,-1\r\n#2,-2\r\n",
        b"X1,X2\r\n1,-1\r\n# note\r\n",
        b"a,b\r\n1,2\r\n",
        b"X" * 200_000 + b"\r\n1\r\n",
    ],
    ids=["empty", "header_only", "header_blank_lines", "ragged_row", "empty_cell",
         "non_numeric", "hash_row", "hash_comment", "no_x_column", "header_over_field_limit"],
)
def test_verify_rejects_malformed_csv(tmp_path, capsys, content):
    code, out, err, caught = _verify(tmp_path, capsys, content)
    assert code == EXIT_IO
    assert out == ""
    assert len(err.strip().splitlines()) == 1
    assert caught == []


@pytest.mark.parametrize(
    "content",
    [
        b"X1,X2\r\n1,-1\r\n\r\n2,-2\r\n",
        b"X1,X2\n1,-1\n2,-2\n",
        b"X1,X2,S\r\n1,-1,7\r\n2,-2,7\r\n",
        b"X1,X2\r\n1,-1,7\r\n2,-2\r\n",
        b'X1,X2\r\n"1",-1\r\n 2 , -2 \r\n',
    ],
    ids=["blank_line_skipped", "lf_line_ends", "sum_column_ignored", "extra_cell_ignored",
         "quoted_and_padded_cells"],
)
def test_verify_accepts(tmp_path, capsys, content):
    code, out, _, _ = _verify(tmp_path, capsys, content)
    assert code == 0
    report = json.loads(out)
    assert report["passed"] is True and report["rows"] == 2


def test_verify_reads_back_every_written_bit(tmp_path, capsys, monkeypatch):
    data = _cells(2_000, 3)[10:]  # finite cells only
    path = tmp_path / "b.csv"
    SampleBatch(data, seed=0, joint_center=0.0, kind="elliptical").write_csv(path, include_sum=True)
    seen = []
    real = oracle.verify_constant_sum
    monkeypatch.setattr(oracle, "verify_constant_sum", lambda x, *a: seen.append(x) or real(x, *a))
    assert main(["verify", "-i", str(path), "-C", "0"]) in (0, 1)
    capsys.readouterr()
    parsed = np.asarray(seen[0], dtype=float)
    assert np.array_equal(parsed.view(np.uint64), data.view(np.uint64))
