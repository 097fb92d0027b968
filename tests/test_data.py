from __future__ import annotations

import math
import tracemalloc

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from subnewton import data as data_module
from subnewton import model as model_module
from subnewton.data import RIDGE_NOISE, SPARSE_MAX_DENSITY, DataFormatError, \
    generate_synthetic, load_dataset, measure_gram_condition, save_dataset
from subnewton.model import EXP_CLAMP, Dataset, ObjectiveModel
from subnewton.solvers import SolverConfig, run


def test_identity_conditioning_target():
    dataset, meta = generate_synthetic(200, 8, condition_target=1.0, seed=0)
    assert meta.condition_measured <= 2.0
    assert meta.condition_measured == pytest.approx(1.0, rel=1e-8)


@pytest.mark.parametrize("target", [10.0, 1e4])
def test_conditioning_within_factor_two(target):
    dataset, meta = generate_synthetic(300, 20, condition_target=target, seed=1)
    assert target / 2 <= meta.condition_measured <= target * 2


def test_reported_condition_matches_direct_eigensolve():
    dataset, meta = generate_synthetic(150, 10, condition_target=100.0, seed=2)
    a = dataset.features
    eigs = np.linalg.eigvalsh(a.T @ a / dataset.n)
    direct = eigs[-1] / eigs[0]
    assert abs(meta.condition_measured - direct) <= 1e-6 * direct


def test_generation_holds_at_most_two_designs():
    """gesdd factors its own Fortran copy of z in place and u is scaled in
    place, so generation peaks near twice the design it returns."""
    generate_synthetic(50, 5)  # first-call set-up outside the count
    tracemalloc.start()
    try:
        dataset, _ = generate_synthetic(20_000, 50, seed=3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2.25 * dataset.features.nbytes
    assert dataset.features.flags.f_contiguous  # p <= COLUMN_MAJOR_MAX_P


@pytest.mark.parametrize("kwargs", [
    dict(family="logistic"),
    dict(family="poisson", signal_direction="weak"),
    dict(family="ridge", condition_target=1e4),
])
def test_generation_allocates_no_design_after_the_svd(monkeypatch, kwargs):
    """From gesdd's return on, every n x p array lives in the buffers of
    gesdd's input z and output u: with both kept alive, the peak past them
    is a few n-length vectors (margins, labels), not a design."""
    svd, kept, held = scipy.linalg.svd, [], []

    def svd_keeping_its_buffers(a, *args, **kw):
        result = svd(a, *args, **kw)
        kept.append((a, result))
        held.append(tracemalloc.get_traced_memory()[0])
        tracemalloc.reset_peak()
        return result

    monkeypatch.setattr(scipy.linalg, "svd", svd_keeping_its_buffers)
    generate_synthetic(50, 5)  # first-call set-up outside the count
    n, p = 20_000, 50
    tracemalloc.start()
    try:
        dataset, _ = generate_synthetic(n, p, seed=3, **kwargs)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak - held[-1] <= 8 * 8 * n  # eight n-vectors; a design is 50
    z, (u, _, _) = kept[-1]
    assert np.shares_memory(dataset.features, z)  # p <= COLUMN_MAJOR_MAX_P
    assert dataset.features.flags.f_contiguous


def one_draw_recipe(n, p, *, condition_target=1.0, family="logistic", seed=0,
                    signal_norm=3.0, signal_direction="random"):
    """The generator as one (n, p) draw copied to Fortran order, u copied to
    C order and scaled in place twice, and the Gram condition measured
    eagerly: (features, labels, planted coefficients, condition)."""
    rng = np.random.default_rng(seed)
    z = np.asfortranarray(rng.standard_normal((n, p)))
    u, _, vt = scipy.linalg.svd(z, full_matrices=False, overwrite_a=True,
                                check_finite=False)
    u = np.ascontiguousarray(u)
    vt = np.ascontiguousarray(vt)
    u *= np.geomspace(1.0, 1.0 / math.sqrt(condition_target), num=p)
    u *= math.sqrt(n)
    a = u @ vt
    if signal_direction == "weak":
        x_star = vt[p // 2:].T @ rng.standard_normal(p - p // 2)
        x_star *= signal_norm / max(float(np.std(a @ x_star)), 1e-30)
    else:
        x_star = rng.standard_normal(p)
        x_star *= signal_norm / np.linalg.norm(x_star)
    t = a @ x_star
    if family == "ridge":
        b = t + RIDGE_NOISE * rng.standard_normal(n)
    elif family == "logistic":
        probs = 1.0 / (1.0 + np.exp(-np.clip(t, -EXP_CLAMP, EXP_CLAMP)))
        b = (rng.random(n) < probs).astype(float)
    else:
        b = rng.poisson(np.exp(np.clip(t, -EXP_CLAMP, 20.0))).astype(float)
    return a, b, x_star, measure_gram_condition(Dataset(features=a, labels=b))


@pytest.mark.parametrize("n, p, kwargs, block_rows", [
    # tall; 20000 rows are 7 blocks of 2621 and one of 1653
    (20_000, 50, dict(family="logistic", condition_target=1e3), None),
    (3_000, 40, dict(family="poisson", signal_direction="weak", signal_norm=0.5), None),
    (60, 50, dict(family="ridge", condition_target=1e4), None),
    # near square, drawn 7 rows at a time: 60 rows are 8 blocks and one of 4
    (60, 50, dict(family="logistic", signal_direction="weak", condition_target=1e8), 7),
    (1_000, 100, dict(family="ridge", signal_direction="weak", seed=5), 13),
    # either side of COLUMN_MAJOR_MAX_P = 64, 9-row blocks over 1000 rows
    # leaving a last block of 1
    (1_000, 64, dict(family="logistic", condition_target=1e3, seed=6), 9),
    (1_000, 65, dict(family="poisson", signal_direction="weak", seed=6), 9),
])
def test_generation_matches_the_one_draw_recipe_bytes(monkeypatch, n, p, kwargs, block_rows):
    """Drawing z a row block at a time into Fortran order, scaling u a row
    block at a time into z's buffer, forming u @ vt in u's buffer and
    copying a column-major design back a row block at a time changes no
    byte, and the lazily measured condition is the eager one."""
    if block_rows is not None:
        monkeypatch.setattr(model_module, "ROW_BLOCK_BYTES", 8 * p * block_rows)
    dataset, meta = generate_synthetic(n, p, **kwargs)
    a, b, x_star, condition = one_draw_recipe(n, p, **kwargs)
    narrow = p <= model_module.COLUMN_MAJOR_MAX_P
    assert dataset.features.flags["F_CONTIGUOUS" if narrow else "C_CONTIGUOUS"]
    assert dataset.features.tobytes() == a.tobytes()
    assert dataset.labels.tobytes() == b.tobytes()
    assert meta.planted_coefficients.tobytes() == x_star.tobytes()
    assert "condition_measured" not in vars(meta)  # no Gram until it is read
    assert meta.condition_measured == condition == measure_gram_condition(dataset)


def test_fixed_seed_reproduces_dataset_bytes(tmp_path):
    d1, _ = generate_synthetic(50, 5, family="logistic", seed=42)
    d2, _ = generate_synthetic(50, 5, family="logistic", seed=42)
    assert np.array_equal(d1.features, d2.features)
    assert np.array_equal(d1.labels, d2.labels)
    p1, p2 = tmp_path / "a.svm", tmp_path / "b.svm"
    save_dataset(d1, p1)
    save_dataset(d2, p2)
    assert p1.read_bytes() == p2.read_bytes()


def test_label_domains_per_family():
    d_log, _ = generate_synthetic(100, 4, family="logistic", seed=3)
    assert set(np.unique(d_log.labels)) <= {0.0, 1.0}
    d_poi, _ = generate_synthetic(100, 4, family="poisson", seed=3, signal_norm=0.5)
    assert np.all(d_poi.labels >= 0)
    assert np.all(d_poi.labels == np.floor(d_poi.labels))


def test_infeasible_shape_rejected():
    with pytest.raises(ValueError):
        generate_synthetic(5, 10, seed=0)


# -- file formats -------------------------------------------------------------


def test_svmlight_single_line(tmp_path):
    path = tmp_path / "one.svm"
    path.write_text("1 1:2.0 3:1.0\n")
    ds = load_dataset(path, "svmlight")
    assert ds.n == 1 and ds.p == 3
    np.testing.assert_allclose(ds.features, [[2.0, 0.0, 1.0]])
    np.testing.assert_allclose(ds.labels, [1.0])


def test_csv_single_line(tmp_path):
    path = tmp_path / "one.csv"
    path.write_text("0.5,1.0,2.0\n")
    ds = load_dataset(path, "csv")
    assert ds.n == 1 and ds.p == 2
    np.testing.assert_allclose(ds.features, [[1.0, 2.0]])
    np.testing.assert_allclose(ds.labels, [0.5])


@pytest.mark.parametrize("fmt", ["svmlight", "csv"])
def test_round_trip_is_identity(fmt, tmp_path):
    dataset, _ = generate_synthetic(40, 6, family="ridge", seed=9)
    path = tmp_path / f"rt.{fmt}"
    save_dataset(dataset, path, fmt)
    back = load_dataset(path, fmt)
    np.testing.assert_array_equal(back.features, dataset.features)
    np.testing.assert_array_equal(back.labels, dataset.labels)


def test_malformed_line_reports_line_number(tmp_path):
    path = tmp_path / "bad.svm"
    path.write_text("1 1:2.0\n0 2:oops\n")
    with pytest.raises(DataFormatError) as err:
        load_dataset(path, "svmlight")
    assert ":2:" in str(err.value)


def test_csv_ragged_row_reports_line_number(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("1.0,2.0,3.0\n1.0,2.0\n")
    with pytest.raises(DataFormatError) as err:
        load_dataset(path, "csv")
    assert ":2:" in str(err.value)


def test_empty_file_rejected(tmp_path):
    path = tmp_path / "empty.svm"
    path.write_text("")
    with pytest.raises(DataFormatError):
        load_dataset(path, "svmlight")


def test_sparse_zero_features_skipped_on_write(tmp_path):
    ds = Dataset(features=np.array([[0.0, 3.0], [1.0, 0.0]]),
                 labels=np.array([1.0, 0.0]))
    path = tmp_path / "z.svm"
    save_dataset(ds, path)
    lines = path.read_text().splitlines()
    assert lines[0].split()[1] == "2:3.0"
    back = load_dataset(path)
    np.testing.assert_array_equal(back.features, ds.features)


def test_benchmark_scale_generation_under_ten_seconds():
    import time
    started = time.perf_counter()
    dataset, meta = generate_synthetic(5_000, 500, family="logistic",
                                       condition_target=1e4, seed=6)
    elapsed = time.perf_counter() - started
    assert dataset.n == 5_000 and dataset.p == 500
    assert 5e3 <= meta.condition_measured <= 2e4
    assert elapsed < 10.0


def test_weak_signal_direction_profile():
    dataset, meta = generate_synthetic(400, 40, family="logistic", seed=8,
                                       condition_target=1e4,
                                       signal_direction="weak", signal_norm=2.0)
    margins = dataset.features @ meta.planted_coefficients
    assert np.std(margins) == pytest.approx(2.0, rel=1e-9)
    # planted mass avoids the strongest-curvature directions
    a = dataset.features
    _, _, vt = np.linalg.svd(a, full_matrices=False)
    strong = vt[:20] @ meta.planted_coefficients
    weak = vt[20:] @ meta.planted_coefficients
    assert np.linalg.norm(strong) <= 1e-8 * np.linalg.norm(weak)


# -- sparse storage -----------------------------------------------------------


def dense_parse(path) -> np.ndarray:
    """Reference svmlight parse into a dense array: the last value of a
    repeated index wins, p is the largest index seen."""
    rows = []
    for raw in path.read_text().splitlines():
        line = raw.split("#", 1)[0].split()
        if line:
            rows.append({int(i): float(v) for i, v in (t.split(":", 1) for t in line[1:])})
    a = np.zeros((len(rows), max(max(r, default=0) for r in rows)))
    for i, row in enumerate(rows):
        for j, v in row.items():
            a[i, j - 1] = v
    return a


def sparse_logistic(n, p, density, seed):
    rng = np.random.default_rng(seed)
    a = sp.random(n, p, density=density, format="csr", random_state=rng,
                  data_rvs=rng.standard_normal)
    probs = 1.0 / (1.0 + np.exp(-(a @ rng.standard_normal(p))))
    return Dataset(features=a, labels=(rng.random(n) < probs).astype(float))


@pytest.fixture(scope="module")
def sparse_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("sparse") / "s.svm"
    save_dataset(sparse_logistic(2000, 50, 0.02, seed=11), path)
    return path


def test_sparse_file_loads_as_csr(sparse_file):
    ds = load_dataset(sparse_file)
    assert ds.storage == "sparse"
    assert ds.features.nnz <= SPARSE_MAX_DENSITY * ds.n * ds.p
    assert ds.features.has_sorted_indices
    np.testing.assert_array_equal(ds.features.toarray(), dense_parse(sparse_file))


def test_dense_file_loads_dense_and_bit_identical(tmp_path):
    dataset, _ = generate_synthetic(40, 6, seed=12)
    path = tmp_path / "g.svm"
    save_dataset(dataset, path)
    back = load_dataset(path)
    assert back.storage == "dense"
    assert back.features.dtype == np.float64 and back.features.flags.f_contiguous
    assert back.features.tobytes() == dense_parse(path).tobytes()
    assert back.features.tobytes() == dataset.features.tobytes()


@pytest.mark.parametrize("fmt", ["svmlight", "csv"])
def test_dense_narrow_load_builds_the_stored_layout(fmt, tmp_path, monkeypatch):
    """A dense file of p <= COLUMN_MAJOR_MAX_P loads straight into Fortran
    order, which Dataset adopts: a stored -0.0 is kept and no second design
    is made.  svmlight's peak stays within 1.5 designs plus its parse arrays
    (labels, columns, values, row pointer); csv's within half a design past
    what it holds when it builds the Dataset (its row lists and the design)."""
    n, p = 5_000, 50
    rng = np.random.default_rng(14)
    a = np.where(rng.random((n, p)) < 0.15, rng.standard_normal((n, p)), 0.0)
    a[0, 0] = a[n - 1, p - 1] = -0.0
    labels = (rng.random(n) < 0.5).astype(float)
    path = tmp_path / f"d.{fmt}"
    if fmt == "svmlight":  # save_dataset skips zeros, -0.0 with them
        lines = []
        for i, row in enumerate(a):
            feats = [f"{j + 1}:{v!r}" for j, v in enumerate(row.tolist())
                     if v != 0.0 or (i, j) in ((0, 0), (n - 1, p - 1))]
            lines.append(" ".join([repr(labels[i].item()), *feats]))
        path.write_text("\n".join(lines) + "\n")
        nnz = int(np.count_nonzero(a)) + 2
        assert SPARSE_MAX_DENSITY * n * p < nnz < 0.2 * n * p  # loads dense
        parse_bytes = nnz * 16 + (n + 1) * 8 + n * 8
    else:
        save_dataset(Dataset(a, labels), path, fmt="csv")
    built = []

    def dataset_of(features, labels):
        built.append((features, tracemalloc.get_traced_memory()[0]))
        return Dataset(features=features, labels=labels)

    monkeypatch.setattr(data_module, "Dataset", dataset_of)
    tracemalloc.start()
    try:
        ds = load_dataset(path, fmt)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    (features, held), = built
    assert ds.features is features  # adopted, not copied
    assert ds.features.flags.f_contiguous and ds.features.dtype == np.float64
    assert ds.features.tobytes() == np.asfortranarray(a).tobytes()
    assert np.signbit(ds.features[0, 0]) and np.signbit(ds.features[n - 1, p - 1])
    assert ds.labels.tobytes() == labels.tobytes()
    design = ds.features.nbytes
    if fmt == "svmlight":
        assert peak <= 1.5 * design + parse_bytes
    else:
        assert peak <= held + 0.5 * design


def test_dense_svmlight_scatter_holds_under_three_designs(monkeypatch):
    """A dense svmlight file is scattered into its design a row block at a
    time, with no nnz-long row index beside the parsed columns and values:
    at 84% stored the load peaks below three designs, parse arrays included,
    and keeps every value and sign bit (a stored -0.0 among them)."""
    n, p = 200_000, 20
    rng = np.random.default_rng(15)
    stored = rng.random((n, p)) < 0.84
    a = np.where(stored, rng.standard_normal((n, p)), 0.0)
    a[stored & (rng.random((n, p)) < 1e-4)] = -0.0
    cols = np.nonzero(stored)[1]
    vals = a[stored]
    indptr = np.concatenate([[0], np.cumsum(stored.sum(axis=1))])
    labels = (rng.random(n) < 0.5).astype(float)
    del stored

    def parsed(path):  # the byte parse's arrays, made inside the traced load
        return labels.copy(), cols.copy(), vals.copy(), indptr.copy()
    monkeypatch.setattr(data_module, "_parse_bytes", parsed)
    tracemalloc.start()
    try:
        ds = load_dataset("dense.svm")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert ds.storage == "dense"
    assert ds.features.tobytes() == np.asfortranarray(a).tobytes()
    assert np.any((ds.features == 0) & np.signbit(ds.features))  # a -0.0 kept
    assert peak < 3 * ds.features.nbytes


def test_out_of_order_and_repeated_indices_match_dense_parse(tmp_path):
    path = tmp_path / "dup.svm"
    lines = ["1 40:1.5 3:2.0 40:-4.0 1:0.25", "0 7:1.0 2:3.0 7:9.0 7:-1.0"]
    lines += [f"{i % 2} {i + 1}:1.0" for i in range(38)]
    path.write_text("\n".join(lines) + "\n")
    ds = load_dataset(path)
    assert ds.storage == "sparse"  # 43 of 40 x 40 entries stored
    assert ds.features.has_sorted_indices
    np.testing.assert_array_equal(ds.features.toarray(), dense_parse(path))
    assert ds.features[0, 39] == -4.0 and ds.features[1, 6] == -1.0


BYTE_PARSE_CASES = {
    "unsorted": ["1 40:1.5 3:2.0 1:0.25", "0 7:1.0 2:3.0 12:-1", "1"],
    "repeated": ["1 3:1.0 3:-4.0 1:0.5 3:2.5", "0 2:-0.0 2:7 2:-0.0", "1 5:1 5:2"],
    "commented": ["# header 1:2", "1 2:1.0 # trailing 9:9", "", "   # indented",
                  "0 1:-0.0 3:2e-3#tight", "1 # label only"],
}


def same_parse(a, b):
    return all(x.dtype == y.dtype and x.tobytes() == y.tobytes() for x, y in zip(a, b))


@pytest.mark.parametrize("case", sorted(BYTE_PARSE_CASES))
def test_byte_parse_matches_the_per_token_parse(tmp_path, case):
    """Columns sorted, a repeated index keeping its last value, -0.0 kept,
    comments dropped: bit for bit the per-token result."""
    path = tmp_path / f"{case}.svm"
    path.write_text("\n".join(BYTE_PARSE_CASES[case]) + "\n")
    assert same_parse(data_module._parse_bytes(path), data_module._parse_tokens(path))
    ds = load_dataset(path)
    a = ds.features.toarray() if ds.storage == "sparse" else ds.features
    np.testing.assert_array_equal(a, dense_parse(path))


def test_byte_parse_matches_on_shuffled_repeated_rows(tmp_path):
    rng = np.random.default_rng(21)
    lines = []
    for i in range(300):
        idx = rng.integers(1, 60, size=rng.integers(0, 8))  # unsorted, with repeats
        vals = rng.standard_normal(idx.size) * (rng.random(idx.size) < 0.9)
        vals[rng.random(idx.size) < 0.1] = -0.0
        lines.append(" ".join([str(i % 2)] + [f"{j}:{v!r}" for j, v in
                                              zip(idx.tolist(), vals.tolist())]))
    path = tmp_path / "shuffled.svm"
    path.write_text("\n".join(lines) + "\n")
    fast, slow = data_module._parse_bytes(path), data_module._parse_tokens(path)
    assert same_parse(fast, slow)
    assert np.signbit(fast[2]).any()


# any printable ASCII, ":" and "#" among it
COMMENT_TEXT = st.text(st.characters(min_codepoint=32, max_codepoint=126), max_size=12)
NUMBER_TEXT = st.one_of(
    st.floats(width=64).map(repr),
    st.integers(-10**6, 10**6).map(str),
    st.sampled_from(["-0.0", "0", "+1", "1e5", "-2.5E-3", "7.", ".5", "1e-320", "3E+2"]),
)
FEATURE = st.tuples(st.integers(1, 40), st.integers(0, 2), NUMBER_TEXT).map(
    lambda t: f"{'0' * t[1]}{t[0]}:{t[2]}")  # some indices with leading zeros
DATA_LINE = st.tuples(
    st.integers(0, 2).map(" ".__mul__), NUMBER_TEXT,
    st.lists(st.tuples(st.integers(1, 3).map(" ".__mul__), FEATURE), max_size=12),
    st.one_of(st.just(""), COMMENT_TEXT.map(" #".__add__), COMMENT_TEXT.map("#".__add__)),
).map(lambda t: t[0] + t[1] + "".join(sep + tok for sep, tok in t[2]) + t[3])
OTHER_LINE = st.one_of(st.integers(0, 3).map(" ".__mul__),
                       COMMENT_TEXT.map("#".__add__), COMMENT_TEXT.map("  # ".__add__))
LINE_END = st.sampled_from(["\n", "\r\n"])
ANY_LINE = st.tuples(st.one_of(DATA_LINE, DATA_LINE, OTHER_LINE), LINE_END)


@given(head=st.lists(ANY_LINE, max_size=12), data_line=st.tuples(DATA_LINE, LINE_END),
       tail=st.lists(ANY_LINE, max_size=12), last_newline=st.booleans(),
       chunk=st.integers(16, 48))
@settings(max_examples=150, deadline=None)
def test_byte_parse_is_the_per_token_parse_across_chunk_boundaries(
        tmp_path_factory, head, data_line, tail, last_newline, chunk):
    """Reads of a few dozen bytes split lines between chunks, and some lines
    span several; any well-formed file still parses bit for bit as the
    per-token parse does, on the byte path."""
    text = "".join(line + end for line, end in [*head, data_line, *tail])
    if not last_newline:
        text = text.rstrip("\r\n")
    path = tmp_path_factory.getbasetemp() / "chunked.svm"
    path.write_bytes(text.encode())
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(data_module, "_CHUNK_BYTES", chunk)
        assert same_parse(data_module._parse_bytes(path), data_module._parse_tokens(path))


@pytest.mark.parametrize("text", ["1 1:2\t3:4\n", "1 1:2 3:4\r\n0 2:1\r\n", "1 2:1:3 4\n",
                                  "1 2:1  3:4\n", "0 1:2 :3\n", "1 0:1\n",
                                  "0 99999999999999999999:1\n", "1 00000000000000000003:2\n",
                                  "1 +3:2\n", "1 1:2\r0 3:4\n", "1 1:2\u00a03:4\n",
                                  "1 3:\n", "1 1:2 x\n", "1:1 2:3\n"])
def test_load_agrees_with_the_per_token_parse_on_odd_lines(tmp_path, text):
    """Tabs, CRLF, a lone CR, non-ASCII space, runs of spaces, signed, long
    and overflowing indices and malformed tokens: the same arrays, or the
    same error at the same line, as the per-token parse."""
    path = tmp_path / "odd.svm"
    path.write_text(text)
    try:
        expected = data_module._parse_tokens(path)
    except DataFormatError as exc:
        with pytest.raises(DataFormatError) as err:
            load_dataset(path)
        assert str(err.value) == str(exc)
        return
    ds = load_dataset(path)
    np.testing.assert_array_equal(ds.labels, expected[0])
    np.testing.assert_array_equal(ds.features, dense_parse(path))


def test_sparse_load_never_allocates_the_dense_matrix(tmp_path):
    """Nor does it hold the whole file's tokens: the parse reads bounded
    chunks, so the peak stays within a few times the arrays returned."""
    n, p = 20_000, 500
    path = tmp_path / "big.svm"
    save_dataset(sparse_logistic(n, p, 0.01, seed=13), path)
    tracemalloc.start()
    try:
        ds = load_dataset(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert ds.storage == "sparse"
    assert peak < n * p * 8 / 4
    a = ds.features
    returned = a.data.nbytes + a.indices.nbytes + a.indptr.nbytes + ds.labels.nbytes
    assert peak <= 3 * returned


def test_csr_round_trip_stays_csr(sparse_file, tmp_path):
    ds = load_dataset(sparse_file)
    path = tmp_path / "rt.svm"
    save_dataset(ds, path)
    back = load_dataset(path)
    assert back.storage == "sparse"
    np.testing.assert_array_equal(back.features.toarray(), ds.features.toarray())
    np.testing.assert_array_equal(back.labels, ds.labels)
    assert path.read_bytes() == sparse_file.read_bytes()


def test_gram_condition_agrees_between_storages(sparse_file):
    ds = load_dataset(sparse_file)
    dense = Dataset(features=ds.features.toarray(), labels=ds.labels)
    assert measure_gram_condition(ds) == pytest.approx(measure_gram_condition(dense),
                                                       rel=1e-10)


def test_spectral_solve_on_csr_matches_dense_storage(sparse_file):
    ds = load_dataset(sparse_file)
    dense = Dataset(features=ds.features.toarray(), labels=ds.labels)
    config = SolverConfig(variant="ssn-spectral", sample_frac_h=0.05, lambda_user=1e-3,
                          seed=5)
    traces = [run(ObjectiveModel(d, "logistic", reg=1e-6), config, np.zeros(ds.p))
              for d in (ds, dense)]
    assert traces[0].stop == traces[1].stop == "GradTol"
    assert traces[0].same_iterates(traces[1])
