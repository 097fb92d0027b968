"""Synthetic dataset generation with controlled conditioning, plus file I/O.

The generator shapes the Gram spectrum directly: a random orthonormal basis
is combined with a geometric singular-value ladder so the measured condition
number of (1/n) A'A lands on the requested target.  Labels come from a
planted coefficient vector through the family's inverse link plus noise.

Supported file formats: svmlight-style text (``label idx:val ...`` with
1-based indices) and dense CSV (``b,a_1,...,a_p``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np
import scipy.sparse as sp

from .model import EXP_CLAMP, FAMILIES, Dataset, _row_blocks, weighted_gram

# An svmlight file whose stored fraction nnz/(n*p) is at most this loads as
# CSR, otherwise dense.  Measured at 20000 x 500 with one BLAS thread, CSR
# against dense: A x takes 0.36 vs 6.5 ms at 1%, 0.91 vs 5.8 ms at 10% and
# 3.1 vs 6.8 ms at 20%; a sampled Gram (|S| = 1000) 1.2 vs 17, 16.5 vs 12.1
# and 34 vs 16 ms.  A Newton step's one sampled Gram and three full-data
# products still favour CSR at 10% (19 vs 30 ms) but dense at 20% (43 vs
# 36 ms).
SPARSE_MAX_DENSITY = 0.1

# standard deviation of the Gaussian noise on synthetic ridge labels
RIDGE_NOISE = 0.1


class DataFormatError(ValueError):
    """Malformed dataset file; carries the offending line number."""

    def __init__(self, path, line_no, message):
        super().__init__(f"{path}:{line_no}: {message}")
        self.line_no = line_no


@dataclass(frozen=True)
class SyntheticMeta:
    """Generation record: the planted coefficients the labels were drawn
    from, and the measured Gram condition number, computed from the dataset
    on first read (a caller that never reads it forms no Gram)."""

    planted_coefficients: np.ndarray
    dataset: Dataset = field(repr=False)

    @cached_property
    def condition_measured(self) -> float:
        return measure_gram_condition(self.dataset)


def generate_synthetic(
    n: int,
    p: int,
    *,
    condition_target: float = 1.0,
    family: str = "logistic",
    seed: int = 0,
    signal_norm: float = 3.0,
    signal_direction: str = "random",
) -> tuple[Dataset, SyntheticMeta]:
    """Draw an (n, p) design with Gram condition number close to the target.

    A Gaussian matrix supplies the singular vectors; its singular values are
    replaced by a geometric ladder spanning sqrt(condition_target), which
    pins the Gram spectrum.  The Gaussian is drawn a row block at a time
    straight into Fortran order, and u is scaled in its one C-order copy, so
    on a tall design (n >> p) generation peaks, in gesdd, at about twice the
    bytes of the n x p design it returns; nearer n = p, gesdd's O(p^2)
    workspace adds a few designs' worth.
    Labels: ridge adds N(0, RIDGE_NOISE) to the planted response, logistic
    draws Bernoulli from the planted probabilities, Poisson draws exact
    counts.  Fixed seeds reproduce the dataset byte-for-byte under a fixed
    BLAS build and thread count; the SVD and products may round differently
    under another.

    ``signal_direction="random"`` plants coefficients uniformly (scaled to
    ``signal_norm``); ``"weak"`` plants them on the lowest-curvature half of
    the design and rescales so the margins a_i'x* have standard deviation
    ``signal_norm``, which concentrates the objective gap in the directions
    first-order methods resolve slowest (the hard-benchmark profile).
    """
    if family not in FAMILIES:
        raise ValueError(f"unknown family {family!r}")
    if not (p >= 1 and n >= p):
        raise ValueError(f"need n >= p >= 1, got n={n}, p={p}")
    if condition_target < 1:
        raise ValueError("condition target must be >= 1")
    if signal_direction not in ("random", "weak"):
        raise ValueError(f"unknown signal direction {signal_direction!r}")

    # imported here, not with the module: loading scipy.linalg ahead of
    # scipy.sparse moved the heap layout enough to raise the sparse-spectral
    # benchmark's peak RSS by about 0.3 MiB, a workload that never generates
    import scipy.linalg

    rng = np.random.default_rng(seed)
    # at most two n x p arrays live at once: z is drawn in C-order row
    # blocks straight into Fortran order (the stream is sequential, so the
    # values are those of one (n, p) draw), gesdd factors it in place, and u
    # is scaled during its one copy to C order.  u and vt go to C order,
    # which fixes how u @ vt rounds: with u in Fortran order the last bits
    # differ.
    z = np.empty((n, p), order="F")
    for _, z_b in _row_blocks(z):
        z_b[...] = rng.standard_normal(z_b.shape)
    u, _, vt = scipy.linalg.svd(z, full_matrices=False, overwrite_a=True,
                                check_finite=False)
    del z, z_b  # the last block is a view that would keep z alive
    u = np.multiply(u, np.geomspace(1.0, 1.0 / math.sqrt(condition_target), num=p),
                    order="C")
    vt = np.ascontiguousarray(vt)
    u *= math.sqrt(n)
    a = u @ vt
    del u

    if signal_direction == "weak":
        weights = rng.standard_normal(p - p // 2)
        x_star = vt[p // 2:].T @ weights
        margins = a @ x_star
        x_star *= signal_norm / max(float(np.std(margins)), 1e-30)
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
        rates = np.exp(np.clip(t, -EXP_CLAMP, 20.0))  # keep counts desk-sized
        b = rng.poisson(rates).astype(float)

    dataset = Dataset(features=a, labels=b)
    return dataset, SyntheticMeta(planted_coefficients=x_star, dataset=dataset)


def measure_gram_condition(dataset: Dataset) -> float:
    """Condition number of (1/n) A'A via a direct eigensolve."""
    eigs = np.linalg.eigvalsh(weighted_gram(dataset.features) / dataset.n)
    lo, hi = float(eigs[0]), float(eigs[-1])
    return math.inf if lo <= 0 else hi / lo


# -- file ingestion ---------------------------------------------------------


def load_dataset(path, fmt: str = "svmlight") -> Dataset:
    """Parse a dataset file; p is the maximum feature index seen (svmlight)
    or the column count (csv).  Errors report 1-based line numbers.

    An svmlight file is parsed from its bytes, ``_CHUNK_BYTES`` at a time
    cut at line ends, with numpy finding the tokens and decoding the
    indices and Python's ``float`` converting labels and values; a file
    with other bytes than printable ASCII, spaces and "\\n" or "\\r\\n" line
    ends, or a malformed one, is read token by token, which gives the error
    and its line number.  Features go straight into CSR (column indices
    sorted, a repeated index on a line keeps its last value) and stay CSR
    when at most ``SPARSE_MAX_DENSITY`` of the n x p entries are stored;
    denser files load as a dense array.  csv always loads dense.
    """
    if fmt == "svmlight":
        return _load_svmlight(path)
    if fmt == "csv":
        return _load_csv(path)
    raise ValueError(f"unknown format {fmt!r}; use 'svmlight' or 'csv'")


def save_dataset(dataset: Dataset, path, fmt: str = "svmlight") -> None:
    """Write a dataset as svmlight (zero entries skipped) or csv; ``repr``
    keeps every float exact on re-read.  Sparse features are written row by
    row, without a dense n x p copy."""
    b = dataset.labels
    with open(path, "w") as fh:
        if fmt == "svmlight":
            a = sp.csr_matrix(dataset.features)
            for i in range(dataset.n):
                lo, hi = a.indptr[i], a.indptr[i + 1]
                feats = " ".join(
                    f"{j + 1}:{v!r}"
                    for j, v in zip(a.indices[lo:hi].tolist(), a.data[lo:hi].tolist())
                    if v != 0.0
                )
                fh.write(f"{float(b[i])!r} {feats}".rstrip() + "\n")
        elif fmt == "csv":
            for i in range(dataset.n):
                row = dataset.rows_dense(i).ravel()
                fh.write(",".join(repr(float(v)) for v in (b[i], *row)) + "\n")
        else:
            raise ValueError(f"unknown format {fmt!r}")


def _load_svmlight(path) -> Dataset:
    # straight into CSR arrays; only a file that loads dense gets an n x p array
    try:
        labels, cols, vals, indptr = _parse_bytes(path)
    except ValueError:
        # not well formed for the byte parse: the per-token one raises the
        # error (and line number) its rules give
        labels, cols, vals, indptr = _parse_tokens(path)
    n = labels.size
    p = int(cols.max()) + 1 if cols.size else 0
    if cols.size <= SPARSE_MAX_DENSITY * n * p:
        a = sp.csr_matrix((vals, cols, indptr), shape=(n, p))
    else:
        # scattered, not CSR.toarray(), which would turn a stored -0.0 into 0.0
        a = np.zeros((n, p))
        a[np.repeat(np.arange(n), np.diff(indptr)), cols] = vals
    del cols, vals, indptr  # Dataset copies a: none of these need outlive it
    return Dataset(features=a, labels=labels)


# bytes read per pass of the byte parse, each read then cut after its last
# newline.  On the 2.28 MiB, 20000-line benchmark file (2-core x86 box, one
# thread, interleaved medians of 21), 16, 64, 256 and 1024 KiB reads parse in
# 67, 49, 49 and 56 ms (a per-line str.split loop: 75 ms), and peak at 2.6,
# 2.6, 4.8 and 13.7 MiB of tracemalloc'd memory.
_CHUNK_BYTES = 1 << 16
# the largest feature index a column array holds, and the most digits the
# byte parse decodes (10**18 - 1 < 2**63 - 1); a longer index goes through int
_INDEX_MAX = int(np.iinfo(np.int64).max)
_INDEX_DIGITS = 18


def _parse_bytes(path):
    """(labels, 0-based columns, values, row pointer) of an svmlight file.

    The file is read ``_CHUNK_BYTES`` at a time, each read cut after its last
    newline (a longer line waits for the reads that complete it), and
    ``_parse_block`` parses each run of whole lines with numpy.  Raises
    ValueError unless every byte is printable ASCII, a space or a line end
    ("\\n" or "\\r\\n"), every feature is one ``idx:val`` token whose index
    is 1 to ``_INDEX_DIGITS`` plain digits, and every label and value is a
    Python float: ``_parse_tokens`` reads any other file.
    """
    parts = ([], [], [], [])  # each block's labels, columns, values, row counts
    pending = []
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(_CHUNK_BYTES), b""):
            cut = chunk.rfind(b"\n") + 1
            if cut:
                pending.append(chunk[:cut])
                _parse_block(b"".join(pending), parts)
                pending = [chunk[cut:]]
            else:
                pending.append(chunk)
    if any(pending):  # a last line with no newline
        _parse_block(b"".join(pending) + b"\n", parts)
    if not parts[0]:
        raise ValueError("empty dataset file")
    # one field at a time, each dropping its blocks' arrays once joined
    joined = []
    for arrays in parts:
        joined.append(np.concatenate(arrays))
        arrays.clear()
    labels, cols, vals, counts = joined
    indptr = np.zeros(labels.size + 1, dtype=np.int64)
    np.cumsum(counts, out=indptr[1:])
    return labels, cols, vals, indptr


def _parse_block(buf, parts):
    """Append the rows of ``buf``, whole lines ending in "\\n", to ``parts``.

    Tokens are the runs of bytes above the space after each line's "#"
    comment is blanked; a line's first token is its label.  Numpy finds
    the tokens, checks that each feature holds one colon and decodes its
    digits; the labels and values, with indices and colons blanked, go
    through one ``bytes.split`` and Python's ``float``.  Columns are then
    sorted per row, a repeated index keeping its last value.
    """
    b = np.frombuffer(buf, dtype=np.uint8)
    # below the space only line ends: "\n", or "\r" just before one
    ctrl = np.flatnonzero(b < 32)
    newline = b[ctrl] == 10
    cr = ctrl[~newline]
    if b.max() > 126 or np.any(b[cr] != 13) or np.any(b[cr + 1] != 10):
        raise ValueError("not a printable ASCII line")
    line_ends = ctrl[newline]
    hashes = np.flatnonzero(b == 35)
    if hashes.size:
        # blank from each line's first "#" to its end
        ends = line_ends[np.searchsorted(line_ends, hashes)]
        first = np.ones(hashes.size, dtype=bool)
        first[1:] = ends[1:] != ends[:-1]
        step = np.zeros(b.size + 1, dtype=np.int8)
        step[hashes[first]] = 1
        step[ends[first]] = -1
        b = b.copy()
        b[np.cumsum(step[:-1], dtype=np.int8).view(bool)] = 32
    space = np.ones(b.size + 2, dtype=bool)
    np.less_equal(b, 32, out=space[1:-1])
    edges = np.flatnonzero(space[1:] != space[:-1])
    starts, stops = edges[0::2], edges[1::2]
    if not starts.size:
        return
    label = np.ones(starts.size, dtype=bool)
    line = np.searchsorted(line_ends, starts)
    np.not_equal(line[1:], line[:-1], out=label[1:])
    feats = np.flatnonzero(~label)
    begin = starts[feats]
    # one colon per feature and none in a label: the k-th colon falls in
    # the k-th feature, with an index before it and a value after it
    colons = np.flatnonzero(b == 58)
    if colons.size != feats.size or not np.all(
            (begin < colons) & (colons < stops[feats] - 1)
            & (colons - begin <= _INDEX_DIGITS)):
        raise ValueError("not one idx:val token per feature")
    # decode the indices a digit place at a time, blanking each digit (and
    # at last the colon) so that only labels and values are left to split
    text = b.copy()
    index = np.zeros(feats.size, dtype=np.int64)
    for k in range(int((colons - begin).max(initial=0)) + 1):
        at = np.minimum(begin + k, colons)
        digit = b[at] - np.uint8(48)
        inside = at < colons
        if np.any(inside & (digit > 9)):
            raise ValueError("index not plain digits")
        index = np.where(inside, 10 * index + digit, index)
        text[at] = 32
    if index.size and index.min() < 1:
        raise ValueError("feature index below 1")
    tokens = text.tobytes().split()
    numbers = np.fromiter(map(float, tokens), dtype=np.float64, count=len(tokens))
    col, val = index - 1, numbers[feats]
    row = np.cumsum(label)[feats] - 1
    if not np.all((np.diff(col) > 0) | (np.diff(row) > 0)):
        order = np.lexsort((col, row))  # stable: repeats stay in file order
        row, col, val = row[order], col[order], val[order]
        last = np.ones(col.size, dtype=bool)
        last[:-1] = (np.diff(row) > 0) | (np.diff(col) > 0)
        row, col, val = row[last], col[last], val[last]
    labels = numbers[label]
    for part, arr in zip(parts, (labels, col, val, np.bincount(row, minlength=labels.size))):
        part.append(arr)


def _parse_tokens(path):
    """``_parse_bytes``'s result, one ``int``/``float`` call per token; raises
    ``DataFormatError`` at the first malformed line."""
    labels: list[float] = []
    indptr, indices, values = [0], [], []
    with open(path) as fh:
        for line_no, raw in enumerate(fh, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            parts = line.split()
            try:
                labels.append(float(parts[0]))
            except ValueError:
                raise DataFormatError(path, line_no, f"bad label {parts[0]!r}") from None
            entries: dict[int, float] = {}
            for tok in parts[1:]:
                try:
                    idx_s, val_s = tok.split(":", 1)
                    idx, val = int(idx_s), float(val_s)
                except ValueError:
                    raise DataFormatError(path, line_no, f"bad feature token {tok!r}") from None
                if idx < 1:
                    raise DataFormatError(path, line_no, f"feature index {idx} must be >= 1")
                if idx > _INDEX_MAX:
                    raise DataFormatError(path, line_no,
                                          f"feature index {idx} exceeds {_INDEX_MAX}")
                entries[idx] = val  # a repeated index keeps its last value
            keys = sorted(entries)
            indices.extend(keys)
            values.extend(map(entries.__getitem__, keys))
            indptr.append(len(indices))
    if not labels:
        raise DataFormatError(path, 0, "empty dataset file")
    return (np.array(labels), np.array(indices, dtype=np.int64) - 1,
            np.array(values, dtype=float), np.array(indptr))


def _load_csv(path) -> Dataset:
    labels: list[float] = []
    rows: list[list[float]] = []
    width = None
    with open(path) as fh:
        for line_no, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line:
                continue
            parts = line.split(",")
            if len(parts) < 2:
                raise DataFormatError(path, line_no, "need a label and at least one feature")
            try:
                vals = [float(v) for v in parts]
            except ValueError:
                raise DataFormatError(path, line_no, f"non-numeric field in {line!r}") from None
            if width is None:
                width = len(vals)
            elif len(vals) != width:
                raise DataFormatError(
                    path, line_no, f"row has {len(vals)} fields, expected {width}"
                )
            labels.append(vals[0])
            rows.append(vals[1:])
    if not rows:
        raise DataFormatError(path, 0, "empty dataset file")
    return Dataset(features=np.array(rows), labels=np.array(labels))
