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

    svmlight features are parsed straight into CSR (column indices sorted,
    a repeated index on a line keeps its last value) and stay CSR when at
    most ``SPARSE_MAX_DENSITY`` of the n x p entries are stored; denser
    files load as a dense array.  csv always loads dense.
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
        labels, cols, vals, indptr = _parse_lines(path)
    except (ValueError, OverflowError):
        # not well formed for the per-line parse: the per-token one raises
        # the error (and line number) its rules give
        labels, cols, vals, indptr = _parse_tokens(path)
    n = labels.size
    p = int(cols.max()) + 1 if cols.size else 0
    if cols.size <= SPARSE_MAX_DENSITY * n * p:
        a = sp.csr_matrix((vals, cols, indptr), shape=(n, p))
    else:
        # scattered, not CSR.toarray(), which would turn a stored -0.0 into 0.0
        a = np.zeros((n, p))
        a[np.repeat(np.arange(n), np.diff(indptr)), cols] = vals
    return Dataset(features=a, labels=labels)


# every byte but the two separators of "idx:val idx:val ...", and the ASCII
# whitespace other than a space, which sends a file to the per-token parse
_NOT_SEPARATOR = bytes(b for b in range(256) if b not in b": ")
_OTHER_SPACE = "\t\n\r\x0b\x0c\x1c\x1d\x1e\x1f"
# lines tokenized per numpy conversion; bounds the strings held at once
_CHUNK_LINES = 8192


def _parse_lines(path):
    """(labels, 0-based columns, values, row pointer) of an svmlight file.

    Each line's label is split off and its features kept as one string; a
    chunk of lines at a time, the feature strings are joined, ":" becomes a
    space, and each column converts in one ``np.array`` call, which follows
    Python's int and float rules.  Columns are then sorted per row, a
    repeated index keeping its last value.  Raises ValueError (or
    OverflowError) unless every feature is one ``idx:val`` token and the
    only whitespace between them is spaces: ``_parse_tokens`` reads any
    other file.
    """
    labels, cols, vals, counts = [], [], [], []
    label_s, feats = [], []

    def convert():
        joined = " ".join(feats)
        if not joined.isascii() or any(c in joined for c in _OTHER_SPACE):
            raise ValueError("not a space-separated ASCII line")
        while "  " in joined:
            joined = joined.replace("  ", " ")
        # separators alternate ":", " ", ..., ":": one colon per token
        colons = joined.count(":")
        if joined and joined.encode().translate(None, _NOT_SEPARATOR) \
                != b": " * (colons - 1) + b":":
            raise ValueError("not one colon per token")
        fields = joined.replace(":", " ").split(" ") if joined else []
        labels.append(np.array(label_s, dtype=float))
        cols.append(np.array(fields[0::2], dtype=np.int64))  # "" raises here
        vals.append(np.array(fields[1::2], dtype=float))
        label_s.clear()
        feats.clear()

    with open(path) as fh:
        for raw in fh:
            parts = raw.split("#", 1)[0].split(None, 1)
            if not parts:
                continue
            label_s.append(parts[0])
            if len(parts) == 2:
                feats.append(parts[1].rstrip())
                counts.append(feats[-1].count(":"))
            else:
                counts.append(0)
            if len(label_s) == _CHUNK_LINES:
                convert()
    if label_s:
        convert()
    if not counts:
        raise ValueError("empty dataset file")
    col = np.concatenate(cols) - 1
    val = np.concatenate(vals)
    if col.size and col.min() < 0:
        raise ValueError("feature index below 1")
    row = np.repeat(np.arange(len(counts)), counts)
    if not np.all((np.diff(col) > 0) | (np.diff(row) > 0)):
        order = np.lexsort((col, row))  # stable: repeats stay in file order
        row, col, val = row[order], col[order], val[order]
        last = np.ones(col.size, dtype=bool)
        last[:-1] = (np.diff(row) > 0) | (np.diff(col) > 0)
        row, col, val = row[last], col[last], val[last]
    indptr = np.zeros(len(counts) + 1, dtype=np.int64)
    np.cumsum(np.bincount(row, minlength=len(counts)), out=indptr[1:])
    return np.concatenate(labels), col, val, indptr


def _parse_tokens(path):
    """``_parse_lines``'s result, one ``int``/``float`` call per token; raises
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
