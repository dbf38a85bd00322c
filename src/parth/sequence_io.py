"""Sequence ingestion: Matrix Market patterns, node maps, and manifests.

Manifests are line-delimited (`matrix=<path>[;map=<path>][;label=<str>]`)
so long sequences stream without a full parse; referenced files are only
opened when their step is loaded. Node maps are one integer per line,
-1 marking an added node.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import AsymmetricPattern, InvalidMap, ParseError
from .graph import NodeMap, SparsityPattern, is_structurally_symmetric, sum_duplicates


@dataclass(frozen=True)
class SequenceStep:
    matrix_path: Path
    map_path: Path | None = None
    label: str = ""


def read_matrix_market(path) -> tuple[SparsityPattern, np.ndarray | None]:
    """Read a coordinate-format file; returns (pattern, values or None).

    Symmetric files are expanded to full storage; general files must pass a
    structural symmetry check. Entries are deduplicated (values summed).
    """
    path = Path(path)
    with open(path, "r", encoding="utf-8") as fh:
        lines = fh.readlines()
    if not lines:
        raise ParseError("empty file", path, 1)
    header = lines[0].split()
    if len(header) < 5 or header[0] != "%%MatrixMarket":
        raise ParseError("missing %%MatrixMarket header", path, 1)
    obj, fmt, field, symmetry = (tok.lower() for tok in header[1:5])
    if obj != "matrix" or fmt != "coordinate":
        raise ParseError(f"unsupported object/format {obj!r}/{fmt!r}", path, 1)
    if field not in ("pattern", "real", "integer", "double"):
        raise ParseError(f"unsupported field {field!r}", path, 1)
    if symmetry not in ("symmetric", "general"):
        raise ParseError(f"unsupported symmetry {symmetry!r}", path, 1)
    has_values = field != "pattern"

    body = [
        (no, ln.strip())
        for no, ln in enumerate(lines[1:], start=2)
        if ln.strip() and not ln.lstrip().startswith("%")
    ]
    if not body:
        raise ParseError("missing size line", path, len(lines))
    size_no, size_line = body[0]
    toks = size_line.split()
    if len(toks) != 3:
        raise ParseError("size line must be 'rows cols nnz'", path, size_no)
    try:
        m, n, nnz = (int(t) for t in toks)
    except ValueError:
        raise ParseError("non-integer size line", path, size_no) from None
    if min(m, n, nnz) < 0:
        raise ParseError(f"negative size in size line {size_line!r}", path, size_no)
    if m != n:
        raise ParseError(f"matrix must be square, got {m}x{n}", path, size_no)
    entries = body[1:]
    if len(entries) != nnz:
        raise ParseError(f"expected {nnz} entries, found {len(entries)}", path, size_no)

    want = 3 if has_values else 2
    rows = np.empty(nnz, dtype=np.int64)
    cols = np.empty(nnz, dtype=np.int64)
    vals = np.empty(nnz, dtype=np.float64) if has_values else None
    for k, (no, ln) in enumerate(entries):
        toks = ln.split()
        if len(toks) != want:
            raise ParseError(f"expected {want} tokens, found {len(toks)}", path, no)
        try:
            i, j = int(toks[0]), int(toks[1])
            if has_values:
                vals[k] = float(toks[2])
        except ValueError:
            raise ParseError("malformed entry", path, no) from None
        if not (1 <= i <= n and 1 <= j <= n):
            raise ParseError(f"index ({i}, {j}) outside [1, {n}]", path, no)
        rows[k], cols[k] = i - 1, j - 1

    if symmetry == "symmetric":
        off = rows != cols
        mr, mc = cols[off], rows[off]
        rows = np.concatenate([rows, mr])
        cols = np.concatenate([cols, mc])
        if has_values:
            vals = np.concatenate([vals, vals[off]])

    pattern, out_vals = sum_duplicates(n, rows, cols, vals)

    if symmetry == "general" and not is_structurally_symmetric(pattern):
        raise AsymmetricPattern(f"{path}: general matrix is not structurally symmetric")
    return pattern, out_vals


def write_matrix_market(path, pattern: SparsityPattern, values: np.ndarray | None = None) -> None:
    """Write the lower triangle of a symmetric pattern in coordinate format."""
    path = Path(path)
    rows, cols = pattern.to_coo()
    keep = rows >= cols
    rows, cols = rows[keep], cols[keep]
    field = "pattern" if values is None else "real"
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"%%MatrixMarket matrix coordinate {field} symmetric\n")
        fh.write(f"{pattern.n_rows} {pattern.n_rows} {rows.size}\n")
        if values is None:
            for i, j in zip(rows, cols):
                fh.write(f"{i + 1} {j + 1}\n")
        else:
            vals = np.asarray(values, dtype=np.float64)[keep]
            for i, j, v in zip(rows, cols, vals):
                fh.write(f"{i + 1} {j + 1} {float(v)!r}\n")


def read_node_map(path, n_new: int, n_old: int) -> NodeMap:
    """Read a one-integer-per-line node map and validate it."""
    path = Path(path)
    entries = []
    with open(path, "r", encoding="utf-8") as fh:
        for no, ln in enumerate(fh, start=1):
            ln = ln.strip()
            if not ln or ln.startswith("#"):
                continue
            try:
                entries.append(int(ln))
            except ValueError:
                raise ParseError(f"not an integer: {ln!r}", path, no) from None
    if len(entries) != n_new:
        raise InvalidMap(f"{path}: map has {len(entries)} lines, expected {n_new}")
    node_map = NodeMap(np.array(entries, dtype=np.int64))
    node_map.validate(n_old)
    return node_map


def write_node_map(path, node_map: NodeMap) -> None:
    with open(Path(path), "w", encoding="utf-8") as fh:
        for e in node_map.entries:
            fh.write(f"{int(e)}\n")


def read_manifest(path) -> list[SequenceStep]:
    """Parse a manifest; paths resolve relative to the manifest's directory."""
    path = Path(path)
    base = path.parent
    steps = []
    with open(path, "r", encoding="utf-8") as fh:
        for no, ln in enumerate(fh, start=1):
            ln = ln.strip()
            if not ln or ln.startswith("#"):
                continue
            fields = {}
            for part in ln.split(";"):
                if "=" not in part:
                    raise ParseError(f"expected key=value, got {part!r}", path, no)
                key, value = part.split("=", 1)
                key, value = key.strip(), value.strip()
                if key not in ("matrix", "map", "label"):
                    raise ParseError(f"unknown key {key!r}", path, no)
                if key in fields:
                    raise ParseError(f"duplicate key {key!r}", path, no)
                fields[key] = value
            if "matrix" not in fields:
                raise ParseError("missing matrix=<path>", path, no)
            steps.append(
                SequenceStep(
                    matrix_path=base / fields["matrix"],
                    map_path=(base / fields["map"]) if "map" in fields else None,
                    label=fields.get("label", ""),
                )
            )
    return steps


def write_manifest(path, steps: list[SequenceStep]) -> None:
    """Write steps with paths made relative to the manifest's directory."""
    path = Path(path)
    with open(path, "w", encoding="utf-8") as fh:
        for stp in steps:
            parts = [f"matrix={Path(stp.matrix_path).name}"]
            if stp.map_path is not None:
                parts.append(f"map={Path(stp.map_path).name}")
            if stp.label:
                parts.append(f"label={stp.label}")
            fh.write(";".join(parts) + "\n")
