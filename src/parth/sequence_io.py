"""Sequence ingestion: Matrix Market patterns, node maps, and manifests.

Manifests are line-delimited (`matrix=<path>[;map=<path>][;label=<str>]`)
so long sequences stream without a full parse; referenced files are only
opened when their step is loaded. Node maps are one integer per line,
-1 marking an added node.
"""

from __future__ import annotations

import os
import warnings
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import AsymmetricPattern, InvalidMap, ParseError
from .graph import MAX_ROWS, NodeMap, SparsityPattern, is_structurally_symmetric, sum_duplicates


@dataclass(frozen=True)
class SequenceStep:
    matrix_path: Path
    map_path: Path | None = None
    label: str = ""


def _read_lines(path: Path) -> tuple[str, list[str]]:
    """The file's text (universal newlines) and its lines, split on "\n" only."""
    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read()
    return text, text.split("\n")


def _is_data(line: str, comment: str) -> bool:
    """True unless the line is blank or starts, after blanks, with `comment`."""
    stripped = line.strip()
    return bool(stripped) and not stripped.startswith(comment)


def _load_records(text: str, lines: list[str], first: int, dtype, comment: str):
    """Parse lines[first:] as whitespace-separated records in one C-level pass.

    Skips blank lines and lines that start, after blanks, with `comment`;
    the parse itself knows no comments, so one that follows data on a line,
    which the per-line rules reject, fails it. Returns a structured array
    with one record per remaining line, or None when any record fails to
    parse or has the wrong number of fields; the caller then walks the
    lines to name the one at fault.
    numpy 1.23-1.26 read a field such as "2.5" into int64 by truncation
    with only a DeprecationWarning; that warning is made an error here, so
    such a field fails the parse whatever the process's warning filters.
    """
    body = lines[first:]
    if text.find(comment, sum(len(ln) + 1 for ln in lines[:first])) >= 0:
        body = [ln for ln in body if not ln.lstrip().startswith(comment)]
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)  # a block with no records
        warnings.simplefilter("error", DeprecationWarning)
        try:
            return np.loadtxt(body, dtype=dtype, comments=None, ndmin=1)
        except (ValueError, DeprecationWarning):
            return None


def _number(tok: str, kind):
    """kind(tok), refusing what numpy's parsers refuse and int() or float() accept.

    That is "_" digit grouping and non-ASCII digits, so that this walk and
    the one-pass parse agree on every token.
    """
    if not tok.isascii() or "_" in tok:
        raise ValueError(tok)
    return kind(tok)


def _entry_error(path, lines, size_no, nnz, n, want) -> ParseError:
    """The first fault of the entry block, checked line by line.

    Checks, in order: the entry count (reported at the size line), then
    per line the token count, the numbers themselves and the index range.
    """
    entries = [(no, ln) for no, ln in enumerate(lines[size_no:], start=size_no + 1) if _is_data(ln, "%")]
    if len(entries) != nnz:
        return ParseError(f"expected {nnz} entries, found {len(entries)}", path, size_no)
    for no, ln in entries:
        toks = ln.split()
        if len(toks) != want:
            return ParseError(f"expected {want} tokens, found {len(toks)}", path, no)
        try:
            i, j = _number(toks[0], int), _number(toks[1], int)
            if want == 3:
                _number(toks[2], float)
        except ValueError:
            return ParseError("malformed entry", path, no)
        if not (1 <= i <= n and 1 <= j <= n):
            return ParseError(f"index ({i}, {j}) outside [1, {n}]", path, no)
    return ParseError("malformed entry block", path, size_no)


_PATTERN_ENTRY = np.dtype([("i", np.int64), ("j", np.int64)])
_VALUED_ENTRY = np.dtype([("i", np.int64), ("j", np.int64), ("v", np.float64)])


def read_matrix_market(path) -> tuple[SparsityPattern, np.ndarray | None]:
    """Read a coordinate-format file; returns (pattern, values or None).

    Symmetric files are expanded to full storage; general files must pass a
    structural symmetry check. Entries are deduplicated (values summed).
    The entry block is parsed in one pass and checked as a whole; only
    when a check fails are its lines walked to report the first bad one.
    A size above two rows per declared entry plus 2**20 is refused at the
    size line, before anything of that size is allocated.
    """
    path = Path(path)
    text, lines = _read_lines(path)
    if not text:
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

    size_no = next((no for no in range(2, len(lines) + 1) if _is_data(lines[no - 1], "%")), None)
    if size_no is None:
        raise ParseError("missing size line", path, text.count("\n") + (not text.endswith("\n")))
    size_line = lines[size_no - 1].strip()
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
    if n > MAX_ROWS:
        raise ParseError(f"matrix size {n} exceeds the largest supported, {MAX_ROWS}", path, size_no)
    if n > 2 * nnz + (1 << 20):  # two rows per entry and 2**20 more, or a few bytes would allocate O(n)
        raise ParseError(f"matrix size {n} exceeds what {nnz} entries can back, {2 * nnz + (1 << 20)}", path, size_no)

    want = 3 if has_values else 2
    records = _load_records(text, lines, size_no, _VALUED_ENTRY if has_values else _PATTERN_ENTRY, "%")
    if records is None or records.size != nnz:
        raise _entry_error(path, lines, size_no, nnz, n, want)
    rows, cols = records["i"] - 1, records["j"] - 1
    if nnz and (min(rows.min(), cols.min()) < 0 or max(rows.max(), cols.max()) >= n):
        raise _entry_error(path, lines, size_no, nnz, n, want)
    vals = records["v"] if has_values else None

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
    rows, cols = pattern.to_coo()
    keep = rows >= cols
    rows, cols = (rows[keep] + 1).tolist(), (cols[keep] + 1).tolist()
    if values is None:
        field, entries = "pattern", (f"{i} {j}\n" for i, j in zip(rows, cols))
    else:
        vals = np.asarray(values, dtype=np.float64)[keep].tolist()
        field, entries = "real", (f"{i} {j} {v!r}\n" for i, j, v in zip(rows, cols, vals))
    header = f"%%MatrixMarket matrix coordinate {field} symmetric\n{pattern.n_rows} {pattern.n_rows} {len(rows)}\n"
    with open(Path(path), "w", encoding="utf-8") as fh:
        fh.write(header + "".join(entries))


_MAP_ENTRY = np.dtype([("e", np.int64)])


def read_node_map(path, n_new: int, n_old: int) -> NodeMap:
    """Read a one-integer-per-line node map and validate it.

    Parsed in one pass like the Matrix Market entries; lines are walked
    only to name the first one that is not an integer.
    """
    path = Path(path)
    text, lines = _read_lines(path)
    records = _load_records(text, lines, 0, _MAP_ENTRY, "#")
    if records is None:
        for no, ln in enumerate(lines, start=1):
            if _is_data(ln, "#"):
                try:
                    _number(ln.strip(), int)
                except ValueError:
                    raise ParseError(f"not an integer: {ln.strip()!r}", path, no) from None
        raise ParseError("malformed node map", path)
    if records.size != n_new:
        raise InvalidMap(f"{path}: map has {records.size} lines, expected {n_new}")
    return NodeMap(records["e"], n_old)


def write_node_map(path, node_map: NodeMap) -> None:
    with open(Path(path), "w", encoding="utf-8") as fh:
        fh.write("".join(f"{e}\n" for e in node_map.entries.tolist()))


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

    def rel(p) -> str:
        return Path(os.path.relpath(p, path.parent)).as_posix()

    with open(path, "w", encoding="utf-8") as fh:
        for stp in steps:
            parts = [f"matrix={rel(stp.matrix_path)}"]
            if stp.map_path is not None:
                parts.append(f"map={rel(stp.map_path)}")
            if stp.label:
                parts.append(f"label={stp.label}")
            fh.write(";".join(parts) + "\n")
