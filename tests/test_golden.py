"""Bit-identity guard: permutations of a fixed 48x48 step sequence.

The digests below were recorded from the implementation before the
per-step fast paths (sorted edge diff, single node-map validation, trusted
internal graph construction) went in. Any change to them means the
ordering output moved, which those optimisations must never do. The one
exception is the full-relabel step, re-recorded when relabelling stopped
re-sorting node sets under their stored orderings.
"""

import hashlib

import numpy as np

from parth import NodeMap, Parth, ParthConfig, SparsityPattern, grid_laplacian, inject_contacts, patch_remesh
from parth.synthetic import radius_for_fraction

GRID = 48


def _digest(perm: np.ndarray) -> str:
    return hashlib.sha256(np.ascontiguousarray(perm, dtype="<i8").tobytes()).hexdigest()


def _expand(pattern: SparsityPattern, dim: int) -> SparsityPattern:
    rows, cols = pattern.to_coo()
    offs = np.arange(dim, dtype=np.int64)
    big_rows = (rows[:, None, None] * dim + offs[None, :, None]).repeat(dim, axis=2)
    big_cols = (cols[:, None, None] * dim + offs[None, None, :]).repeat(dim, axis=1)
    return SparsityPattern.from_coo(pattern.n_rows * dim, big_rows.ravel(), big_cols.ravel())


def _relabel(pattern: SparsityPattern, rng) -> tuple[SparsityPattern, NodeMap]:
    n = pattern.n_rows
    new_of_old = rng.permutation(n)
    rows, cols = pattern.to_coo()
    entries = np.empty(n, dtype=np.int64)
    entries[new_of_old] = np.arange(n)
    return SparsityPattern.from_coo(n, new_of_old[rows], new_of_old[cols]), NodeMap(entries, n)


def _remesh(pattern: SparsityPattern, rng) -> tuple[SparsityPattern, NodeMap]:
    center = int(rng.integers(pattern.n_rows))
    radius = radius_for_fraction(pattern, center, 0.02)
    return patch_remesh(pattern, center, radius, 1.2, int(rng.integers(2**31)))


def _contacts(pattern: SparsityPattern, rng) -> SparsityPattern:
    return inject_contacts(pattern, int(rng.integers(pattern.n_rows)), 5, 16, int(rng.integers(2**31)))


def _step(parth: Parth, pattern: SparsityPattern, node_map: NodeMap | None = None) -> str:
    """One step, audited: the tree partitions the graph, `owner` agrees, separators hold."""
    perm = parth.step(pattern, node_map)[1].matrix_perm
    parth.tree.validate_partition(parth.graph.n_nodes)
    assert parth.tree.separator_violations(parth.graph) == []
    return _digest(perm)


def golden_digests() -> list[str]:
    rng = np.random.default_rng(2024)
    base, _ = grid_laplacian(GRID, GRID)
    out = []

    # aggressive reuse over accumulating contacts, a no-op, then a rollback
    parth = Parth(ParthConfig(aggressive=True, theta=0.4))
    parth.start(base)
    pattern = base
    history = []
    for _ in range(5):
        history.append(pattern)
        pattern = _contacts(pattern, rng)
        out.append(_step(parth, pattern))
    out.append(_step(parth, pattern))
    out.append(_step(parth, history[2]))

    # size-changing remesh steps with node maps, then a full relabel
    parth = Parth(ParthConfig())
    parth.start(base)
    pattern = base
    for _ in range(3):
        pattern, node_map = _remesh(pattern, rng)
        out.append(_step(parth, pattern, node_map))
    pattern, node_map = _relabel(pattern, rng)
    out.append(_step(parth, pattern, node_map))

    # 3x3 blocks: contacts, remesh with a node map, no-op
    parth = Parth(ParthConfig(dim=3))
    parth.start(_expand(base, 3))
    pattern = _contacts(base, rng)
    out.append(_step(parth, _expand(pattern, 3)))
    pattern, node_map = _remesh(pattern, rng)
    expanded = _expand(pattern, 3)
    out.append(_step(parth, expanded, node_map))
    out.append(_step(parth, expanded))
    return out


GOLDEN = [
    "0ddff9da449872952887fd7d4e55ade62410e6629c160d556f547266978db274",
    "2cc74011d8d7218daf87b7bd5b67cd66126b93f016bd8353b8cbecfc8cb6b906",
    "58d99a2da7854a196e9df6f1a2b7250f155a23763b850be46051fe6ae12e6488",
    "6a176b127e1bd7b06e1b613089ca9102962c7a9d9812a5073608383ff4cbc99c",
    "0a4918600164df9d5a118436879de06225f1200e993f85bfbf17aedb2590e445",
    "0a4918600164df9d5a118436879de06225f1200e993f85bfbf17aedb2590e445",
    "268726a783c56f57764d27735c0557f59757813175dd8547114066eb8c855010",
    "ff9bfb20f814dcf53ef52b1430bbd08cd85008c402c7f5f2bd3509de15dce281",
    "758bba534cc997c972f4f3eb60f3ec498c95620fc69a718299c5f19caf90580b",
    "45526a607df38c9a31c6dd39641a2dab7203482964dd7d24b551e51a938fc1d2",
    # the full relabel, re-recorded (see the module docstring)
    "c271bac8e66abf68969da3341be6967ecbe211046fe46e6a97d5478ba7101e55",
    "2d6c210ce1a1c068e42a5da44aa66f393641bb52467075d0623d0cedd73f7bee",
    "1d54245c7c3133f090e3e1892c5f59624ade0e2200cc71e38fab655db5c8bb87",
    "1d54245c7c3133f090e3e1892c5f59624ade0e2200cc71e38fab655db5c8bb87",
]


def test_golden_sequence_is_bit_identical():
    assert golden_digests() == GOLDEN


def _striped_with_isolated(grid: int, n_isolated: int) -> SparsityPattern:
    """Grid with stripes of removed edges, plus isolated nodes, relabelled.

    Every 8th row of vertical edges is cut, fully in one half of the stripes
    and with a gap every 16 columns in the other, so the graph splits into
    several components of different sizes; the isolated nodes and a seeded
    relabelling spread those components over the whole index range.
    """
    base, _ = grid_laplacian(grid, grid)
    rows, cols = base.to_coo()
    lo, hi = np.minimum(rows, cols), np.maximum(rows, cols)
    vertical = hi - lo == grid
    stripe = (lo // grid) % 8 == 7
    gap = ((lo // grid) % 16 == 15) & (lo % grid % 16 == 0)
    keep = ~(vertical & stripe & ~gap)
    n = grid * grid + n_isolated
    perm = np.random.default_rng(4096).permutation(n)
    diag = np.arange(n, dtype=np.int64)
    return SparsityPattern.from_coo(
        n,
        perm[np.concatenate([rows[keep], diag])],
        perm[np.concatenate([cols[keep], diag])],
    )


def start_digests() -> list[str]:
    grid, _ = grid_laplacian(64, 64)
    striped = _striped_with_isolated(64, 500)
    blocks, _ = grid_laplacian(32, 32)
    big, _ = grid_laplacian(128, 128)
    return [
        _digest(Parth().start(grid).matrix_perm),
        _digest(Parth().start(striped).matrix_perm),
        _digest(Parth(ParthConfig(target_leaf=32)).start(striped).matrix_perm),
        _digest(Parth(ParthConfig(dim=3)).start(_expand(blocks, 3)).matrix_perm),
        # every level of this 16 384-node start searches with numpy
        # (`graph._LIST_BFS_MAX`); the starts above and the 48x48
        # sequence, all below that size, search with Python lists
        _digest(Parth().start(big).matrix_perm),
    ]


# recorded before the vectorized BFS, component labelling and level scoring
# of the separator went in, and the last one before the list kernels for
# small graphs; `start` must reproduce them bit for bit
START_GOLDEN = [
    "d01288773fd7b3ecda2f4da4bd288bff1f71927a5bd5524456490e20023a6f72",
    "13b87ef27d717895fd876afd540f45f837c9539e2a01ada87007fb65d6ae63c8",
    "6ce92deb4a2b866d1066cc0a280941cff99c55424c3e4054bf51787730a959d6",
    "d1b0a30331f977e9e8d38711e7c64c50a2519f1fea71bac5b2beeba740e83fc4",
    "1275881be29fbdd640f08bbe4d12b85654e1ee331f1a667954d5ea70fecce60c",
]


def test_start_is_bit_identical():
    assert start_digests() == START_GOLDEN
