"""The row split of a large matrix family's gradient (`problems`).

`problems` imports this module only when it builds an instance whose matrix
has at least `problems._BLOCK_MIN_SIZE` elements, so that smaller runs do
not compile it.

grad_g(x) = W v(x) + c is computed in two blocks of rows: the rows R(x) that
cover x's support, and every other row, T(x) (`row_split`); together they
give grad_g bit for bit. alg2's momentum test reads only the first
(`RowSplit.padded`), and for the quadratic its helper process computes the
second (`QuadraticSplit.tail`).
"""

from __future__ import annotations

import numpy as np

# R(x) pads x's support to a multiple of this many rows (`row_split`)
ROW_PAD = 16


def row_split(support: np.ndarray, n: int):
    """(R, T) for a point with ``support`` of n components: R holds the
    support, and T every other row, both in increasing order.

    GEMV computes the rows of a matrix in groups of four, and the last
    n mod 4 rows on their own, and a row's bits depend on which. So R holds
    the last n mod 4 rows too, and is padded with the first rows off the
    support until its other rows are a positive multiple of `ROW_PAD`.
    Then both blocks and the whole matrix compute every row alike, and the
    blocks' products are the whole product's rows bit for bit, for the
    rows of a C-ordered matrix and for the columns of one used transposed
    (tested on this numpy and BLAS build). An empty support has an empty R;
    where too few rows are left to pad, R is all rows.
    """
    if support.size == 0:
        return support, np.arange(n)
    grouped = n - n % 4
    in_r = np.zeros(n, dtype=bool)
    in_r[support] = True
    in_r[grouped:] = True
    free = np.flatnonzero(~in_r[:grouped])
    held = grouped - free.size
    pad = -held % ROW_PAD if held else ROW_PAD
    if pad > free.size:
        return np.arange(n), support[:0]
    in_r[free[:pad]] = True
    return np.flatnonzero(in_r), np.flatnonzero(~in_r)


class _Blocks:
    """One support's rows (`row_split`) and its two blocks, each gathered
    when first used."""

    __slots__ = ("support", "dense", "rows", "mats")

    def __init__(self, support, n):
        self.support = support
        # more than half nonzero: R is empty and T is every row, whose block
        # is the whole matrix
        self.dense = 2 * support.size > n
        self.rows = (support[:0], np.arange(n)) if self.dense else row_split(support, n)
        self.mats = [None, None]


class _Point:
    """One point's M x and v(x), and the parts of grad_g computed there."""

    __slots__ = ("blocks", "x", "mx", "v", "parts", "product")

    def __init__(self, blocks, x):
        self.blocks = blocks
        self.x = x
        self.mx = None
        self.v = None
        self.parts = [None, None]  # W v(x) on R and on T
        self.product = None  # W v(x) on every row


class RowSplit:
    """The products of a family whose matrix M has at least
    `problems._BLOCK_MIN_SIZE` elements, with grad_g(x) = W v(x) + c
    computed in two blocks of rows: the rows R(x) that cover x's support,
    and every other row, T(x) (`row_split`). Where x has more than half its
    components nonzero, R is empty, T is every row, and each product is the
    whole one.

    `grad` gives grad_g(x) on every row; `padded` gives it on R and zero
    on T, for alg2's momentum test. Each support's blocks are gathered
    once, when first used, and kept until the support changes. A one-slot
    memo keeps the last point's products, so that its g and grad_g share
    them. Each slot is one tuple read once, so that no reader pairs a point
    or a support with another's. The bits at a point never depend on what
    the memos held.
    """

    _offset = None  # c

    def __init__(self, mat: np.ndarray):
        self._mat = mat
        self._blocks = (None, None)
        self._last = (None, None)

    def _point(self, x: np.ndarray) -> _Point:
        x = np.asarray(x, dtype=np.float64)
        if x.shape != (self._mat.shape[1],):
            raise ValueError(f"x has shape {x.shape}; the matrix has {self._mat.shape[1]} columns")
        key = x.tobytes()
        last_key, point = self._last
        if key == last_key:
            return point
        support = np.flatnonzero(x)
        support_key = support.tobytes()
        blocks_key, blocks = self._blocks
        if support_key != blocks_key:
            blocks = _Blocks(support, x.size)
            self._blocks = (support_key, blocks)
        point = _Point(blocks, x.copy())
        self._last = (key, point)
        return point

    def _block(self, blocks: _Blocks, i: int) -> np.ndarray:
        mat = blocks.mats[i]
        if mat is None:
            mat = blocks.mats[i] = self._gather(blocks, i)
        return mat

    def _part(self, point: _Point, i: int) -> np.ndarray:
        part = point.parts[i]
        if part is None:
            part = point.parts[i] = self._times(self._block(point.blocks, i), self._v(point))
        return part

    def _product(self, point: _Point) -> np.ndarray:
        product = point.product
        if product is None:
            head, rest = point.blocks.rows
            if head.size:
                product = np.empty(head.size + rest.size)
                product[head] = self._part(point, 0)
                product[rest] = self._part(point, 1)
            else:
                product = self._part(point, 1)
            point.product = product
        return product

    def covers(self, x, p: np.ndarray) -> bool:
        """Whether p is zero on every row of T(x)."""
        return np.count_nonzero(p.take(self._point(x).blocks.rows[1])) == 0

    def padded(self, x) -> np.ndarray:
        """grad_g(x) on R(x), and zero on T(x)."""
        point = self._point(x)
        head, rest = point.blocks.rows
        out = np.zeros(head.size + rest.size)
        if head.size:
            part = self._part(point, 0)
            out[head] = part if self._offset is None else part + self._offset.take(head)
        return out


class QuadraticSplit(RowSplit):
    """The quadratic's M x = W v(x): W is M and v(x) is x, and the blocks
    keep only the support's columns, ``M[R][:, S]`` and ``M[T][:, S]``, so
    that their rows are those of ``M[:, S] @ x[S]``; where x is more than
    half nonzero, the one block is M and v(x) all of x. c is the offset b.
    alg2's helper computes the rows on T (`tail`), and the step those on R;
    only a split with a `tail` is lent the helper (`_fork.helper_for`)."""

    def __init__(self, mat: np.ndarray, offset: np.ndarray):
        super().__init__(mat)
        self._offset = offset

    def _v(self, point):
        if point.v is None:
            blocks = point.blocks
            point.v = point.x if blocks.dense else point.x.take(blocks.support)
        return point.v

    def _gather(self, blocks, i):
        if blocks.dense:
            return self._mat
        rows = blocks.rows[i]
        mat = self._mat if rows.size == self._mat.shape[0] else self._mat.take(rows, axis=0)
        return mat.take(blocks.support, axis=1)

    def _times(self, block, v):
        return block @ v

    def grad(self, x, lent=None) -> np.ndarray:
        """grad_g(x). The rows on R(x) come first; then those on T(x) come
        from ``lent()`` where it gives them (alg2's helper), else from
        `tail`."""
        point = self._point(x)
        if point.parts[1] is None:
            if point.blocks.rows[0].size:
                self._part(point, 0)
            tail = None if lent is None else lent()
            if tail is None or tail.size != point.blocks.rows[1].size:
                tail = self.tail(x)
            point.parts[1] = tail
        return self._product(point) + self._offset

    def tail(self, x) -> np.ndarray:
        """W v(x) on T(x)."""
        return self._part(self._point(x), 1)

    def mx(self, x) -> np.ndarray:
        """M x."""
        return self._product(self._point(x))


class TransposedSplit(RowSplit):
    """grad_g(x) = M^T phi(M x), with W = M^T and v(x) = phi(M x): the rows
    of W are M's columns, gathered as the blocks ``M[:, R]`` and
    ``M[:, T]`` and used transposed. M x is ``M[:, R] @ x[R]``, from the
    block that also gives grad_g on R, so that alg2's test reads one block
    for both products (``M @ x`` where x is more than half nonzero). alg2
    lends these families no helper: its step computes every row itself."""

    def __init__(self, mat: np.ndarray, phi):
        super().__init__(mat)
        self._phi = phi

    def _mx(self, point):
        if point.mx is None:
            blocks = point.blocks
            if blocks.dense:
                point.mx = self._mat @ point.x
            else:
                point.mx = self._block(blocks, 0) @ point.x.take(blocks.rows[0])
        return point.mx

    def _v(self, point):
        if point.v is None:
            point.v = self._phi(self._mx(point))
        return point.v

    def _gather(self, blocks, i):
        rows = blocks.rows[i]
        return self._mat if rows.size == self._mat.shape[1] else self._mat.take(rows, axis=1)

    def _times(self, block, v):
        return block.T @ v

    def grad(self, x) -> np.ndarray:
        """grad_g(x), from the two blocks' rows."""
        return self._product(self._point(x))

    def mx(self, x) -> np.ndarray:
        """M x."""
        return self._mx(self._point(x))

    def whole(self, x) -> np.ndarray:
        """grad_g(x) as the one product ``M.T @ v(x)``, which the blocks give
        bit for bit, a new array at each call, with no block gathered."""
        return self._mat.T @ self._v(self._point(x))
