"""The product d^k d^{k-1} summed exactly, row by row, over Python ints: a
cross-check oracle for `nerve._check_dd_zero`, which reads the same fact off
the face tables without forming the product."""

from cechcert.errors import VerificationError
from cechcert.nerve import delta_rows


def product_is_zero(A: list[dict[int, int]], B: list[dict[int, int]]) -> bool:
    """Whether A B = 0 for sparse rows A and B, A's columns indexing B's rows."""
    for a in A:
        ab: dict[int, int] = {}
        for j, v in a.items():
            for c, w in B[j].items():
                ab[c] = ab.get(c, 0) + v * w
        if any(ab.values()):
            return False
    return True


def product_guard(nerve, k: int, rows=delta_rows) -> None:
    """The guard `cohomology` runs, by the product of the sparse rows that
    `rows(nerve, k)` gives: raise VerificationError unless d^k d^{k-1} = 0."""
    if not product_is_zero(rows(nerve, k), rows(nerve, k - 1)):
        raise VerificationError(f"d^{k} d^{k - 1} is not zero: the differential is broken")
