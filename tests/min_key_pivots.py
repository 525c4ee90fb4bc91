"""`snf._eliminate` with its pivot rule written as a `min` with a key tuple,
as it was before the one-pass search: an oracle for the pivot sequence, which
fixes every Farkas witness and so every report byte."""

import heapq
from collections import defaultdict


def eliminate(rows: list[dict[int, int]], prov: list[dict[int, int]] | None = None):
    """The same elimination and return value as `snf._eliminate`; each pivot
    is min(units, key=(column count, column)) over the row's +-1 entries."""
    cols: defaultdict[int, set[int]] = defaultdict(set)
    for i, row in enumerate(rows):
        for j in row:
            cols[j].add(i)
    heap = [(len(row), i) for i, row in enumerate(rows)]
    heapq.heapify(heap)
    pivots: dict[int, tuple[int, int, dict[int, int]]] = {}
    while heap:
        size, i = heapq.heappop(heap)
        row = rows[i]
        if size != len(row):
            continue
        units = [j for j, v in row.items() if abs(v) == 1]
        if not units:
            continue
        j = min(units, key=lambda c: (len(cols[c]), c))
        rows[i] = {}
        for c in row:
            cols[c].discard(i)
        p = row.pop(j)
        for r in cols.pop(j):
            other = rows[r]
            q = other.pop(j) * p
            for c, v in row.items():
                w = other.get(c, 0) - q * v
                if w:
                    if c not in other:
                        cols[c].add(r)
                    other[c] = w
                else:
                    del other[c]
                    cols[c].discard(r)
            if prov is not None:
                for s, e in prov[i].items():
                    prov[r][s] = prov[r].get(s, 0) - q * e
            heapq.heappush(heap, (len(other), r))
        pivots[i] = (j, p, row)
    left = [i for i, row in enumerate(rows) if row]
    cols = sorted({c for i in left for c in rows[i]})
    return pivots, left, cols, [[rows[i].get(c, 0) for c in cols] for i in left]
