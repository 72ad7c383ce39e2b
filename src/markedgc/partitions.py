"""Integer partition arithmetic.

Partitions are plain tuples of positive integers in non-increasing order.
The empty tuple is the unique partition of 0.  All enumeration functions
return partitions in reverse lexicographic order, which is the canonical
ordering used throughout the package.
"""

from __future__ import annotations

from functools import cache

Partition = tuple[int, ...]


def is_partition(parts) -> bool:
    parts = tuple(parts)
    return all(isinstance(p, int) and p >= 1 for p in parts) and all(
        parts[i] >= parts[i + 1] for i in range(len(parts) - 1)
    )


def check_partition(parts: Partition) -> Partition:
    parts = tuple(parts)
    if not is_partition(parts):
        raise ValueError(f"not a partition: {parts!r}")
    return parts


def size(lam: Partition) -> int:
    return sum(lam)


def conjugate(lam: Partition) -> Partition:
    """Transpose the Young diagram of ``lam``."""
    if not lam:
        return ()
    cols = [0] * lam[0]
    for part in lam:
        for i in range(part):
            cols[i] += 1
    return tuple(cols)


def pad_ones(lam: Partition, j: int) -> Partition:
    """Append ``j`` blocks of size 1, giving (lam, 1^j)."""
    if j < 0:
        raise ValueError("j must be non-negative")
    return tuple(lam) + (1,) * j


def erase_first_column(lam: Partition) -> Partition:
    """Remove one box from every row, dropping rows that empty out."""
    return tuple(p - 1 for p in lam if p > 1)


@cache
def enumerate_partitions(n: int, even_only: bool = False) -> tuple[Partition, ...]:
    """All partitions of ``n`` in reverse lexicographic order.

    With ``even_only`` only partitions all of whose parts are even are
    returned; these are exactly the doubles 2*tau for tau a partition of n/2.
    """
    if n < 0:
        raise ValueError("n must be non-negative")
    out: list[Partition] = []

    def rec(remaining: int, maxpart: int, prefix: tuple[int, ...]):
        if remaining == 0:
            out.append(prefix)
            return
        step = 2 if even_only else 1
        start = min(maxpart, remaining)
        if even_only and start % 2:
            start -= 1
        for part in range(start, 0, -step):
            rec(remaining - part, part, prefix + (part,))

    rec(n, n, ())
    return tuple(out)


def double(tau: Partition) -> Partition:
    """The partition 2*tau formed by doubling every entry."""
    return tuple(2 * p for p in tau)


def cycle_types(n: int) -> tuple[Partition, ...]:
    """Cycle types of S_n, i.e. all partitions of n, canonical order."""
    return enumerate_partitions(n)


def parse_partition(text: str) -> Partition:
    text = text.strip()
    if not (text.startswith("[") and text.endswith("]")):
        raise ValueError(f"expected bracketed partition, got {text!r}")
    body = text[1:-1].strip()
    if not body:
        return ()
    return check_partition(tuple(int(tok) for tok in body.split(",")))
