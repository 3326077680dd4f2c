"""Integer partitions and their Young diagrams.

Diagram convention, fixed once for the whole package: a cell (rho, sigma)
belongs to the partition lam iff rho < lam[sigma], i.e. rows are indexed by
sigma and row sigma has lam[sigma] cells.  Every other module imports this
convention through Partition.contains.
"""

from __future__ import annotations

from functools import lru_cache


class Partition:
    """A weakly decreasing tuple of positive integers; Partition() is empty."""

    __slots__ = ("parts", "_conjugate")

    def __init__(self, parts=()):
        parts = tuple(int(x) for x in parts)
        for i, x in enumerate(parts):
            if x < 1:
                raise ValueError("partition parts must be positive, got %r" % (x,))
            if i and parts[i - 1] < x:
                raise ValueError("partition parts must be weakly decreasing: %r" % (parts,))
        self.parts = parts
        self._conjugate = None

    @classmethod
    def parse(cls, text):
        """Parse a comma-separated part list; the empty string is the empty partition."""
        text = text.strip()
        if not text:
            return cls()
        return cls(int(tok) for tok in text.split(","))

    def size(self):
        return sum(self.parts)

    def first_part(self):
        return self.parts[0] if self.parts else 0

    def length(self):
        return len(self.parts)

    def norm_sq(self):
        return sum(x * x for x in self.parts)

    def conjugate(self):
        """Transposed diagram: column heights become the parts.  Built at the
        first call and kept on the partition, a value derived from its parts."""
        if self._conjugate is None:
            cols = [0] * self.first_part()
            for x in self.parts:
                for j in range(x):
                    cols[j] += 1
            self._conjugate = Partition(cols)
        return self._conjugate

    def contains(self, rho, sigma):
        """Whether the cell (rho, sigma) lies in the diagram (rho < lam[sigma])."""
        if rho < 0 or sigma < 0 or sigma >= len(self.parts):
            return False
        return rho < self.parts[sigma]

    def cells(self):
        """All diagram cells (rho, sigma), row by row."""
        for sigma, row in enumerate(self.parts):
            for rho in range(row):
                yield (rho, sigma)

    def column_height(self, rho):
        """Number of cells in column rho."""
        return sum(1 for x in self.parts if x > rho)

    def to_string(self):
        return ",".join(str(x) for x in self.parts)

    def __iter__(self):
        return iter(self.parts)

    def __len__(self):
        return len(self.parts)

    def __bool__(self):
        return bool(self.parts)

    def __eq__(self, other):
        return isinstance(other, Partition) and self.parts == other.parts

    def __hash__(self):
        return hash(self.parts)

    def __repr__(self):
        return "Partition(%r)" % (list(self.parts),)


EMPTY = Partition()
BOX = Partition((1,))


@lru_cache(maxsize=None)
def _partitions(n):
    """The partitions of n as Partition objects, built once per process."""
    # Descending (reverse-lexicographic) generation: each step decrements the
    # last part >1 and refills greedily.
    r = (n,) if n else ()
    out = [Partition(r)]
    while True:
        i = len(r) - 1
        while i >= 0 and r[i] == 1:
            i -= 1
        if i < 0:
            return tuple(out)
        rest = len(r) - i
        r = r[:i] + (r[i] - 1,)
        while rest > 0:
            nxt = min(r[-1], rest)
            r += (nxt,)
            rest -= nxt
        out.append(Partition(r))


def enumerate_partitions(n):
    """All partitions of n, in reverse-lexicographic order on the parts; a new list each call."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    return list(_partitions(n))
