"""Known answers the benchmark checks against, independent of the package.

- OEIS A000055: the number of unlabeled trees on n vertices.
- The stated non-critical sets of the named families, by construction label.
- The uniqueness claims: for even n >= 6 the only prime tree with one
  non-critical vertex is Pkt(4, (n-4)/2); for odd n >= 5 the only one with
  floor(n/2) is the spider on n vertices; the 4-path is the only prime tree
  with none.
- The named family each family constructor's member classifies as, and
  that the prime trees with exactly two non-critical vertices are exactly
  the paths, the Pkt members with k >= 5 and the Pmn members.

`References(corrupt=True)` shifts every A000055 entry by one and the stated
non-critical set of every path, so a run against them must report failures.
"""

from __future__ import annotations

A000055 = (1, 1, 1, 2, 3, 6, 11, 23, 47, 106, 235, 551, 1301, 3159, 7741)


class References:
    def __init__(self, corrupt: bool = False):
        self.corrupt = corrupt

    def tree_classes(self, n: int) -> int:
        """Number of unlabeled trees on n vertices, 1 <= n <= 15."""
        return A000055[n - 1] + (1 if self.corrupt else 0)

    def family_sigma_labels(self, tag: str, params: tuple[int, ...]) -> set[str]:
        """Construction labels of the stated non-critical set of a family member."""
        if tag == "path":
            (n,) = params
            return {"1", str(n - 1 if self.corrupt else n)}
        if tag == "A":
            (m,) = params
            return {str(i) for i in range(m + 1, 2 * m + 1)}
        if tag == "Pkt":
            k, t = params
            return {str(2 * t + 1)} if k == 4 else {str(2 * t + 1), str(2 * t + k)}
        if tag == "Pmn":
            m, n1, n2 = params
            s = n1 + n2
            return {str(2 * s + 1), str(2 * s + m)}
        raise ValueError(f"no stated non-critical set for family {tag}")

    @staticmethod
    def family_kind(tag: str, params: tuple[int, ...]) -> tuple[str, tuple[int, ...]]:
        """The classification of a family member (path >= 5, spider m >= 3,
        Pkt k >= 5, Pmn with n1 <= n2; smaller members coincide)."""
        names = {"path": "Path", "A": "Spider", "Pkt": "Pkt", "Pmn": "Pmn"}
        return names[tag], tuple(params)

    @staticmethod
    def is_minus2_critical_kind(kind: str, params: tuple[int, ...]) -> bool:
        """Whether a classified prime tree has exactly two non-critical vertices."""
        return kind in ("Path", "Pmn") or (kind == "Pkt" and params[0] >= 5)

    @staticmethod
    def unique_k1_member(n: int) -> tuple[str, tuple[int, ...]] | None:
        """The prime tree on n vertices with exactly one non-critical vertex."""
        return ("Pkt", (4, (n - 4) // 2)) if n >= 6 and n % 2 == 0 else None

    @staticmethod
    def unique_half_member(n: int) -> tuple[str, tuple[int, ...]] | None:
        """The prime tree on n >= 5 vertices with floor(n/2) non-critical vertices."""
        return ("A", ((n - 1) // 2,)) if n >= 5 and n % 2 == 1 else None

    @staticmethod
    def empty_sigma_count(n: int) -> int:
        """Prime trees on n >= 4 vertices with no non-critical vertex."""
        return 1 if n == 4 else 0
