"""Corner-labeled rooted plane trees and their bubbles.

Each tree vertex stands for a necklace whose length is the sum of the
corner labels around it; children are inserted on edges of color 1 or 3 by
cutting open necklaces into the parent, with the labels giving the number
of color-2 edges between consecutive insertion points.  With each row
colour stored as a black-to-white list, one insertion (cut the parent's
edge and the child's open edge, then cross-connect them) is a swap of two
entries.  ``glued_key`` keys the bubble's isomorphism class from the two
lists, without building the bubble.  The large-N expectation of the
resulting observable is the product of Catalan numbers of the per-vertex
lengths.
"""
from __future__ import annotations

import json
from dataclasses import dataclass
from functools import lru_cache
from itertools import product
from typing import Iterator, Mapping

from .algebra import Permutation, Refused, catalan
from .bubbles import Bubble, json_int, json_keys, json_list, white_maps_key

ROW_COLORS = (1, 3)
D = 4


@dataclass(frozen=True)
class CornerLabeledTree:
    """Plane tree vertex: insertion color, corner labels, ordered children.

    ``labels`` has one more entry than ``children``: labels[i] is the gap
    (in color-2 edges) before child i+1, the last label closes the walk back
    to the parent edge.  The root carries color 1.
    """

    color: int
    labels: tuple[int, ...]
    children: tuple["CornerLabeledTree", ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "labels", tuple(int(x) for x in self.labels))
        object.__setattr__(self, "children", tuple(self.children))
        if self.color not in ROW_COLORS:
            raise ValueError(f"insertion color must be 1 or 3, got {self.color}")
        if len(self.labels) != len(self.children) + 1:
            raise ValueError(
                f"need {len(self.children) + 1} corner labels, got {len(self.labels)}"
            )
        if any(l < 0 for l in self.labels):
            raise ValueError(f"corner labels must be non-negative: {self.labels}")
        if self.k == 0:
            raise ValueError("necklace length k_v must be >= 1")

    @property
    def k(self) -> int:
        """Necklace length at this vertex (sum of its corner labels)."""
        return sum(self.labels)

    def vertices(self) -> Iterator["CornerLabeledTree"]:
        yield self
        for child in self.children:
            yield from child.vertices()

    @property
    def total_label(self) -> int:
        # A plain loop: a walk through the nested vertices() generators, or a
        # sum() over a generator, cost two to four times as much per tree in
        # `tree --enumerate`'s budget loop.
        total = sum(self.labels)
        for child in self.children:
            total += child.total_label
        return total

    # -- serialization -----------------------------------------------------

    def to_json(self) -> dict:
        return {
            "color": self.color,
            "labels": list(self.labels),
            "children": [c.to_json() for c in self.children],
        }

    @classmethod
    def from_json(cls, data: Mapping) -> "CornerLabeledTree":
        json_keys(data, ("color", "labels", "children"), "tree vertex")
        children = json_list(data.get("children", []), "children")
        return cls(
            color=json_int(data["color"], "color"),
            labels=tuple(json_int(x, "corner label") for x in json_list(data["labels"], "labels")),
            children=tuple(cls.from_json(c) for c in children),
        )

    def save(self, path) -> None:
        with open(path, "w") as fh:
            json.dump(self.to_json(), fh, indent=1)
            fh.write("\n")

    @classmethod
    def load(cls, path) -> "CornerLabeledTree":
        with open(path) as fh:
            return cls.from_json(json.load(fh))


def _glue(node: CornerLabeledTree, white_of: dict[int, list[int]]) -> int:
    """Append the necklace of ``node`` and everything below it, 0-indexed.

    ``white_of[c][black]`` is the white that the row-colour-c edge at
    ``black`` joins (column colours are the identity).  The necklace of
    length k starts at ``base``, black j joining white j + 1 (mod k), so
    the edge at black base + s - 1 is row slot s and slot k is the open
    edge.  The necklaces are appended in preorder, each vertex's k whites
    after those of the vertices before it.  Returns the last black, whose
    edge of ``node.color`` is the open edge.
    """
    k = node.k
    base = len(white_of[1])
    cycle = [*range(base + 1, base + k), base]
    for row in white_of.values():
        row.extend(cycle)
    s = 0
    for child, gap in zip(node.children, node.labels):
        s += gap
        end = _glue(child, white_of)
        # Cut the slot's edge and the child's open edge and cross-connect
        # them: one swap.  A later child at this slot reads the new entry.
        row, slot = white_of[child.color], base + (s - 1) % k
        row[slot], row[end] = row[end], row[slot]
    return base + k - 1


def glue(t: CornerLabeledTree) -> tuple[list[int], list[int]]:
    """The black-to-white lists of row colours 1 and 3 of the tree's bubble.

    Both are 0-indexed; column colours are the identity.  The lists are
    permutations by construction.
    """
    if t.color != 1:
        raise Refused(f"root insertion color must be 1, got {t.color}")
    white_of: dict[int, list[int]] = {c: [] for c in ROW_COLORS}
    _glue(t, white_of)
    return white_of[1], white_of[3]


def glued_key(rows: tuple[list[int], list[int]]):
    """``white_maps_key`` of the bubble that ``glue`` gave ``rows``, not built.

    Colour c joins white w to black tau_c(w), and the colour-c list is
    tau_c^-1.  The columns are the identity, so g_2 = g_4 = the colour-1
    list and g_3 = the colour-1 list after the inverse of the colour-3 list.
    A glued bubble is connected, so this is never None.
    """
    white_of_1, white_of_3 = rows
    black_of_3 = [0] * len(white_of_3)
    for black, white in enumerate(white_of_3):
        black_of_3[white] = black
    g3 = [white_of_1[black] for black in black_of_3]
    return white_maps_key(D, len(white_of_1), [white_of_1, g3, white_of_1])


def glued_bubble(rows: tuple[list[int], list[int]]) -> Bubble:
    """The d=4 bubble that ``glue`` gave ``rows``."""
    n = len(rows[0])
    perms = []
    for white_of in rows:
        images = [0] * n
        for black, white in enumerate(white_of, start=1):
            images[white] = black
        perms.append(Permutation(images))
    column = Permutation.identity(n)
    return Bubble(D, n, (perms[0], column, perms[1], column))


def tree_to_bubble(t: CornerLabeledTree) -> Bubble:
    """The d=4 bubble obtained by recursive open-necklace insertion."""
    return glued_bubble(glue(t))


def catalan_product(t: CornerLabeledTree) -> int:
    """Product of Cat_{k_v} over all tree vertices."""
    out = 1
    for v in t.vertices():
        out *= catalan(v.k)
    return out


def _compositions(total: int, parts: int) -> Iterator[tuple[int, ...]]:
    """Non-negative compositions of ``total`` into ``parts`` parts."""
    if parts == 1:
        yield (total,)
        return
    for first in range(total + 1):
        for rest in _compositions(total - first, parts - 1):
            yield (first,) + rest


@lru_cache(maxsize=None)
def _trees_exact(color: int, v: int, s: int) -> tuple[CornerLabeledTree, ...]:
    """All trees with exactly v vertices and total label s, given root color."""
    if v < 1 or s < v:
        return ()
    if v == 1:
        return (CornerLabeledTree(color, (s,)),)
    out = []
    for nch in range(1, v):
        for spare in _compositions(v - 1 - nch, nch):
            vsplit = [1 + x for x in spare]  # positive, summing to v - 1
            # root keeps k_root >= 1; each child subtree needs s_i >= v_i
            for k_root in range(1, s - v + 2):
                for ssplit in _compositions(s - k_root - v + 1, nch):
                    sizes = [vs + extra for vs, extra in zip(vsplit, ssplit)]
                    pools = [
                        _trees_exact(1, vi, si) + _trees_exact(3, vi, si)
                        for vi, si in zip(vsplit, sizes)
                    ]
                    for labels in _compositions(k_root, nch + 1):
                        for children in product(*pools):
                            out.append(CornerLabeledTree(color, labels, children))
    return tuple(out)


def enumerate_trees(max_vertices: int, max_total_label: int) -> Iterator[CornerLabeledTree]:
    """Exhaustive, duplicate-free enumeration of rooted trees within bounds."""
    if max_vertices < 1 or max_total_label < 1:
        raise Refused(f"bounds must be >= 1, got {max_vertices} and {max_total_label}")
    for v in range(1, max_vertices + 1):
        for s in range(v, max_total_label + 1):
            yield from _trees_exact(1, v, s)
