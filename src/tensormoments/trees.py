"""Corner-labeled rooted plane trees and their bubbles.

Each tree vertex stands for a necklace whose length is the sum of the
corner labels around it; children are inserted on edges of color 1 or 3 by
cutting open necklaces into the parent, with the labels giving the number
of color-2 edges between consecutive insertion points.  The large-N
expectation of the resulting observable is the product of Catalan numbers
of the per-vertex lengths.
"""
from __future__ import annotations

import json
from dataclasses import dataclass
from functools import lru_cache
from itertools import product
from typing import Iterator, Mapping, Sequence

from .algebra import Permutation, Refused, catalan
from .bubbles import Bubble, json_int, json_keys

ROW_COLORS = (1, 3)
COLUMN_COLORS = (2, 4)
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
    def vertex_count(self) -> int:
        return sum(1 for _ in self.vertices())

    @property
    def total_label(self) -> int:
        return sum(v.k for v in self.vertices())

    def leaves(self) -> Iterator["CornerLabeledTree"]:
        for v in self.vertices():
            if not v.children:
                yield v

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
        return cls(
            color=json_int(data["color"], "color"),
            labels=tuple(json_int(x, "corner label") for x in data["labels"]),
            children=tuple(cls.from_json(c) for c in data.get("children", ())),
        )

    def save(self, path) -> None:
        with open(path, "w") as fh:
            json.dump(self.to_json(), fh, indent=1)
            fh.write("\n")

    @classmethod
    def load(cls, path) -> "CornerLabeledTree":
        with open(path) as fh:
            return cls.from_json(json.load(fh))


class _Builder:
    """Mutable edge store used while gluing necklaces together."""

    def __init__(self):
        self.colors: dict[int, dict[int, int]] = {c: {} for c in range(1, D + 1)}
        self.count = 0
        self.spans: list[tuple[int, int]] = []  # (first white, last white) per vertex

    def add_necklace(self, k: int) -> list[int]:
        """Closed necklace of length k; returns its white labels in order."""
        base = self.count
        whites = list(range(base + 1, base + k + 1))
        self.count += k
        self.spans.append((whites[0], whites[-1]))
        for c in COLUMN_COLORS:
            for w in whites:
                self.colors[c][w] = w
        for c in ROW_COLORS:
            for j, w in enumerate(whites):
                # edge from black j to white j+1 (cyclic)
                self.colors[c][whites[(j + 1) % k]] = w
        return whites


def _build(node: CornerLabeledTree, builder: _Builder) -> tuple[int, int]:
    """Build the necklace of ``node`` and everything below it.

    Returns (first_white, last_black) -- the endpoints of the open edge of
    ``node.color`` at this necklace (the edge that gets cut on insertion
    into a parent).
    """
    k = node.k
    whites = builder.add_necklace(k)
    # Row slot s (1..k) holds the color-1 and color-3 edges between black
    # whites[s-1] and white whites[s % k]; slot k is the parent/open slot.
    active: dict[tuple[int, int], tuple[int, int]] = {}

    def slot_edge(s: int, color: int) -> tuple[int, int]:
        if (s, color) in active:
            return active[(s, color)]
        return whites[s - 1], whites[s % k]  # (black, white)

    cum = 0
    for child, gap in zip(node.children, node.labels):
        cum += gap
        s = cum % k or k
        black_p, white_p = slot_edge(s, child.color)
        cw, cb = _build(child, builder)
        cmap = builder.colors[child.color]
        # cut the parent edge and the child's open edge, then cross-connect
        assert cmap[white_p] == black_p and cmap[cw] == cb
        cmap[cw] = black_p
        cmap[white_p] = cb
        # later insertions at this slot land between the parent black and
        # the child's white start (the child-side new edge is frozen)
        active[(s, child.color)] = (black_p, cw)

    # The open edge may have been subdivided by a same-color child at slot k.
    black_o, white_o = slot_edge(k, node.color)
    return white_o, black_o


def tree_to_bubble(t: CornerLabeledTree) -> Bubble:
    """The d=4 bubble obtained by recursive open-necklace insertion."""
    if t.color != 1:
        raise Refused(f"root insertion color must be 1, got {t.color}")
    builder = _Builder()
    _build(t, builder)
    n = builder.count
    maps = tuple(
        Permutation([builder.colors[c][w] for w in range(1, n + 1)])
        for c in range(1, D + 1)
    )
    return Bubble(D, n, maps)


def tree_vertex_spans(t: CornerLabeledTree) -> list[tuple[CornerLabeledTree, tuple[int, int]]]:
    """Pair each tree vertex with its (first, last) white labels in the bubble."""
    builder = _Builder()
    _build(t, builder)
    return list(zip(t.vertices(), builder.spans))


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


def _positive_compositions(total: int, parts: int) -> Iterator[tuple[int, ...]]:
    if parts == 0:
        if total == 0:
            yield ()
        return
    for first in range(1, total - parts + 2):
        for rest in _positive_compositions(total - first, parts - 1):
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
        for vsplit in _positive_compositions(v - 1, nch):
            # root keeps k_root >= 1; each child subtree needs s_i >= v_i
            for k_root in range(1, s - sum(vsplit) + 1):
                for ssplit in _compositions(s - k_root - sum(vsplit), nch):
                    sizes = [vs + extra for vs, extra in zip(vsplit, ssplit)]
                    pools = [
                        [
                            _trees_exact(c, vi, si)
                            for c in ROW_COLORS
                        ]
                        for vi, si in zip(vsplit, sizes)
                    ]
                    flat_pools = [tuple(t for sub in p for t in sub) for p in pools]
                    for labels in _compositions(k_root, nch + 1):
                        for children in product(*flat_pools):
                            out.append(CornerLabeledTree(color, labels, children))
    return tuple(out)


def enumerate_trees(max_vertices: int, max_total_label: int) -> Iterator[CornerLabeledTree]:
    """Exhaustive, duplicate-free enumeration of rooted trees within bounds."""
    if max_vertices < 1 or max_total_label < 1:
        raise Refused(f"bounds must be >= 1, got {max_vertices} and {max_total_label}")
    for v in range(1, max_vertices + 1):
        for s in range(v, max_total_label + 1):
            yield from _trees_exact(1, v, s)
