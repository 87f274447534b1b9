"""Bubbles: d-regular bipartite edge-colored graphs stored as permutations.

A bubble on n white / n black vertices carries one permutation per color;
color c joins white vertex i to black vertex ``color_maps[c](i)``.  This
module provides validation, the isomorphism-class key of a connected bubble
from its white maps, the necklace constructor, and the chain decomposition
with respect to a color split and its inverse.
"""
from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Mapping, Optional, Sequence

from .algebra import Permutation


def json_int(value, what: str) -> int:
    """``value`` when it is a JSON integer; a bool, float or string is refused."""
    if type(value) is not int:
        raise TypeError(f"{what} must be an integer, got {json.dumps(value)}")
    return value


def json_list(value, what: str) -> list:
    """``value`` when it is a JSON array; an object or a string is refused."""
    if type(value) is not list:
        raise TypeError(f"{what} must be a JSON array, got {json.dumps(value)}")
    return value


def json_object(value, what: str) -> Mapping:
    """``value`` when it is a JSON object; an array or a string is refused."""
    if not isinstance(value, Mapping):
        raise TypeError(f"{what} must be a JSON object")
    return value


def json_keys(data: Mapping, allowed, what: str) -> None:
    """Refuse ``data`` when it holds a key outside ``allowed``, naming each one."""
    unknown = [key for key in json_object(data, what) if key not in allowed]
    if unknown:
        raise ValueError(f"{what}: unknown keys {', '.join(map(json.dumps, unknown))}")


@dataclass(frozen=True)
class Bubble:
    """d colors, n white vertices, one white-to-black permutation per color."""

    d: int
    n: int
    color_maps: tuple[Permutation, ...]

    def __post_init__(self):
        if self.d < 0 or self.n < 0:
            raise ValueError(f"d and n must be non-negative, got d={self.d}, n={self.n}")
        if len(self.color_maps) != self.d:
            raise ValueError(f"expected {self.d} color maps, got {len(self.color_maps)}")
        for c, p in enumerate(self.color_maps, start=1):
            if p.n != self.n:
                raise ValueError(f"color {c} acts on {p.n} vertices, expected {self.n}")

    def tau(self, color: int) -> Permutation:
        """The permutation of color ``color`` (1-indexed)."""
        if not 1 <= color <= self.d:
            raise ValueError(f"color {color} out of range 1..{self.d}")
        return self.color_maps[color - 1]

    # -- serialization -----------------------------------------------------

    def to_json(self) -> dict:
        return {
            "d": self.d,
            "n": self.n,
            "colors": {str(c): list(self.tau(c).images) for c in range(1, self.d + 1)},
        }

    @classmethod
    def from_json(cls, data: Mapping) -> "Bubble":
        json_keys(data, ("d", "n", "colors"), "bubble")
        d, n = json_int(data["d"], "d"), json_int(data["n"], "n")
        colors = json_object(data["colors"], "colors")
        lists = (json_list(colors[str(c)], f"color map {c}") for c in range(1, d + 1))
        maps = tuple(Permutation([json_int(x, "color map entry") for x in cm]) for cm in lists)
        # Every colour 1..d was found, so d is at most the number of keys.
        json_keys(colors, {str(c) for c in range(1, d + 1)}, "colors")
        return cls(d, n, maps)

    def save(self, path) -> None:
        with open(path, "w") as fh:
            json.dump(self.to_json(), fh, indent=1)
            fh.write("\n")

    @classmethod
    def load(cls, path) -> "Bubble":
        with open(path) as fh:
            return cls.from_json(json.load(fh))


@dataclass(frozen=True)
class ColorSplit:
    """Subset C of columns; the complement indexes the rows."""

    d: int
    column_colors: frozenset[int]

    def __init__(self, d: int, column_colors):
        cols = frozenset(int(c) for c in column_colors)
        if not cols or cols == frozenset(range(1, d + 1)):
            raise ValueError("column set must be nonempty and proper")
        if not cols <= frozenset(range(1, d + 1)):
            raise ValueError(f"colors {sorted(cols)} outside 1..{d}")
        object.__setattr__(self, "d", d)
        object.__setattr__(self, "column_colors", cols)

    @property
    def row_colors(self) -> tuple[int, ...]:
        return tuple(c for c in range(1, self.d + 1) if c not in self.column_colors)

    @property
    def columns(self) -> tuple[int, ...]:
        return tuple(sorted(self.column_colors))


@dataclass(frozen=True)
class Diagnostics:
    ok: bool
    problems: tuple[str, ...] = ()


def _white_maps(b: Bubble) -> list[list[int]]:
    """g_c = tau_1^{-1} tau_c on the whites, 0-indexed, for c = 2..d.

    Whites i and g_c(i) share the black tau_c(i), so the orbits of the g_c
    are the connected components of the bubble.  With d < 2 there is no g_c:
    each white is a component of its own (with its black when d = 1).
    """
    if b.d < 2:
        return []
    base_inv = [0] * b.n  # black -> white along colour 1
    for white, black in enumerate(b.tau(1).images):
        base_inv[black - 1] = white
    return [[base_inv[black - 1] for black in b.tau(c).images] for c in range(2, b.d + 1)]


def _walk(gs: list[list[int]], start: int, label: list[int]) -> list[int]:
    """Breadth-first walk from ``start``, colours in order.

    Sets ``label[w]`` to w's place in the walk for every white reached (each
    must be negative on entry) and returns the whites in walk order.
    """
    label[start] = 0
    order = [start]
    for v in order:  # ``order`` grows while it is walked
        for g in gs:
            w = g[v]
            if label[w] < 0:
                label[w] = len(order)
                order.append(w)
    return order


def validate(b: Bubble) -> Diagnostics:
    """Check connectivity of the graph; every color map is a bijection, as
    the ``Permutation`` type enforces."""
    problems = []
    if b.n > 0:
        gs = _white_maps(b)
        label = [-1] * b.n  # each walk marks the whites it reaches
        components = [_walk(gs, w, label) for w in range(b.n) if label[w] < 0]
        if len(components) > 1:
            listing = "; ".join(str(sorted(w + 1 for w in comp)) for comp in components)
            problems.append(f"disconnected: white components {listing}")
    return Diagnostics(ok=not problems, problems=tuple(problems))


def white_maps_key(d: int, n: int, gs: list[list[int]]):
    """A key of the connected bubble whose white maps are ``gs``, equal for
    two bubbles exactly when they are isomorphic.

    ``gs`` holds g_2..g_d, 0-indexed, as ``_white_maps`` builds them.
    Relabelling whites by alpha and blacks by beta conjugates every
    g_c = tau_1^{-1} tau_c by alpha, and simultaneously conjugate tuples
    (g_2..g_d) give isomorphic bubbles.  So from each start white, the whites
    are renumbered in breadth-first order, colours in order; the key is
    (d, n, the smallest renumbered tuple).  None when the bubble is
    disconnected or empty.  O(n^2 d).

    Each tuple opens with 0 when g_2 fixes the start and with 1 otherwise,
    so when g_2 fixes some white only those starts are walked.
    """
    starts = [w for w, image in enumerate(gs[0]) if w == image] if gs else []
    best = None
    for start in starts or range(n):
        label = [-1] * n
        order = _walk(gs, start, label)
        if len(order) < n:
            return None
        relabelled = tuple([label[g[v]] for g in gs for v in order])
        if best is None or relabelled < best:
            best = relabelled
    return None if best is None else (d, n, best)


def necklace(d: int, split: ColorSplit, k: int) -> Bubble:
    """The bubble of tr (M M^dagger)^k with respect to ``split``.

    One chain of length k closed on itself: column colors are the identity
    and each row color is the k-cycle i -> i-1 (mod k), so
    chain_decomposition returns that chain with trivial endpoint maps.
    """
    if k < 1:
        raise ValueError("necklace length must be >= 1")
    ends = {c: Permutation.identity(1) for c in split.row_colors}
    return bubble_from_chains(d, split, (k,), ends)


@dataclass(frozen=True)
class ChainDecomposition:
    """Maximal MM^dagger chains of a bubble relative to a color split.

    ``chains[j]`` lists the white vertices of chain j+1 in factor order;
    ``endpoint_maps[c]`` sends chain j (at its exposed black end) to the
    chain whose exposed white start it reaches by row color c.
    """

    chain_lengths: tuple[int, ...]
    endpoint_maps: dict[int, Permutation] = field(compare=False)
    chains: tuple[tuple[int, ...], ...] = field(default=(), compare=False)

    @property
    def m(self) -> int:
        return len(self.chain_lengths)


def chain_obstruction(b: Bubble, split: ColorSplit) -> Optional[str]:
    """Reason the bubble is not chain-expressible (a split for another d is one), or None."""
    if split.d != b.d:
        return f"split is for d={split.d}, bubble has d={b.d}"
    cols = split.columns
    rho = b.tau(cols[0])
    for c in cols[1:]:
        if b.tau(c) != rho:
            return (
                f"column colors {cols[0]} and {c} disagree: "
                f"{list(rho.images)} vs {list(b.tau(c).images)}"
            )
    return None


def chain_decomposition(b: Bubble, split: ColorSplit) -> Optional[ChainDecomposition]:
    """Decompose ``b`` into maximal MM^dagger chains, or None.

    Succeeds iff the split is for the bubble's d and all column-color
    permutations coincide (call it rho).  Factor
    i links to factor j when every row color sends black rho(i) to the same
    white j; maximal link runs are the chains, cycles are cut at their
    smallest white label.
    """
    if chain_obstruction(b, split) is not None:
        return None
    rho = b.tau(split.columns[0])
    rows = split.row_colors
    inv = {c: b.tau(c).inverse() for c in rows}

    link: dict[int, int] = {}
    for i in range(1, b.n + 1):
        nexts = {inv[c](rho(i)) for c in rows}
        if len(nexts) == 1:
            link[i] = next(iter(nexts))

    # ``link`` is injective: open runs start at whites with no incoming link.
    has_incoming = set(link.values())
    whites = range(1, b.n + 1)
    chains: list[tuple[int, ...]] = []
    placed: set[int] = set()
    for start in [w for w in whites if w not in has_incoming] + list(whites):
        if start in placed:
            continue
        chain = [start]
        while chain[-1] in link and link[chain[-1]] != start:
            chain.append(link[chain[-1]])
        placed.update(chain)
        chains.append(tuple(chain))
    chains.sort(key=lambda ch: ch[0])

    start_of = {ch[0]: j + 1 for j, ch in enumerate(chains)}
    endpoint_maps: dict[int, Permutation] = {}
    for c in rows:
        images = []
        for ch in chains:
            target = inv[c](rho(ch[-1]))
            if target not in start_of:
                # Cannot happen: an interior white has all row edges consumed.
                raise AssertionError("endpoint does not land on a chain start")
            images.append(start_of[target])
        endpoint_maps[c] = Permutation(images)

    return ChainDecomposition(
        chain_lengths=tuple(len(ch) for ch in chains),
        endpoint_maps=endpoint_maps,
        chains=tuple(chains),
    )


def bubble_from_chains(
    d: int,
    split: ColorSplit,
    chain_lengths: Sequence[int],
    endpoint_maps: Mapping[int, Permutation],
) -> Bubble:
    """Rebuild a bubble from chain lengths and endpoint permutations.

    Whites are labeled chain by chain; the common column permutation is the
    identity in this labeling.  ``d`` must be the split's.
    """
    if split.d != d:
        raise ValueError(f"split is for d={split.d}, bubble has d={d}")
    lengths = tuple(int(l) for l in chain_lengths)
    if any(l < 1 for l in lengths):
        raise ValueError("chain lengths must be positive")
    n = sum(lengths)
    offsets = []
    total = 0
    for l in lengths:
        offsets.append(total)
        total += l
    ident = Permutation.identity(n)
    maps: list[Permutation] = []
    for c in range(1, d + 1):
        if c in split.column_colors:
            maps.append(ident)
            continue
        pi = endpoint_maps[c]
        images = [0] * n
        for j, l in enumerate(lengths):
            off = offsets[j]
            for p in range(2, l + 1):
                # interior: white at position p follows black at position p-1
                images[off + p - 1] = off + p - 1
            # the start of chain pi(j+1) hangs off this chain's black end
            tgt = pi(j + 1) - 1
            images[offsets[tgt]] = off + l
        maps.append(Permutation(images))
    return Bubble(d, n, tuple(maps))
