import math
from itertools import permutations
from typing import Iterator

import pytest

from tensormoments.algebra import Partition, Permutation
from tensormoments.bubbles import Bubble, ColorSplit, bubble_from_chains


@pytest.fixture
def split24():
    return ColorSplit(4, [2, 4])


def edge_tree_bubble(k: int, l: int) -> Bubble:
    """The two-chain d=4 bubble tr_1(tr_3 (MM+)^k tr_3 (MM+)^l)."""
    return bubble_from_chains(
        4,
        ColorSplit(4, [2, 4]),
        (k, l),
        {1: Permutation([2, 1]), 3: Permutation([1, 2])},
    )


def symmetric_group(n: int) -> Iterator[Permutation]:
    """All of S_n in lexicographic image order."""
    return (Permutation(images) for images in permutations(range(1, n + 1)))


def class_size(p: Partition) -> int:
    """Size of the conjugacy class p of S_n: n! / prod_j j^{p_j} p_j!."""
    z = math.prod(j**mult * math.factorial(mult) for j, mult in p.multiplicities().items())
    return math.factorial(p.n) // z
