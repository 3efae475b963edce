"""The seeded suites against kernels broken on purpose, and their cost.

Composition, tensoring and the closed form build their partitions
without validation, so the suites that exercise them must catch a
kernel whose output is no ordered partition.  Each mutant below breaks
every grid one site builds, in one of two ways: elements 1 and m trade
blocks, or block 1 loses its order.  In the compose and tensor suites
both sides of each compared equality come from the mutant, so equality
alone misses the second way (and, in two of the compose suites, the
first); their explicit validity checks catch it.  The closed form is
also compared with ``standard`` and ``nest``, which validate in full.
The tower that ``check all`` is given joins the shift suites' pool only
when it carries a usable word.  The partition sampler that feeds the
suites draws what the full-scan walk it replaced drew, from the same
random state.
"""

import random

import numpy as np
import pytest

from tuhf import automorphisms, checks, embeddings, partitions
from tuhf.partitions import OrderedPartition
from tuhf.towers import load_tower


def _across_blocks(grid: np.ndarray) -> None:
    grid[0, 0], grid[-1, -1] = grid[-1, -1], grid[0, 0]


def _within_block_1(grid: np.ndarray) -> None:
    grid[0, 0], grid[0, -1] = grid[0, -1], grid[0, 0]


# site: (modules that bind the kernel, its name, suites that must fail)
_SITES = {
    "compose": (
        (partitions, checks),
        "compose",
        ("partition-order-preservation", "partition-compose-associative", "shift-well-defined"),
    ),
    "tensor": ((embeddings, automorphisms), "_tensor_blocks", ("tensor-combine",)),
    "closed form": ((embeddings,), "_alternating_grid", ("alternating-closure",)),
}


@pytest.mark.parametrize("mix", [_across_blocks, _within_block_1])
@pytest.mark.parametrize("site", sorted(_SITES))
def test_each_suite_catches_a_broken_trusted_build(
    site, mix, monkeypatch, trusted_builds_are_checked
):
    # The suites, not the test fixture's re-validation, must catch it.
    monkeypatch.setattr(OrderedPartition, "_trusted", trusted_builds_are_checked)
    modules, name, suites = _SITES[site]
    kernel = getattr(modules[0], name)

    def broken(*args):
        built = kernel(*args)
        grid = np.array(getattr(built, "array", built))
        mix(grid)
        return grid if isinstance(built, np.ndarray) else OrderedPartition._trusted(grid)

    for module in modules:
        monkeypatch.setattr(module, name, broken)
    for suite in suites:
        ok, detail = checks.SUITES[suite](random.Random(f"0:{suite}"), 20, None)
        assert not ok, (suite, detail)


def test_gelfand_agreement_draws_each_tower_when_it_is_compared(monkeypatch):
    drawn = []

    def draw(rng):
        drawn.append(rng)
        return real_draw(rng)

    def stop(tower, depth):
        raise RuntimeError("stop")

    real_draw = checks.random_interval_tower
    monkeypatch.setattr(checks, "random_interval_tower", draw)
    monkeypatch.setattr(checks, "all_points", stop)
    with pytest.raises(RuntimeError, match="stop"):
        checks.SUITES["gelfand-agreement"](random.Random(0), 10**4, None)
    assert len(drawn) == 1  # not all cases // 10 = 1000 towers up front


@pytest.mark.parametrize(
    "text",
    [
        # level 3 of the word-normalized tower is 500^4 = 6.25e10 > _DIM_CAP
        "k1 1\ncycle alt 500 500\n",
        # no supernatural pair: the tower leaves alternating form
        "k1 2\npreamble part 4 m=4 n=2 blocks=1,3;2,4\ncycle std 2\n",
    ],
    ids=["over-dim-cap", "not-alternating"],
)
def test_word_pool_refuses_a_tower_it_cannot_use(text):
    assert checks._word_pool(load_tower(text)) == []



def _ballot_walk_by_scan(rng, m, n):
    """The sampler as it was: every draw rescans all n blocks for the
    admissible ones."""
    size = m // n
    counts = [0] * n
    word = []
    for _ in range(m):
        allowed = [
            b for b in range(n)
            if counts[b] < size and (b == 0 or counts[b] < counts[b - 1])
        ]
        b = rng.choice(allowed)
        counts[b] += 1
        word.append(b + 1)
    return OrderedPartition.from_assignment(word, n)


@pytest.mark.parametrize(
    "m, n", [(1, 1), (7, 7), (8, 1), (12, 3), (18, 6), (24, 4), (60, 12), (96, 6), (512, 4)]
)
def test_sampler_draws_what_the_full_scan_draws(m, n):
    for seed in range(40):
        a, b = random.Random(seed), random.Random(seed)
        assert checks.random_ordered_partition(a, m, n) == _ballot_walk_by_scan(b, m, n)
        assert a.getstate() == b.getstate()


def test_sampler_draws_one_element_per_block_in_linear_time():
    # n = m leaves one admissible block per step; the full scan took
    # O(m * n) steps here and did not finish at m = 10^5.
    m = 10**5
    p = checks.random_ordered_partition(random.Random(0), m, m)
    assert np.array_equal(p.array.ravel(), np.arange(1, m + 1))
