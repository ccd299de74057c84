"""Shared brute-force oracles for the test suite.

Everything here is deliberately independent of the package internals:
partitions are enumerated by element insertion rather than growth
strings, group elements are listed directly from the group structure
rather than by closure, and orbits are counted by mapping every tuple
through every listed element.  Slow but unarguable.
"""

from __future__ import annotations

import itertools

import pytest

# One line per acceptance criterion, echoed in the terminal summary so a
# full-suite run ends with an explicit PASS/FAIL verdict for each.
ACCEPTANCE_LINES: list[str] = []


@pytest.fixture(autouse=True)
def empty_scan_memo():
    """Every test scans from an empty per-process memo, so none reads a
    scan another test left, a patched ``generator_degrees`` result among
    them."""
    from invlayers.invariant_ring import _empty_scan_memo

    _empty_scan_memo()


@pytest.fixture
def acceptance_record():
    def record(line: str) -> None:
        ACCEPTANCE_LINES.append(line)
        print(line)

    return record


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)


def brute_set_partitions(elements):
    """All partitions of ``elements`` as sets of frozensets, by insertion."""
    elements = list(elements)
    if not elements:
        return [frozenset()]
    first, rest = elements[0], elements[1:]
    out = []
    for sub in brute_set_partitions(rest):
        blocks = list(sub)
        for i in range(len(blocks)):
            grown = blocks[:i] + [blocks[i] | {first}] + blocks[i + 1 :]
            out.append(frozenset(grown))
        out.append(frozenset(blocks + [frozenset({first})]))
    return out


def brute_typed_group(sizes):
    """All permutations of 0..n-1 preserving contiguous blocks, as image tuples."""
    blocks = []
    start = 0
    for s in sizes:
        blocks.append(list(range(start, start + s)))
        start += s
    out = []
    for parts in itertools.product(*(itertools.permutations(b) for b in blocks)):
        image = [0] * start
        for block, perm in zip(blocks, parts):
            for src, dst in zip(block, perm):
                image[src] = dst
        out.append(tuple(image))
    return out


def brute_cyclic_group(n):
    return [tuple((i + c) % n for i in range(n)) for c in range(n)]


def brute_translation_group(d):
    out = []
    for p in range(d):
        for q in range(d):
            out.append(
                tuple(((i + p) % d) * d + (j + q) % d for i in range(d) for j in range(d))
            )
    return out


def brute_orbit_count(images, n, k):
    """Orbits of listed permutations (image tuples) on k-tuples over 0..n-1."""
    reps = set()
    for t in itertools.product(range(n), repeat=k):
        orbit = {tuple(img[i] for i in t) for img in images}
        reps.add(min(orbit))
    return len(reps)


def brute_orbits_on_tuples(images, n, k):
    """The orbits themselves, each a frozenset of tuples."""
    orbits = set()
    for t in itertools.product(range(n), repeat=k):
        orbits.add(frozenset(tuple(img[i] for i in t) for img in images))
    return orbits
