"""Seeded block-structured interaction corpora for the benchmark workloads.

Users and items split into aligned blocks. In every block a leading share of
the users is abundant and the rest cold. Degrees do not depend on
the seed: the abundant users of a block take the degrees of their range in
turn, lo, lo+1, ..., hi, lo, ..., and so do the cold users, so every seed gives
the same number of interactions. A user draws round(in_share * degree) items
from its own block, weighted towards the block's popular items, and the rest
uniformly from the other blocks. Timestamps increase in generation order, so
each user's interactions are chronological in a random order of items.
"""

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class CorpusSpec:
    n_users: int
    n_items: int
    n_blocks: int
    abundant_degree: tuple[int, int]  # inclusive range
    cold_degree: tuple[int, int]  # inclusive range
    abundant_share: float = 0.5  # leading share of each block's users
    in_share: float = 0.9
    popular_share: float = 0.6  # leading share of each block's items drawn 5x as often


def make_corpus(spec: CorpusSpec, seed: int) -> list[tuple[int, int, int]]:
    """Deterministic (user, item, timestamp) triples for spec and seed."""
    rng = np.random.default_rng([seed, spec.n_users, spec.n_items, spec.n_blocks])
    upb = spec.n_users // spec.n_blocks
    ipb = spec.n_items // spec.n_blocks
    n_popular = int(round(spec.popular_share * ipb))
    rows = []
    ts = 1_000_000
    for u in range(spec.n_users):
        block = min(u // upb, spec.n_blocks - 1)
        in_block = np.arange(block * ipb, (block + 1) * ipb)
        out_block = np.setdiff1d(np.arange(spec.n_items), in_block)
        weights = np.where(np.arange(ipb) < n_popular, 5.0, 1.0)
        deg = degree(spec, u)
        n_in = min(max(1, int(round(deg * spec.in_share))), ipb)
        n_out = min(deg - n_in, len(out_block))
        items = np.concatenate([
            rng.choice(in_block, size=n_in, replace=False, p=weights / weights.sum()),
            rng.choice(out_block, size=n_out, replace=False),
        ]).astype(np.int64)
        for j in rng.permutation(len(items)):
            rows.append((u, int(items[j]), ts))
            ts += 1
    return rows


def _n_abundant(spec: CorpusSpec) -> int:
    return int(round(spec.abundant_share * (spec.n_users // spec.n_blocks)))


def is_abundant(spec: CorpusSpec, user: int) -> bool:
    return user % (spec.n_users // spec.n_blocks) < _n_abundant(spec)


def degree(spec: CorpusSpec, user: int) -> int:
    rank = user % (spec.n_users // spec.n_blocks)
    if is_abundant(spec, user):
        lo, hi = spec.abundant_degree
    else:
        lo, hi = spec.cold_degree
        rank -= _n_abundant(spec)
    return lo + rank % (hi - lo + 1)


def write_corpus(path, rows) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.writelines(f"{u}\t{i}\t{ts}\n" for u, i, ts in rows)
