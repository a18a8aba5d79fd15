"""Seeded inputs for the two workloads and the serve probe.

Every generator here is a pure function of ``(seed, stream...)``: the same
seed gives the same references, reads, queries and arrival schedules, and
the program under test only ever receives the generated arrays.  Sizes are
chosen so one call of each kind takes a few seconds at most on 2 cores.
"""

from __future__ import annotations

import numpy as np

READ_LENGTH = 150
#: 0.75 x the perfect 150 bp score (+2 per match): above the random-junk
#: alignment floor, where the seeded mapping equals its full-DP oracle.
MIN_SCORE = 225

MAP_REFERENCE = 200_000
#: Reads per call: "hi" is a batch, "lo" a single read.
MAP_SIZES = {"hi": 32, "lo": 1}
#: Call order within one cycle; two single reads cost about a third of a
#: batch, so a 30 s run makes about 15 batch and 30 single-read calls.
MAP_CYCLE = ("hi", "lo", "lo")

SEARCH_REFERENCE = 1_000_000
SEARCH_SIZES = {"hi": 96, "lo": 1}
#: About 9 batch and 18 single-query calls in a 30 s run.
SEARCH_CYCLE = ("hi", "lo", "lo")
NUM_SHARDS = 2
#: Every 4th query is a random decoy that matches nowhere.
DECOY_EVERY = 4
QUERY_SOURCE = 200  # mutated substring length before trimming to READ_LENGTH

SERVE_REFERENCE = 200_000
SERVE_RATES = {"lo": 60.0, "hi": 100.0}
#: One request in 20 is ``submit_align``.  Aligns are spaced evenly in the
#: request sequence (arrival times stay Poisson) so the p99 reflects what an
#: align costs its neighbours, not how often 5% coin flips cluster aligns.
ALIGN_EVERY = 20
#: Each rate's requests are offered in this many segments, the rates taking
#: turns, so both rates see the same stretch of the run.
SERVE_SEGMENTS = 4


def rng(seed: int, *stream) -> np.random.Generator:
    """Independent generator for one named stream of one seed."""
    return np.random.default_rng([int(seed), *(int(s) for s in stream)])


# -- map_reads ----------------------------------------------------------------
def map_reference(seed: int) -> np.ndarray:
    from repro.workloads import random_genome

    return random_genome(MAP_REFERENCE, seed=rng(seed, 0))


def map_batch(reference: np.ndarray, seed: int, index: int, count: int):
    """Call ``index``'s reads: mate pairs, odd reads from the reverse strand."""
    from repro.workloads import simulate_reads

    strands = (np.arange(count) + index) % 2
    return simulate_reads(
        reference, count, read_length=READ_LENGTH, seed=rng(seed, 1, index),
        strands=strands,
    )


def map_warmup(reference: np.ndarray, seed: int):
    from repro.workloads import simulate_reads

    return simulate_reads(reference, 2, read_length=READ_LENGTH, seed=rng(seed, 2))


# -- search_pool --------------------------------------------------------------
def search_reference(seed: int) -> np.ndarray:
    from repro.workloads import random_genome

    return random_genome(SEARCH_REFERENCE, seed=rng(seed, 0))


def search_queries(reference: np.ndarray, seed: int, index: int, count: int) -> list:
    """Call ``index``'s queries: mutated reference substrings plus decoys.

    All queries are exactly ``READ_LENGTH`` long, so every query set
    resolves the same reference windowing and per-query answers do not
    depend on which call a query rode in.
    """
    from repro.workloads import MutationModel, mutate

    r = rng(seed, 1, index)
    model = MutationModel()
    out = []
    while len(out) < count:
        if len(out) % DECOY_EVERY == DECOY_EVERY - 1:
            out.append(r.integers(0, 4, READ_LENGTH).astype(np.uint8))
            continue
        pos = int(r.integers(0, reference.size - QUERY_SOURCE))
        q = mutate(reference[pos : pos + QUERY_SOURCE], model, seed=r)
        if q.size >= READ_LENGTH:
            out.append(np.ascontiguousarray(q[:READ_LENGTH]))
    return out


def search_warmup(reference: np.ndarray, seed: int) -> list:
    return search_queries(reference, seed, 1 << 30, 1)


# -- serve probe --------------------------------------------------------------
def serve_pairs(seed: int, count: int):
    """``count`` distinct (150 bp read, 166 bp window) pairs, the §V shape."""
    from repro.workloads import read_pairs

    return read_pairs(
        count, read_length=READ_LENGTH, reference_length=SERVE_REFERENCE,
        seed=rng(seed, 0),
    )


def serve_schedule(seed: int, level: str, segment: int, count: int) -> np.ndarray:
    """Poisson due times (seconds from segment start) at ``level``'s rate."""
    level_id = list(SERVE_RATES).index(level)
    gaps = rng(seed, 1, level_id, segment).exponential(1.0 / SERVE_RATES[level], count)
    return np.cumsum(gaps)


def is_align(pair: int) -> bool:
    return pair % ALIGN_EVERY == ALIGN_EVERY - 1


def sv_pairs(seed: int, count: int):
    """§V read x window pairs for the kernel and engine probes."""
    from repro.workloads import read_pairs

    return read_pairs(
        count, read_length=READ_LENGTH, reference_length=SERVE_REFERENCE,
        seed=rng(seed, 3),
    )
