"""Seeded synthetic cohorts for the benchmark workloads.

A cohort is stored flat: ``counts`` holds every publication's citation
count, researcher by researcher, and researcher ``i`` owns
``counts[offsets[i]:offsets[i + 1]]``.  The same seed always gives the
same cohort, byte for byte; the digest of the generated input proves it.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

import numpy as np

PARETO_SHAPE = 1.2

# one independent random stream per workload, so workloads never share inputs
_STREAMS = {"cli-cohort-2m": 1, "cli-cold-small": 2, "lib-cohort-100k": 3}


@dataclass(frozen=True)
class Cohort:
    names: list[str]
    counts: np.ndarray   # int64, flat
    offsets: np.ndarray  # int64, len(names) + 1

    def lists(self) -> list[list[int]]:
        """Per-researcher count lists, in generated (unsorted) order."""
        flat = self.counts.tolist()
        bounds = self.offsets.tolist()
        return [flat[bounds[i]:bounds[i + 1]] for i in range(len(self.names))]

    def digest(self) -> str:
        h = hashlib.sha256()
        h.update("\n".join(self.names).encode())
        h.update(self.counts.tobytes())
        h.update(self.offsets.tobytes())
        return h.hexdigest()


def _rng(workload: str, seed: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence([seed, _STREAMS[workload]]))


def _pareto_counts(rng: np.random.Generator, size) -> np.ndarray:
    # floor of a Lomax (Pareto II) draw: about 56% zeros, 17% singletons, heavy tail
    return np.floor(rng.pareto(PARETO_SHAPE, size=size)).astype(np.int64)


def fixed_cohort(workload: str, seed: int, researchers: int, papers: int) -> Cohort:
    """``researchers`` x ``papers`` Pareto counts, every researcher cited.

    The first paper of each researcher gets at least one citation, so
    ``hcore`` (which rejects all-zero researchers) succeeds for any seed.
    """
    rng = _rng(workload, seed)
    counts = _pareto_counts(rng, (researchers, papers))
    counts[:, 0] = np.maximum(counts[:, 0], 1)
    offsets = np.arange(researchers + 1, dtype=np.int64) * papers
    width = len(str(researchers - 1))
    names = [f"r{i:0{width}d}" for i in range(researchers)]
    return Cohort(names, counts.ravel(), offsets)


def geometric_cohort(workload: str, seed: int, researchers: int, mean_papers: int) -> Cohort:
    """Geometric paper counts (at least one paper) with Pareto citations.

    Nothing forces a citation, so about 6% of researchers are uncited.
    """
    rng = _rng(workload, seed)
    papers = rng.geometric(1.0 / mean_papers, size=researchers).astype(np.int64)
    offsets = np.concatenate(([0], np.cumsum(papers)))
    counts = _pareto_counts(rng, int(offsets[-1]))
    width = len(str(researchers - 1))
    names = [f"r{i:0{width}d}" for i in range(researchers)]
    return Cohort(names, counts, offsets)


def long_csv(cohort: Cohort) -> bytes:
    """The cohort in the long CSV format: one publication per row."""
    lengths = np.diff(cohort.offsets).tolist()
    lines = ["researcher,citations"]
    it = iter(cohort.counts.tolist())
    for name, length in zip(cohort.names, lengths):
        prefix = name + ","
        lines.extend([prefix + str(next(it)) for _ in range(length)])
    lines.append("")
    return "\n".join(lines).encode()
