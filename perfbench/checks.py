"""Output checks for the scenario and eviction workloads.  They return
failure messages (empty when the output is right) so the caller can count
failed operations.  The enclave session checks its reads against its shadow
copy where it makes them, in ``workloads.Session.run_block``."""

from __future__ import annotations

import csv
import hashlib
import io
import math
from fractions import Fraction
from math import comb

# Grid points whose Monte Carlo TOTAL estimate is held against the exact
# closed form: (n_entries, ways, n_tweaks).
EXACT_POINTS = ((32, 2, 12), (128, 4, 66))
SIGMAS = 4


def check_verdict(name: str, expected, got) -> list[str]:
    if got == expected:
        return []
    return [f"scenario {name}: expected {expected}, got {got}"]


def exact_total_eviction(n_entries: int, ways: int, n_tweaks: int) -> Fraction:
    """Expected evicted fraction of ``n_tweaks`` tweaks hashed uniformly into
    ``n_entries // ways`` sets of ``ways`` entries:
    n_sets * E[max(X - ways, 0)] / n_tweaks with X ~ Binomial(n_tweaks, 1/n_sets)."""
    n_sets = n_entries // ways
    p = Fraction(1, n_sets)
    excess = sum((k - ways) * comb(n_tweaks, k) * p**k * (1 - p) ** (n_tweaks - k)
                 for k in range(ways + 1, n_tweaks + 1))
    return n_sets * excess / n_tweaks


def csv_digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def check_eviction_csv(data: bytes, seed: int,
                       digests: dict[str, str]) -> tuple[int, int, list[str]]:
    """Check one ``servas-sim evictions`` CSV.  Returns the number of grid
    points, the number that failed, and the messages.

    * AT_LEAST_ONE is non-decreasing in n_tweaks for every geometry: the
      draws are prefix-coupled, so this holds exactly for one seed.
    * The TOTAL estimate at each EXACT_POINTS row lies within SIGMAS
      standard deviations of the closed form.  A per-trial evicted fraction
      lies in [0, 1], so its variance is at most p(1 - p), which bounds the
      estimator's sigma by sqrt(p(1 - p) / trials).
    * The file's SHA-256 equals the digest recorded for its seed, when one
      is recorded (a digest mismatch fails every point).
    """
    rows = list(csv.reader(io.StringIO(data.decode())))[2:]
    points = [(int(r[0]), int(r[1]), int(r[2]), r[3], float(r[4]), int(r[5])) for r in rows]
    errors: list[str] = []
    bad: set[int] = set()

    last: dict[tuple, tuple[int, float]] = {}
    for i, (entries, ways, tweaks, mode, prob, _) in enumerate(points):
        if mode != "at_least_one":
            continue
        prev = last.get((entries, ways))
        if prev is not None and tweaks > prev[0] and prob < prev[1]:
            bad.add(i)
            errors.append(f"at_least_one falls at {entries}/{ways}/{tweaks}: "
                          f"{prob} < {prev[1]}")
        last[(entries, ways)] = (tweaks, prob)

    for entries, ways, tweaks in EXACT_POINTS:
        found = [(i, p) for i, p in enumerate(points)
                 if p[:3] == (entries, ways, tweaks) and p[3] == "total"]
        if not found:
            errors.append(f"row {entries}/{ways}/{tweaks} total missing")
            continue
        i, (_, _, _, _, prob, trials) = found[0]
        exact = float(exact_total_eviction(entries, ways, tweaks))
        sigma = math.sqrt(exact * (1 - exact) / trials)
        if abs(prob - exact) > SIGMAS * sigma:
            bad.add(i)
            errors.append(f"total at {entries}/{ways}/{tweaks} is {prob}, exact {exact:.6f}, "
                          f"beyond {SIGMAS} sigma ({sigma:.6f})")

    want = digests.get(str(seed))
    if want is not None and csv_digest(data) != want:
        bad.update(range(len(points)))
        errors.append(f"CSV digest for seed {seed} differs from the recorded one")
    return len(points), len(bad), errors
