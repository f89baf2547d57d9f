"""Check stage: statistical regression detectors over stored profiles.

The paper reports distributions, not scalars, for its overhead
comparisons — the bench gate should too.  Host noise makes raw
best-of-N thresholds unreliable (the 64-core trajectory entry needed a
manual paired A/B protocol), so verdicts here come from two pure,
stdlib-only detectors over the per-repeat sample distributions the
store keeps, and every scenario is judged by both:

* :func:`mann_whitney` — one-sided Mann-Whitney U rank test that the
  current throughput distribution is stochastically *smaller* than the
  baseline's (normal approximation with tie correction);
* :func:`bootstrap_median` — seeded bootstrap confidence interval on
  the ratio of medians; regression when the whole interval sits below
  ``1 - min_effect``.

A scenario regresses when either detector flags it.  Both detectors
first normalize the current samples by the host-calibration ratio (a
host that measures 1.3× slower on the fixed spin+hash microbenchmark
is *expected* to simulate 1.3× slower), and both gate on a
practical-effect floor as well as significance — a statistically
detectable 0.5 % dip is noise to us, and the floor is what drives the
false-positive rate on noise-only distributions to zero.  Neither
statistic means anything below :data:`MIN_SAMPLES` samples per side,
so a sample-starved pair is never judged: it fails the gate as
*insufficient*.  Each scenario is judged against the newest stored
entry that measured it, and one that no entry measured fails as
*missing* — the gate never passes by judging less than it ran.
Detectors are pure functions of (baseline samples, current samples,
calibration ratio), so every verdict is unit-testable without running
the simulator.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from statistics import median
from typing import Any, Dict, List, Optional, Sequence

from .collect import BenchResult
from .store import entry_samples

#: Samples each side needs before either detector may judge a pair.
MIN_SAMPLES = 5
#: One-sided significance level for rank-test verdicts.
ALPHA = 0.01
#: Practical-effect floor: drops smaller than this are never flagged.
MIN_EFFECT = 0.05
#: Bootstrap resample count and fixed seed (verdicts are deterministic).
BOOTSTRAP_RESAMPLES = 400
BOOTSTRAP_SEED = 20260808
BOOTSTRAP_CONFIDENCE = 0.95


def calibration_ratio(
    base_calibration: Optional[float], current_calibration: Optional[float]
) -> float:
    """How much slower the current host measures than the baseline host.

    ``> 1`` means the current host is slower: its throughput samples are
    multiplied by this ratio to land on the baseline host's scale.  With
    either measurement missing, the ratio degrades to 1.0 (no
    normalization) — the detectors then judge raw throughput.
    """
    if not base_calibration or not current_calibration:
        return 1.0
    if base_calibration <= 0 or current_calibration <= 0:
        return 1.0
    return current_calibration / base_calibration


def normalize_samples(samples: Sequence[float], ratio: float) -> List[float]:
    """Scale throughput samples onto the baseline host's speed."""
    return [s * ratio for s in samples]


@dataclass(frozen=True)
class DetectorVerdict:
    """One detector's judgement of one baseline/current sample pair."""

    detector: str
    regressed: bool
    #: median(current, normalized) / median(baseline); < 1 is a slowdown.
    median_ratio: float
    #: Calibration ratio the current samples were normalized by.
    calibration_ratio: float = 1.0
    p_value: Optional[float] = None
    ci_low: Optional[float] = None
    ci_high: Optional[float] = None
    detail: str = ""

    def to_dict(self) -> Dict[str, Any]:
        payload: Dict[str, Any] = {
            "detector": self.detector,
            "regressed": self.regressed,
            "median_ratio": round(self.median_ratio, 4),
            "calibration_ratio": round(self.calibration_ratio, 4),
            "detail": self.detail,
        }
        if self.p_value is not None:
            payload["p_value"] = round(self.p_value, 6)
        if self.ci_low is not None:
            payload["ci_low"] = round(self.ci_low, 4)
        if self.ci_high is not None:
            payload["ci_high"] = round(self.ci_high, 4)
        return payload


def _median_ratio(base: Sequence[float], cur: Sequence[float],
                  ratio: float) -> float:
    if not base or not cur:
        return 1.0
    base_med = median(base)
    if base_med <= 0:
        return 1.0
    return median(normalize_samples(cur, ratio)) / base_med


def _ranks(values: Sequence[float]) -> tuple:
    """Average ranks (1-based, ties averaged) and the tie-correction sum."""
    n = len(values)
    order = sorted(range(n), key=values.__getitem__)
    ranks = [0.0] * n
    tie_sum = 0.0
    i = 0
    while i < n:
        j = i
        while j + 1 < n and values[order[j + 1]] == values[order[i]]:
            j += 1
        avg = (i + j) / 2.0 + 1.0
        for k in range(i, j + 1):
            ranks[order[k]] = avg
        t = j - i + 1
        tie_sum += t * t * t - t
        i = j + 1
    return ranks, tie_sum


def _shortfall(base: Sequence[float], cur: Sequence[float]) -> str:
    """Why the pair is too small to judge, or "" when it is not."""
    if len(base) >= MIN_SAMPLES and len(cur) >= MIN_SAMPLES:
        return ""
    return (f"needs >= {MIN_SAMPLES} samples per side "
            f"(baseline {len(base)}, current {len(cur)})")


def _require_samples(base: Sequence[float], cur: Sequence[float]) -> None:
    shortfall = _shortfall(base, cur)
    if shortfall:
        raise ValueError(shortfall)


def mann_whitney(
    base: Sequence[float],
    cur: Sequence[float],
    cal_ratio: float = 1.0,
    alpha: float = ALPHA,
    min_effect: float = MIN_EFFECT,
) -> DetectorVerdict:
    """One-sided Mann-Whitney U: is current stochastically slower?

    Normal approximation with tie correction and continuity correction;
    exact enough from ~5 samples per side, and the verdict additionally
    requires the observed median drop to exceed ``min_effect`` so a
    significant-but-tiny shift never fires the gate.  Raises
    ``ValueError`` below :data:`MIN_SAMPLES` samples on either side.
    """
    _require_samples(base, cur)
    cur_norm = normalize_samples(cur, cal_ratio)
    n1, n2 = len(cur_norm), len(base)
    combined = list(cur_norm) + list(base)
    ranks, tie_sum = _ranks(combined)
    rank_cur = sum(ranks[:n1])
    u_cur = rank_cur - n1 * (n1 + 1) / 2.0
    mu = n1 * n2 / 2.0
    total = n1 + n2
    var = (n1 * n2 / 12.0) * (
        (total + 1) - tie_sum / (total * (total - 1))
    )
    med_ratio = _median_ratio(base, cur, cal_ratio)
    if var <= 0:
        # Every sample identical: nothing moved, nothing to flag.
        return DetectorVerdict(
            detector="mann_whitney", regressed=False,
            median_ratio=med_ratio, calibration_ratio=cal_ratio,
            p_value=1.0, detail="degenerate (all samples tied)",
        )
    z = (u_cur - mu + 0.5) / math.sqrt(var)
    p_value = 0.5 * math.erfc(-z / math.sqrt(2.0))  # P(U <= u_cur)
    drop = 1.0 - med_ratio
    regressed = p_value < alpha and drop >= min_effect
    return DetectorVerdict(
        detector="mann_whitney", regressed=regressed,
        median_ratio=med_ratio, calibration_ratio=cal_ratio,
        p_value=p_value,
        detail=(f"one-sided p={p_value:.4g} (alpha {alpha}), "
                f"median {'-' if drop >= 0 else '+'}{abs(drop):.1%} "
                f"(floor {min_effect:.0%})"),
    )


def bootstrap_median(
    base: Sequence[float],
    cur: Sequence[float],
    cal_ratio: float = 1.0,
    min_effect: float = MIN_EFFECT,
    resamples: int = BOOTSTRAP_RESAMPLES,
    seed: int = BOOTSTRAP_SEED,
    confidence: float = BOOTSTRAP_CONFIDENCE,
) -> DetectorVerdict:
    """Seeded bootstrap CI on median(current)/median(baseline).

    Resamples both sides with replacement ``resamples`` times from a
    fixed-seed ``random.Random`` (verdicts are bit-reproducible),
    takes the percentile interval of the median ratio, and flags a
    regression only when the *entire* interval sits below
    ``1 - min_effect`` — i.e. even the luckiest resampling of the data
    shows more than the practical-effect floor of slowdown.  Raises
    ``ValueError`` below :data:`MIN_SAMPLES` samples on either side.
    """
    _require_samples(base, cur)
    cur_norm = normalize_samples(cur, cal_ratio)
    rng = random.Random(seed)
    nb, nc = len(base), len(cur_norm)
    ratios = []
    for _ in range(max(1, resamples)):
        b_med = median(base[rng.randrange(nb)] for _ in range(nb))
        c_med = median(cur_norm[rng.randrange(nc)] for _ in range(nc))
        ratios.append(c_med / b_med if b_med > 0 else 1.0)
    ratios.sort()
    tail = (1.0 - confidence) / 2.0
    lo_idx = min(len(ratios) - 1, int(tail * len(ratios)))
    hi_idx = min(len(ratios) - 1, int((1.0 - tail) * len(ratios)))
    ci_low, ci_high = ratios[lo_idx], ratios[hi_idx]
    med_ratio = _median_ratio(base, cur, cal_ratio)
    regressed = ci_high < 1.0 - min_effect
    return DetectorVerdict(
        detector="bootstrap_median", regressed=regressed,
        median_ratio=med_ratio, calibration_ratio=cal_ratio,
        ci_low=ci_low, ci_high=ci_high,
        detail=(f"{confidence:.0%} CI on median ratio "
                f"[{ci_low:.3f}, {ci_high:.3f}] vs fail line "
                f"{1.0 - min_effect:.3f}"),
    )


def compare_samples(
    base: Sequence[float], cur: Sequence[float], cal_ratio: float = 1.0
) -> List[DetectorVerdict]:
    """Both detectors' verdicts on one sample pair."""
    return [mann_whitney(base, cur, cal_ratio=cal_ratio),
            bootstrap_median(base, cur, cal_ratio=cal_ratio)]


@dataclass
class ScenarioCheck:
    """Aggregated check outcome for one scenario."""

    scenario: str
    regressed: bool
    median_ratio: float
    verdicts: List[DetectorVerdict] = field(default_factory=list)
    detail: str = ""
    #: A side had fewer than :data:`MIN_SAMPLES` samples, so no
    #: detector ran; the gate fails rather than guess.
    insufficient: bool = False
    #: No baseline entry measured the scenario; the gate fails.
    missing: bool = False

    def to_dict(self) -> Dict[str, Any]:
        return {
            "scenario": self.scenario,
            "regressed": self.regressed,
            "insufficient": self.insufficient,
            "missing": self.missing,
            "median_ratio": round(self.median_ratio, 4),
            "verdicts": [v.to_dict() for v in self.verdicts],
            "detail": self.detail,
        }


def check_entry_pair(
    base_entry: Dict[str, Any], cur_entry: Dict[str, Any], scenario: str
) -> Optional[ScenarioCheck]:
    """Judge one scenario between two stored entries (bisect's unit)."""
    base = entry_samples(base_entry, scenario)
    cur = entry_samples(cur_entry, scenario)
    if not base or not cur:
        return None
    ratio = calibration_ratio(base_entry.get("host_calibration"),
                              cur_entry.get("host_calibration"))
    return _judge(scenario, base, cur, ratio)


def check_results(
    results: Dict[str, BenchResult],
    baselines: Dict[str, Optional[Dict[str, Any]]],
    calibration: Optional[float] = None,
) -> Dict[str, ScenarioCheck]:
    """Judge a fresh ``run_bench`` result set, scenario by scenario.

    ``baselines`` maps each scenario to the stored entry it is judged
    against: the newest entry of this environment and mode that measured
    it (``store.baseline_entry(..., scenario=name)``), normalized by that
    entry's own host calibration.  A scenario without one fails as
    *missing* rather than being skipped.
    """
    checks: Dict[str, ScenarioCheck] = {}
    for name, result in results.items():
        baseline = baselines.get(name)
        if baseline is None:
            checks[name] = ScenarioCheck(
                scenario=name, regressed=False, median_ratio=math.nan,
                missing=True, detail="no baseline entry measured it")
            continue
        ratio = calibration_ratio(baseline.get("host_calibration"), calibration)
        checks[name] = _judge(name, entry_samples(baseline, name),
                              result.samples_ops_per_sec, ratio)
    return checks


def _judge(
    scenario: str,
    base: Sequence[float],
    cur: Sequence[float],
    cal_ratio: float,
) -> ScenarioCheck:
    med_ratio = _median_ratio(base, cur, cal_ratio)
    shortfall = _shortfall(base, cur)
    if shortfall:
        return ScenarioCheck(scenario=scenario, regressed=False,
                             median_ratio=med_ratio, insufficient=True,
                             detail=f"not judged: {shortfall}")
    verdicts = compare_samples(base, cur, cal_ratio=cal_ratio)
    flagged = [v.detector for v in verdicts if v.regressed]
    return ScenarioCheck(
        scenario=scenario,
        regressed=bool(flagged),
        median_ratio=med_ratio,
        verdicts=verdicts,
        detail=(f"flagged by {', '.join(flagged)}" if flagged
                else f"passed {len(verdicts)} detectors"),
    )
