"""Prediction structures of the helper cluster.

Three predictors are described in the paper, all built around the same
256-entry, PC-indexed, tagless table:

* **Width predictor (§3.2)** — one bit per entry remembering the width class
  (narrow / wide) of the last result produced by the instruction at that PC,
  plus a 2-bit confidence estimator; only high-confidence narrow predictions
  are allowed to steer an instruction to the helper cluster.  The paper
  reports ~93.5% accuracy, and the confidence gate reduces mispredictions
  that require recovery from 2.11% to 0.83%.
* **Carry-width predictor (§3.5, CR)** — an additional bit per entry that is
  set at writeback when the instruction's last occurrence operated on only
  the low 8 bits (one narrow and one wide source, wide result, carry not
  propagated past bit 7).
* **Copy-prefetch predictor (§3.6, CP)** — one more bit per entry, set when a
  producer instruction incurred an inter-cluster copy, triggering a prefetch
  of the copy at the producer on its next dynamic instance.  The paper
  reports ~90% accuracy for this predictor.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

from repro.isa.values import NARROW_WIDTH


@dataclass
class PredictorStats:
    """Accuracy bookkeeping shared by the predictors."""

    lookups: int = 0
    updates: int = 0
    correct: int = 0
    incorrect: int = 0

    @property
    def accuracy(self) -> float:
        total = self.correct + self.incorrect
        return self.correct / total if total else 0.0


class ConfidenceCounter:
    """A saturating 2-bit confidence counter."""

    __slots__ = ("value", "max_value")

    def __init__(self, initial: int = 0, bits: int = 2) -> None:
        self.max_value = (1 << bits) - 1
        if not 0 <= initial <= self.max_value:
            raise ValueError(f"initial value {initial} outside counter range")
        self.value = initial

    def increment(self) -> None:
        if self.value < self.max_value:
            self.value += 1

    def decrement(self) -> None:
        if self.value > 0:
            self.value -= 1

    def reset(self) -> None:
        self.value = 0

    def is_confident(self, threshold: int = 2) -> bool:
        return self.value >= threshold


@dataclass(slots=True)
class WidthPrediction:
    """Result of a width-predictor lookup."""

    narrow: bool
    confident: bool
    #: carry-width bit (CR): last occurrence operated on low 8 bits only
    carry_safe: bool = False
    #: copy-prefetch bit (CP): last occurrence incurred an inter-cluster copy
    will_copy: bool = False
    #: last observed result width in bits (two's complement), tracked when a
    #: width-aware cluster selector asks for it; ``None`` when untracked
    width_bits: Optional[int] = None


class _Entry:
    """One tagless table entry holding all per-PC prediction state."""

    __slots__ = ("narrow", "confidence", "carry_safe", "carry_confidence",
                 "will_copy", "width_bits", "_pred")

    def __init__(self) -> None:
        # Predict narrow by default: unseen instructions are the common case
        # early on and a wrong "narrow" guess is only acted upon when the
        # confidence gate is disabled.
        self.narrow = True
        self.confidence = ConfidenceCounter()
        self.carry_safe = False
        self.carry_confidence = ConfidenceCounter()
        self.will_copy = False
        #: memoised :class:`WidthPrediction` snapshot; predictions are
        #: immutable, so repeated lookups between updates share one object.
        #: Any update to the entry invalidates it.
        self._pred: Optional["WidthPrediction"] = None
        # Width-in-bits companion of the ``narrow`` bit, consumed by the
        # width-aware selector to pick the tightest-fitting helper cluster.
        self.width_bits = NARROW_WIDTH


class WidthPredictor:
    """The PC-indexed tagless width predictor with confidence estimation.

    The same physical table also hosts the CR and CP bits; they are exposed
    through :class:`CarryPredictor` and :class:`CopyPrefetchPredictor` views
    so each scheme can be enabled independently, exactly as the paper layers
    them.
    """

    def __init__(self, entries: int = 256, use_confidence: bool = True,
                 confidence_threshold: int = 2,
                 carry_confidence_threshold: int = 3) -> None:
        if entries <= 0 or (entries & (entries - 1)):
            raise ValueError("entries must be a positive power of two")
        self.entries = entries
        self.use_confidence = use_confidence
        self.confidence_threshold = confidence_threshold
        # CR mispredictions are expensive (flushing recovery), so the carry
        # bit is gated by a stricter (saturated) confidence requirement.
        self.carry_confidence_threshold = carry_confidence_threshold
        self._mask = entries - 1
        self._table: List[_Entry] = [_Entry() for _ in range(entries)]
        self.stats = PredictorStats()
        self.carry_stats = PredictorStats()
        self.copy_stats = PredictorStats()

    # ---------------------------------------------------------------- predict
    def predict(self, pc: int) -> WidthPrediction:
        """Predict the result width of the instruction at ``pc``.

        Predictions are immutable snapshots of the entry's state, so the
        entry memoises one and reuses it until the next update invalidates
        it — repeated lookups at a stable PC cost one dict probe, and the
        returned object is exactly what a fresh construction would hold.
        """
        entry = self._table[(pc >> 2) & self._mask]
        self.stats.lookups += 1
        prediction = entry._pred
        if prediction is None:
            confident = (not self.use_confidence
                         or entry.confidence.value >= self.confidence_threshold)
            prediction = WidthPrediction(
                narrow=entry.narrow,
                confident=confident,
                carry_safe=(entry.carry_safe and entry.carry_confidence.value
                            >= self.carry_confidence_threshold),
                will_copy=entry.will_copy,
                width_bits=entry.width_bits,
            )
            entry._pred = prediction
        return prediction

    # ----------------------------------------------------------------- update
    def update(self, pc: int, actual_narrow: bool,
               width_bits: Optional[int] = None) -> None:
        """Writeback-time update with the actual result width.

        ``width_bits`` — the result's two's-complement width — is recorded
        alongside the width-class bit when a width-aware selector tracks it;
        it never influences the ``narrow``/confidence state, so the default
        machines are untouched by the extra channel.
        """
        entry = self._table[(pc >> 2) & self._mask]
        entry._pred = None
        self.stats.updates += 1
        if width_bits is not None:
            entry.width_bits = width_bits
        if entry.narrow == actual_narrow:
            self.stats.correct += 1
            entry.confidence.increment()
        else:
            self.stats.incorrect += 1
            entry.confidence.reset()
            entry.narrow = actual_narrow

    def update_carry(self, pc: int, operated_narrow: bool) -> None:
        """Writeback-time update of the CR bit (§3.5)."""
        entry = self._table[(pc >> 2) & self._mask]
        entry._pred = None
        self.carry_stats.updates += 1
        if entry.carry_safe == operated_narrow:
            self.carry_stats.correct += 1
            entry.carry_confidence.increment()
        else:
            self.carry_stats.incorrect += 1
            entry.carry_confidence.reset()
            entry.carry_safe = operated_narrow

    def update_copy(self, pc: int, incurred_copy: bool) -> None:
        """Writeback-time update of the CP bit (§3.6)."""
        entry = self._table[(pc >> 2) & self._mask]
        entry._pred = None
        self.copy_stats.updates += 1
        if entry.will_copy == incurred_copy:
            self.copy_stats.correct += 1
        else:
            self.copy_stats.incorrect += 1
        entry.will_copy = incurred_copy

    def reset(self) -> None:
        self._table = [_Entry() for _ in range(self.entries)]
        self.stats = PredictorStats()
        self.carry_stats = PredictorStats()
        self.copy_stats = PredictorStats()


class CarryPredictor:
    """View over :class:`WidthPredictor` exposing only the CR scheme's bit."""

    def __init__(self, width_predictor: WidthPredictor) -> None:
        self._wp = width_predictor

    def predict_carry_safe(self, pc: int) -> bool:
        """True if the last occurrence at ``pc`` did not propagate a carry past bit 7."""
        return self._wp.predict(pc).carry_safe

    def update(self, pc: int, operated_narrow: bool) -> None:
        self._wp.update_carry(pc, operated_narrow)

    @property
    def stats(self) -> PredictorStats:
        return self._wp.carry_stats


class CopyPrefetchPredictor:
    """View over :class:`WidthPredictor` exposing only the CP scheme's bit."""

    def __init__(self, width_predictor: WidthPredictor) -> None:
        self._wp = width_predictor

    def predict_will_copy(self, pc: int) -> bool:
        """True if the producer at ``pc`` incurred an inter-cluster copy last time."""
        return self._wp.predict(pc).will_copy

    def update(self, pc: int, incurred_copy: bool) -> None:
        self._wp.update_copy(pc, incurred_copy)

    @property
    def stats(self) -> PredictorStats:
        return self._wp.copy_stats
