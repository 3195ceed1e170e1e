"""The three annotated conflict dimensions and the integer score scale.

Polarity convention: higher scores always mean the second-named pole
(agreeing / respectful / factual), so a positive regression slope reads as a
shift toward that pole.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class Dimension:
    name: str
    negative_pole: str
    positive_pole: str


DISAGREE_VS_AGREE = Dimension("disagree_vs_agree", "disagreeing", "agreeing")
ATTACKING_VS_RESPECTFUL = Dimension("attacking_vs_respectful", "attacking", "respectful")
EMOTIONAL_VS_FACTUAL = Dimension("emotional_vs_factual", "emotional", "factual")

DIMENSIONS: tuple[Dimension, ...] = (
    DISAGREE_VS_AGREE,
    ATTACKING_VS_RESPECTFUL,
    EMOTIONAL_VS_FACTUAL,
)
NAMES: tuple[str, ...] = tuple(d.name for d in DIMENSIONS)

_BY_NAME = {d.name: d for d in DIMENSIONS}


def dimension_by_name(name: str) -> Dimension:
    try:
        return _BY_NAME[name]
    except KeyError:
        raise ValueError(f"unknown dimension {name!r}; expected one of "
                         f"{sorted(_BY_NAME)}") from None


@dataclass(frozen=True)
class AnnotationScale:
    """Inclusive integer score range within -127..127; must straddle zero."""

    min: int = -5
    max: int = 5

    def __post_init__(self) -> None:
        if not (self.min < 0 < self.max):
            raise ValueError(f"scale must satisfy min < 0 < max, got "
                             f"[{self.min}, {self.max}]")
        if self.min < -127 or self.max > 127:  # the cache holds int8 scores
            raise ValueError(f"scale bounds must lie in -127..127, got "
                             f"[{self.min}, {self.max}]")

    @property
    def n_points(self) -> int:
        return self.max - self.min + 1

    def contains(self, value: int) -> bool:
        return self.min <= value <= self.max
