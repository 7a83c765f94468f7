"""Measurement week calendar.

The paper's pipeline is week-driven (toplists refreshed Thursdays, zone
files Wednesdays, scans started Fridays).  We model measurement time as
ISO (year, week) pairs with simple arithmetic; the world timeline keys
events by week.
"""

from __future__ import annotations

import datetime as _dt
from dataclasses import dataclass
from functools import total_ordering
from typing import Iterator


@total_ordering
@dataclass(frozen=True)
class Week:
    """An ISO calendar week, e.g. ``Week(2023, 15)``."""

    year: int
    week: int

    def __post_init__(self) -> None:
        if not 1 <= self.week <= 53:
            raise ValueError(f"week out of range: {self.week}")
        if not _dt.MINYEAR <= self.year <= _dt.MAXYEAR:
            raise ValueError(f"year out of range: {self.year}")
        # Dec 28 always falls in its ISO year's last week.
        if self.week == 53 and _dt.date(self.year, 12, 28).isocalendar()[1] != 53:
            raise ValueError(f"ISO year {self.year} has no week 53")

    @classmethod
    def from_date(cls, date: _dt.date) -> "Week":
        iso = date.isocalendar()
        return cls(iso[0], iso[1])

    def monday(self) -> _dt.date:
        return _dt.date.fromisocalendar(self.year, self.week, 1)

    def ordinal(self) -> int:
        """Days since epoch of this week's Monday; basis for arithmetic."""
        return self.monday().toordinal()

    def __lt__(self, other: "Week") -> bool:
        return self.ordinal() < other.ordinal()

    def __add__(self, weeks: int) -> "Week":
        return Week.from_date(self.monday() + _dt.timedelta(weeks=weeks))

    def __sub__(self, other: "Week") -> int:
        """Number of whole weeks between two weeks."""
        return (self.ordinal() - other.ordinal()) // 7

    def month_label(self) -> str:
        """Label like ``22-06`` used on the paper's time axes."""
        monday = self.monday()
        return f"{monday.year % 100:02d}-{monday.month:02d}"

    def __str__(self) -> str:
        return f"{self.year}-W{self.week:02d}"


def week_range(start: Week, end: Week) -> Iterator[Week]:
    """Yield weeks from ``start`` to ``end`` inclusive."""
    current = start
    while current <= end:
        yield current
        current = current + 1
