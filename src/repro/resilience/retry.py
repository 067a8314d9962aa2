"""Reusable deadline / backoff / retry primitives for master↔worker paths.

Every reply the master waits on — phase-1 gathers, phase-2 gathers, the
init/grow/restore handshakes, snapshots, the farewell on
``close()`` — shares the same waiting discipline: split a total reply
deadline into exponentially growing poll windows, check process liveness at
every window boundary, count windows that expire without a reply as
*retries*, and declare a *timeout* only when the final window expires. That
discipline used to be hand-rolled inside the backend's gather loop; these
primitives express it once so every path (and every future transport) gets
identical semantics and identical telemetry.

- :class:`Backoff` — the window schedule: ``timeout`` split into
  ``max_retries`` windows of doubling length (window *i* spans
  ``timeout * 2**i / (2**n - 1)`` seconds, so the windows sum exactly to
  the deadline). ``timeout=None`` means *poll forever*: an endless train of
  1-second windows that never produces a timeout (liveness is still checked
  at each boundary, so a crashed peer is always detected).
- :class:`Deadline` — one peer's position inside a :class:`Backoff`
  schedule: when its current window is due, and what expiring it means
  (``"retry"``, ``"timeout"``, or ``"poll"`` for the unbounded schedule).
- :class:`RetryPolicy` — the user-facing bundle (``timeout`` +
  ``max_retries``) that validates its inputs once and mints
  :class:`Deadline` instances for each wait.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.utils.validation import check_positive_int, check_timeout

#: window length [s] of the unbounded (``timeout=None``) schedule.
POLL_FOREVER_WINDOW = 1.0


@dataclass(frozen=True)
class Backoff:
    """An exponential poll-window schedule summing to a total timeout."""

    timeout: float | None
    max_retries: int = 3

    def windows(self) -> tuple[float, ...] | None:
        """The window lengths [s], or ``None`` for the unbounded schedule."""
        if self.timeout is None:
            return None
        n = self.max_retries
        total = float(2**n - 1)
        return tuple(self.timeout * (2**i) / total for i in range(n))


class Deadline:
    """One peer's reply deadline, tracked across backoff windows.

    ``due_at`` is the absolute time the current window expires. Expiring a
    window via :meth:`expire` advances to the next one and classifies the
    expiry; the caller decides what a ``"retry"`` or ``"timeout"`` means
    (bump a counter, raise a typed error, heal the peer out).
    """

    __slots__ = ("_windows", "attempt", "due_at")

    def __init__(self, windows: tuple[float, ...] | None, now: float):
        self._windows = windows
        self.attempt = 0
        first = POLL_FOREVER_WINDOW if windows is None else windows[0]
        self.due_at = now + first

    def due(self, now: float) -> bool:
        return now >= self.due_at

    def remaining(self, now: float) -> float:
        return max(0.0, self.due_at - now)

    def expire(self, now: float) -> str:
        """Consume the current window; returns the expiry kind.

        - ``"poll"``: unbounded schedule — open the next 1 s window.
        - ``"retry"``: a non-final window expired — open the next, longer one.
        - ``"timeout"``: the final window expired — the deadline is spent.
        """
        if self._windows is None:
            self.due_at = now + POLL_FOREVER_WINDOW
            return "poll"
        self.attempt += 1
        if self.attempt >= len(self._windows):
            return "timeout"
        self.due_at = now + self._windows[self.attempt]
        return "retry"


@dataclass(frozen=True)
class RetryPolicy:
    """Validated (timeout, max_retries) bundle; a :class:`Deadline` factory.

    ``timeout=None`` waits forever in 1 s liveness-checked windows. The
    policy is immutable and shared: each wait mints fresh per-peer
    :class:`Deadline` trackers with :meth:`deadline`.
    """

    timeout: float | None = 30.0
    max_retries: int = 3

    def __post_init__(self):
        check_timeout(self.timeout, "timeout")
        check_positive_int(self.max_retries, "max_retries")

    def backoff(self) -> Backoff:
        return Backoff(self.timeout, self.max_retries)

    def windows(self) -> tuple[float, ...] | None:
        return self.backoff().windows()

    def deadline(self, now: float) -> Deadline:
        return Deadline(self.windows(), now)
