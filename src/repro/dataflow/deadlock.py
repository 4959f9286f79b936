"""Pairing runtime deadlocks with static diagnostics.

*Whether* a bounded FIFO is deep enough is answered statically, in one
place per structure: ``repro.sst.sizing.chain_run_ahead`` for literal
filter chains, ``repro.analysis.graph_rules.fork_join_pairs`` for
reconvergent branches (DESIGN.md sections 9 and 14). This module is the
*runtime* half. The event scheduler raises
:class:`~repro.errors.DeadlockError` exactly when no process can ever run
again (the lock-step oracle after ``stall_limit`` idle cycles), and either
engine reads the report off the wait descriptors the live processes last
yielded: the unsatisfied channel conditions of every parked process in
``DeadlockError.channels``, the same conditions rendered per actor in
``DeadlockError.blocked``.
:func:`shrink_agreement` cross-references those against a static
:class:`~repro.analysis.AnalysisReport`, which is how ``repro faultsim``
and the depth prover's probes show that a simulated FIFO-shrink deadlock
lands on the very channel the static verifier flagged.
"""

from __future__ import annotations

import re
from typing import List, Sequence, Tuple

from repro.errors import DeadlockError


def names_channel(diag, channel: str) -> bool:
    """Whether a diagnostic's message or location names ``channel``.

    Boundary-checked: ``x.fifo1`` must not match inside ``x.fifo14``.
    """
    pat = re.compile(re.escape(channel) + r"(?![0-9A-Za-z_])")
    return bool(pat.search(diag.message) or pat.search(diag.location))


def match_deadlock_diagnostics(err: DeadlockError, report) -> List[tuple]:
    """Cross-reference a runtime deadlock against static diagnostics.

    Returns ``(channel_name, diagnostic)`` pairs for every channel the
    deadlock blocked on (``err.channels``) that a
    diagnostic of ``report`` (an :class:`~repro.analysis.AnalysisReport`)
    names in its location or message. An empty result for a
    deliberately-broken design means the static verifier and the simulator
    disagree about *where* the network jams — exactly the regression the
    fault-injection agreement suite exists to catch.
    """
    return [
        (name, diag)
        for name in err.blocked_channel_names()
        for diag in report.diagnostics
        if names_channel(diag, name)
    ]


def shrink_agreement(
    err: DeadlockError, report, shrunk: Sequence[str]
) -> Tuple[List[str], list, List[str]]:
    """What a shrink deadlock and the static report say about each other.

    Returns ``(blocked, flagged, matched)``: the channels the deadlock
    blocked on, the error diagnostics of ``report`` that name one of the
    ``shrunk`` channels, and the sorted blocked channels some diagnostic
    names (:func:`match_deadlock_diagnostics`). Both shrink verdicts —
    ``faultsim``'s and the depth prover's depth-1 probe — read this.
    """
    flagged = [
        d for d in report.errors if any(names_channel(d, c) for c in shrunk)
    ]
    matched = sorted({name for name, _ in match_deadlock_diagnostics(err, report)})
    return err.blocked_channel_names(), flagged, matched
