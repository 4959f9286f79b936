"""Stateful property test: Channel vs an abstract two-phase queue model.

Hypothesis drives random interleavings of push / pop / begin_cycle against
a plain-Python reference model of the intended semantics (staged pushes
become visible at the next cycle boundary; firing rules answered against
the cycle-start snapshot; at most one beat per direction per cycle). Any
divergence in observable behaviour — firing-rule answers or popped
values — is a bug in the channel.

The machine may also attach a test-double fault to both: one that holds
every commit for ``n`` cycles, so several staged beats pile up behind the
committed ones, and one that edits a staged beat on every consult, so a
popped value shows whether the edit was written back to the right beat.
"""

from collections import deque

from hypothesis import settings
from hypothesis.stateful import RuleBasedStateMachine, invariant, precondition, rule
from hypothesis import strategies as st

from repro.dataflow.channel import Channel
from repro.faults.injectors import CompositeFault


class HoldFault:
    """Holds every batch of staged beats for ``n`` commit attempts."""

    def __init__(self, n):
        self.n = n
        self._left = None

    def on_commit(self, ch, staged):
        if self._left is None:
            self._left = self.n
        if self._left:
            self._left -= 1
            return False
        self._left = None
        return True


class EditFault:
    """Wraps one staged beat per consult, walking the staged list."""

    def __init__(self):
        self.consults = 0

    def on_commit(self, ch, staged):
        self.consults += 1
        j = self.consults % len(staged)
        staged[j] = ("edited", staged[j])
        return True


FAULTS = {
    "none": lambda n: None,
    "hold": HoldFault,
    "edit": lambda n: EditFault(),
    "edit+hold": lambda n: CompositeFault([EditFault(), HoldFault(n)]),
}


class ChannelModel:
    """Reference semantics of a capacity-``cap`` two-phase channel."""

    def __init__(self, cap, fault=None):
        self.cap = cap
        self.fault = fault
        self.committed = deque()
        self.staged = []
        self.visible_at_start = 0
        self.pushed = 0
        self.popped = 0

    def begin_cycle(self):
        if self.staged and (
            self.fault is None or self.fault.on_commit(None, self.staged)
        ):
            self.committed.extend(self.staged)
            self.staged.clear()
        self.visible_at_start = len(self.committed)
        self.pushed = 0
        self.popped = 0

    def can_push(self):
        if self.pushed:
            return False
        if self.cap is None:
            return True
        return self.visible_at_start + len(self.staged) < self.cap

    def can_pop(self):
        return self.popped == 0 and self.popped < self.visible_at_start

    def push(self, v):
        self.staged.append(v)
        self.pushed += 1

    def pop(self):
        self.popped += 1
        return self.committed.popleft()


class ChannelComparison(RuleBasedStateMachine):
    def __init__(self):
        super().__init__()
        self.counter = 0
        self.cap = None
        self.ch = None
        self.model = None

    @precondition(lambda self: self.ch is None)
    @rule(
        cap=st.one_of(st.none(), st.integers(1, 5)),
        fault=st.sampled_from(sorted(FAULTS)),
        hold=st.integers(1, 3),
    )
    def create(self, cap, fault, hold):
        self.cap = cap
        self.ch = Channel("ch", cap)
        self.ch._fault = FAULTS[fault](hold)
        self.model = ChannelModel(cap, FAULTS[fault](hold))
        self.ch.begin_cycle()
        self.model.begin_cycle()

    @precondition(lambda self: self.ch is not None)
    @rule()
    def begin_cycle(self):
        self.ch.begin_cycle()
        self.model.begin_cycle()

    @precondition(lambda self: self.ch is not None)
    @rule()
    def push_if_possible(self):
        assert self.ch.can_push() == self.model.can_push()
        if self.model.can_push():
            self.counter += 1
            self.ch.push(self.counter)
            self.model.push(self.counter)

    @precondition(lambda self: self.ch is not None)
    @rule()
    def pop_if_possible(self):
        assert self.ch.can_pop() == self.model.can_pop()
        if self.model.can_pop():
            assert self.ch.pop() == self.model.pop()

    @invariant()
    def occupancy_agrees(self):
        if self.ch is None:
            return
        assert self.ch.occupancy == len(self.model.committed)
        assert len(self.ch) == len(self.model.committed) + len(self.model.staged)
        # One deque: the committed beats, then the staged tail, edits and all.
        assert list(self.ch._q) == [*self.model.committed, *self.model.staged]


TestChannelStateful = ChannelComparison.TestCase
TestChannelStateful.settings = settings(
    max_examples=60, stateful_step_count=40, deadline=None
)


def test_held_commit_keeps_a_staged_tail():
    """Three beats staged behind a held commit, one of them edited, pinned
    beat for beat: the tail commits at once when the hold ends."""
    ch = Channel("ch", 4)
    ch._fault = CompositeFault([EditFault(), HoldFault(2)])
    ch.begin_cycle()
    ch.push(1)
    ch.begin_cycle()  # held (1st), edits beat 1 % 1 = 0
    assert (ch.occupancy, len(ch)) == (0, 1)
    assert not ch.can_pop() and ch.can_push()
    ch.push(2)
    ch.begin_cycle()  # held (2nd), edits beat 2 % 2 = 0 again
    ch.push(3)
    assert (ch.occupancy, len(ch)) == (0, 3)
    assert not ch.can_push()  # one push per cycle
    ch.begin_cycle()  # commits after editing beat 3 % 3 = 0 once more
    assert (ch.occupancy, len(ch)) == (3, 3)
    assert ch.stats.high_water == 3
    edited = ("edited", ("edited", ("edited", 1)))
    assert ch.can_push() and ch.can_pop()
    assert ch.pop() == edited
    ch.begin_cycle()
    assert ch.pop() == 2
    ch.begin_cycle()
    assert ch.pop() == 3
    assert (ch.occupancy, len(ch)) == (0, 0)
