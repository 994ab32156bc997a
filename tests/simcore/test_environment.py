"""Unit tests for the Environment scheduler/run loop."""

import pytest

from repro.simcore import Environment
from repro.simcore.environment import EmptySchedule


def test_clock_starts_at_initial_time():
    assert Environment().now == 0.0
    assert Environment(initial_time=100.0).now == 100.0


def test_run_until_time_stops_exactly():
    env = Environment()
    fired = []
    for delay in (1, 5, 10):
        env.timeout(delay).add_callback(lambda e, d=delay: fired.append(d))
    env.run(until=5)
    assert env.now == 5
    assert fired == [1, 5]
    env.run()
    assert fired == [1, 5, 10]


def test_run_until_past_time_rejected():
    env = Environment()
    env.timeout(10)
    env.run()
    with pytest.raises(ValueError):
        env.run(until=5)


def test_run_until_event_returns_value():
    env = Environment()
    assert env.run(env.timeout(3, value="v")) == "v"


def test_run_until_processed_event_returns_immediately():
    env = Environment()
    t = env.timeout(1, value="x")
    env.run()
    assert env.run(t) == "x"
    assert env.now == 1


def test_run_until_failed_processed_event_raises():
    env = Environment()

    def proc(env):
        yield env.timeout(1)
        raise KeyError("gone")

    p = env.process(proc(env))
    with pytest.raises(KeyError):
        env.run(p)
    with pytest.raises(KeyError):
        env.run(p)  # already processed: re-raises immediately


def test_run_until_event_resumes_waiters_that_joined_during_the_run():
    """A process that starts waiting on the stop event after ``run``
    began still wakes when it fires, in the same run."""
    env = Environment()
    ev = env.event()
    woke = []

    def waiter(env):
        yield env.timeout(1)
        value = yield ev
        woke.append((env.now, value))

    def firer(env):
        yield env.timeout(2)
        ev.succeed("x")

    env.process(waiter(env))
    env.process(firer(env))
    assert env.run(until=ev) == "x"
    assert woke == [(2, "x")]
    env.run()
    assert woke == [(2, "x")]


def test_run_until_event_that_can_never_fire():
    env = Environment()
    orphan = env.event()
    env.timeout(1)
    with pytest.raises(RuntimeError, match="has not fired"):
        env.run(orphan)


def test_step_on_empty_schedule_raises():
    env = Environment()
    with pytest.raises(EmptySchedule):
        env.step()


def test_peek_reports_next_event_time():
    env = Environment()
    assert env.peek() == float("inf")
    env.timeout(7)
    env.timeout(3)
    assert env.peek() == 3


def test_run_to_exhaustion_returns_none():
    env = Environment()
    env.timeout(2)
    assert env.run() is None
    assert env.now == 2


def test_time_never_goes_backwards():
    env = Environment()
    times = []

    def proc(env):
        for delay in (5, 1, 3):  # delays stack, clock is monotonic
            yield env.timeout(delay)
            times.append(env.now)

    env.process(proc(env))
    env.run()
    assert times == sorted(times) == [5, 6, 9]


def test_many_events_heap_scales():
    env = Environment()
    count = [0]

    def proc(env, delay):
        yield env.timeout(delay)
        count[0] += 1

    for i in range(1000):
        env.process(proc(env, (i * 7919) % 100 + 0.5))
    env.run()
    assert count[0] == 1000
