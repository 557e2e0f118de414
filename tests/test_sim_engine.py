"""Unit tests for the discrete-event simulation kernel."""

import pytest

from repro.sim import (
    AllOf,
    AnyOf,
    Channel,
    ChannelClosed,
    EmptySchedule,
    Environment,
    Event,
    Interrupt,
    ProcessKilled,
    SimulationError,
)


def test_timeout_advances_clock():
    env = Environment()

    def proc():
        yield env.timeout(5)
        assert env.now == 5
        yield env.timeout(2.5)
        return env.now

    p = env.process(proc())
    assert env.run(p) == 7.5
    assert env.now == 7.5


def test_timeouts_fire_in_order():
    env = Environment()
    fired = []

    def waiter(delay, tag):
        yield env.timeout(delay)
        fired.append(tag)

    env.process(waiter(3, "c"))
    env.process(waiter(1, "a"))
    env.process(waiter(2, "b"))
    env.run()
    assert fired == ["a", "b", "c"]


def test_same_time_events_fifo():
    env = Environment()
    fired = []

    def waiter(tag):
        yield env.timeout(1)
        fired.append(tag)

    for tag in range(5):
        env.process(waiter(tag))
    env.run()
    assert fired == [0, 1, 2, 3, 4]


def test_process_return_value():
    env = Environment()

    def inner():
        yield env.timeout(1)
        return 42

    def outer():
        value = yield env.process(inner())
        return value + 1

    assert env.run(env.process(outer())) == 43


def test_process_exception_propagates_to_waiter():
    env = Environment()

    def failing():
        yield env.timeout(1)
        raise ValueError("boom")

    def waiter():
        try:
            yield env.process(failing())
        except ValueError as exc:
            return str(exc)

    assert env.run(env.process(waiter())) == "boom"


def test_unhandled_process_failure_raises_from_run():
    env = Environment()

    def failing():
        yield env.timeout(1)
        raise ValueError("unseen")

    env.process(failing())
    with pytest.raises(ValueError):
        env.run()


def test_run_until_time():
    env = Environment()
    log = []

    def ticker():
        while True:
            yield env.timeout(10)
            log.append(env.now)

    env.process(ticker())
    env.run(until=35)
    assert log == [10, 20, 30]
    assert env.now == 35


def test_run_until_past_raises():
    env = Environment()
    env.run(until=10)
    with pytest.raises(SimulationError):
        env.run(until=5)


def test_yield_already_triggered_event_resumes():
    env = Environment()
    ev = env.event()
    ev.succeed("early")

    def proc():
        value = yield ev
        return value

    # Let the event be processed before the process yields it.
    env.run(until=0)
    assert env.run(env.process(proc())) == "early"


def test_interrupt_wakes_process():
    env = Environment()
    caught = []

    def sleeper():
        try:
            yield env.timeout(100)
        except Interrupt as intr:
            caught.append((env.now, intr.cause))

    p = env.process(sleeper())

    def interrupter():
        yield env.timeout(5)
        p.interrupt("wake-up")

    env.process(interrupter())
    env.run()
    assert caught == [(5, "wake-up")]


def test_kill_terminates_silently():
    env = Environment()
    progressed = []

    def victim():
        yield env.timeout(10)
        progressed.append("too far")

    p = env.process(victim())

    def killer():
        yield env.timeout(1)
        p.kill("crash")

    env.process(killer())
    env.run()
    assert progressed == []
    assert not p.is_alive
    assert isinstance(p.value, ProcessKilled)


def test_waiting_on_killed_process_raises_processkilled():
    env = Environment()

    def victim():
        yield env.timeout(10)

    p = env.process(victim())

    def watcher():
        try:
            yield p
        except ProcessKilled as exc:
            return ("killed", exc.reason)

    w = env.process(watcher())

    def killer():
        yield env.timeout(1)
        p.kill("cpu down")

    env.process(killer())
    assert env.run(w) == ("killed", "cpu down")


def test_any_of_first_wins():
    env = Environment()

    def proc():
        fast = env.timeout(1, value="fast")
        slow = env.timeout(10, value="slow")
        result = yield env.any_of([fast, slow])
        return (env.now, list(result.values()))

    assert env.run(env.process(proc())) == (1, ["fast"])


def test_all_of_waits_for_all():
    env = Environment()

    def proc():
        a = env.timeout(1, value="a")
        b = env.timeout(5, value="b")
        result = yield env.all_of([a, b])
        return (env.now, sorted(result.values()))

    assert env.run(env.process(proc())) == (5, ["a", "b"])


def test_all_of_empty_triggers_immediately():
    env = Environment()

    def proc():
        yield env.all_of([])
        return env.now

    assert env.run(env.process(proc())) == 0


# ----------------------------------------------------------------------
# A triggered condition releases the constituents still pending
# ----------------------------------------------------------------------
def test_any_of_unhooks_the_loser_once_triggered():
    env = Environment()
    slow = env.timeout(10, value="slow")

    def proc():
        result = yield env.any_of([env.timeout(1, value="fast"), slow])
        return list(result.values())

    assert env.run(env.process(proc())) == ["fast"]
    assert slow.callbacks == [] and slow.defused
    env.run()
    assert env.now == 10  # the loser still fires on schedule


@pytest.mark.parametrize("combine", [AnyOf, AllOf], ids=["any_of", "all_of"])
def test_late_failure_after_trigger_does_not_abort_run(combine):
    env = Environment()
    first = env.event()
    late = env.event()

    def proc():
        try:
            yield combine(env, [first, late])
        except RuntimeError:
            pass  # AllOf fails on the first failure

    env.process(proc())

    def fire():
        yield env.timeout(1)
        if combine is AnyOf:
            first.succeed("won")
        else:
            first.fail(RuntimeError("first"))
        yield env.timeout(1)
        late.fail(RuntimeError("late"))

    env.process(fire())
    env.run()  # the late failure is owned by the condition: no abort
    assert late.processed and late.defused


def test_condition_triggered_in_constructor_releases_the_rest():
    env = Environment()
    done_a, done_b = env.event(), env.event()
    done_a.succeed("a")
    done_b.succeed("b")
    env.run()
    pending = env.event()
    condition = env.any_of([done_a, done_b, pending])
    assert condition.triggered
    assert pending.callbacks == [] and pending.defused
    env.run()
    assert condition.value == {done_a: "a", done_b: "b"}


def test_yield_non_event_fails_process():
    env = Environment()

    def bad():
        yield 42

    p = env.process(bad())
    with pytest.raises(SimulationError):
        env.run(p)


def test_step_on_empty_schedule_raises():
    env = Environment()
    with pytest.raises(EmptySchedule):
        env.step()


class TestChannel:
    def test_put_then_get(self):
        env = Environment()
        ch = Channel(env)

        def proc():
            ch.put("x")
            value = yield ch.get()
            return value

        assert env.run(env.process(proc())) == "x"

    def test_get_blocks_until_put(self):
        env = Environment()
        ch = Channel(env)

        def getter():
            value = yield ch.get()
            return (env.now, value)

        def putter():
            yield env.timeout(7)
            ch.put("late")

        g = env.process(getter())
        env.process(putter())
        assert env.run(g) == (7, "late")

    def test_fifo_ordering(self):
        env = Environment()
        ch = Channel(env)
        got = []

        def getter(tag):
            value = yield ch.get()
            got.append((tag, value))

        env.process(getter("g1"))
        env.process(getter("g2"))

        def putter():
            yield env.timeout(1)
            ch.put("first")
            ch.put("second")

        env.process(putter())
        env.run()
        assert got == [("g1", "first"), ("g2", "second")]

    def test_close_fails_getters(self):
        env = Environment()
        ch = Channel(env)

        def getter():
            try:
                yield ch.get()
            except ChannelClosed:
                return "closed"

        g = env.process(getter())

        def closer():
            yield env.timeout(1)
            ch.close("owner died")

        env.process(closer())
        assert env.run(g) == "closed"
        assert ch.put("ignored") is False

    def test_cancelled_getter_skipped(self):
        env = Environment()
        ch = Channel(env)
        got = []

        def impatient():
            get_ev = ch.get()
            result = yield env.any_of([get_ev, env.timeout(1, value="timeout")])
            if get_ev in result:
                got.append(("impatient", result[get_ev]))
            else:
                ch.cancel(get_ev)
                got.append(("impatient", "gave up"))

        def patient():
            value = yield ch.get()
            got.append(("patient", value))

        env.process(impatient())
        env.process(patient())

        def putter():
            yield env.timeout(5)
            ch.put("item")

        env.process(putter())
        env.run()
        assert ("impatient", "gave up") in got
        assert ("patient", "item") in got
