"""FREEZE: stored values are immutable images shared by reference.

A DISCPROCESS takes one frozen image of a record when the requester's
record enters it; the block, the audit images, the pair's checkpoints
and the replies then share that image.  The requester's file-system
client hands application code a plain dict, so an application can change
its copy without reaching the stored image, the backup's image or the
audit image.  The simulator's own bookkeeping obeys the same rule: a
triggered condition lets go of its losing constituents, so a finished
request's deadline timer keeps nothing alive.
"""

import copy
import gc
import json
import pickle
import random
import weakref

import pytest

from repro.apps.banking import debit_credit_program, install_banking, populate_banking
from repro.core import GetAudit
from repro.discprocess import (
    KEY_SEQUENCED,
    BoxcarPolicy,
    FileSchema,
    ForceBoxcar,
    FrozenList,
    FrozenRecord,
    PartitionSpec,
    freeze,
    thaw,
)
from repro.encompass import SystemBuilder
from repro.guardian import Cluster
from repro.workloads import run_closed_loop

from conftest import TmfRig

#: audit images stay aboard the boxcar until an explicit force.
PATIENT = BoxcarPolicy(max_records=1000, max_wait_ms=10_000_000.0)

KEY = (1,)
ORIGINAL = {"aid": 1, "balance": 10}


# ----------------------------------------------------------------------
# The image types
# ----------------------------------------------------------------------
class TestFrozenImages:
    def test_prints_compares_and_serialises_like_a_dict(self):
        image = freeze({"aid": 1, "name": "x"})
        assert type(image) is FrozenRecord
        assert image == {"aid": 1, "name": "x"}
        assert repr(image) == repr({"aid": 1, "name": "x"})
        assert json.dumps(image) == json.dumps({"aid": 1, "name": "x"})
        assert pickle.loads(pickle.dumps(image)) == image
        assert isinstance(image, dict)

    @pytest.mark.parametrize("mutate", [
        lambda r: r.__setitem__("aid", 2),
        lambda r: r.__delitem__("aid"),
        lambda r: r.update(aid=2),
        lambda r: r.pop("aid"),
        lambda r: r.popitem(),
        lambda r: r.setdefault("new", 1),
        lambda r: r.clear(),
        lambda r: r.__ior__({"aid": 2}),
    ], ids=["setitem", "delitem", "update", "pop", "popitem", "setdefault",
            "clear", "ior"])
    def test_mutating_a_stored_image_raises(self, mutate):
        image = freeze({"aid": 1})
        with pytest.raises(TypeError):
            mutate(image)
        assert image == {"aid": 1}

    def test_nested_values_are_frozen_too(self):
        image = freeze({"key": [1, 2], "fields": {"qty": 3}})
        assert type(image["key"]) is FrozenList and image["key"] == [1, 2]
        assert type(image["fields"]) is FrozenRecord
        with pytest.raises(TypeError):
            image["key"].append(3)
        with pytest.raises(TypeError):
            image["fields"]["qty"] = 4
        assert pickle.loads(pickle.dumps(image)) == image

    def test_freezing_is_idempotent(self):
        image = freeze({"aid": 1})
        assert freeze(image) is image
        for value in (None, 3, "s", (1, 2)):
            assert freeze(value) is value
        assert copy.deepcopy(image) == image
        assert type(copy.deepcopy(image)) is FrozenRecord

    def test_thaw_gives_a_private_plain_dict(self):
        image = freeze({"aid": 1})
        mine = thaw(image)
        assert type(mine) is dict and mine == image
        mine["aid"] = 2
        assert image == {"aid": 1}
        assert thaw(None) is None


# ----------------------------------------------------------------------
# Isolation across the DISCPROCESS, its backup and the audit images
# ----------------------------------------------------------------------
def make_rig():
    rig = TmfRig(nodes=("alpha",))
    rig.add_volume("alpha", "$data", boxcar=PATIENT)
    rig.dictionary.define(FileSchema(
        name="accts",
        organization=KEY_SEQUENCED,
        primary_key=("aid",),
        audited=True,
        partitions=(PartitionSpec("alpha", "$data"),),
    ))
    return rig


def backup_image(dp, key):
    """The record under ``key`` as the backup DISCPROCESS knows it."""
    for block in dp.backup_state["dirty"].values():
        if block[0] == "L" and key in block[1]:
            return block[2][block[1].index(key)]
    raise AssertionError(f"{key} not in the backup's dirty blocks")


class TestIsolation:
    def run_insert_then_mutate(self, rig):
        """Insert, read back with a lock, and scribble on both copies."""

        def work(proc):
            client = rig.clients["alpha"]
            tmf = rig.tmf["alpha"]
            yield from client.create_file(proc, rig.dictionary.schema("accts"))
            transid = yield from tmf.begin(proc)
            sent = dict(ORIGINAL)
            yield from client.insert(proc, "accts", sent, transid=transid)
            sent["balance"] = -1  # the request buffer is the app's own
            mine = yield from client.read(proc, "accts", KEY, transid=transid,
                                          lock=True)
            mine["balance"] = 999
            mine["extra"] = True
            return transid, mine

        return rig.run("alpha", work, cpu=2)

    def test_mutating_a_read_reply_reaches_no_stored_image(self):
        rig = make_rig()
        dp = rig.disc_processes[("alpha", "$data")]
        transid, mine = self.run_insert_then_mutate(rig)
        assert type(mine) is dict and mine["balance"] == 999

        stored = dp.files["accts"].read(KEY)
        assert stored == ORIGINAL and type(stored) is FrozenRecord
        assert backup_image(dp, KEY) == ORIGINAL
        images = [r for r in dp.backup_state["unforwarded"].values()
                  if r.transid == transid]
        assert [r.after for r in images] == [ORIGINAL]
        with pytest.raises(TypeError):
            stored["balance"] = 0

    def test_backup_and_audit_share_the_stored_image(self):
        rig = make_rig()
        dp = rig.disc_processes[("alpha", "$data")]
        transid, _mine = self.run_insert_then_mutate(rig)
        stored = dp.files["accts"].read(KEY)
        assert backup_image(dp, KEY) is stored
        (image,) = dp.state["unforwarded"].values()
        assert image.after is stored

        def ship(proc):
            fs = rig.cluster.fs("alpha")
            yield from fs.send(proc, "$data", ForceBoxcar(transid))
            reply = yield from fs.send(proc, "$aud", GetAudit(transid))
            return reply

        reply = rig.run("alpha", ship, cpu=2)
        assert [r.after for r in reply["records"]] == [ORIGINAL]
        assert reply["records"][0].after is stored

    def test_takeover_serves_the_unmutated_image(self):
        rig = make_rig()
        dp = rig.disc_processes[("alpha", "$data")]
        transid, _mine = self.run_insert_then_mutate(rig)
        rig.cluster.node("alpha").fail_cpu(0)  # volume primary

        def read_back(proc):
            yield from rig.tmf["alpha"].end(proc, transid)
            record = yield from rig.clients["alpha"].read(proc, "accts", KEY)
            return record

        assert rig.run("alpha", read_back, cpu=2) == ORIGINAL
        assert dp.takeovers == 1


# ----------------------------------------------------------------------
# Released conditions: a finished request keeps nothing alive
# ----------------------------------------------------------------------
class Payload:
    """A reply value that can be watched through a weak reference."""


def test_request_deadline_does_not_keep_the_reply_alive():
    cluster = Cluster(seed=1)
    cluster.add_node("alpha", cpu_count=4)
    cluster.connect_all()
    node_os = cluster.os("alpha")
    deadline = 10_000.0

    def server(proc):
        while True:
            message = yield from proc.receive()
            proc.reply(message, Payload())
            del message  # a served request is forgotten

    refs = []

    def client(proc):
        reply = yield from proc.request("alpha", "$srv", "ping", timeout=deadline)
        refs.append(weakref.ref(reply))
        del reply
        yield cluster.env.timeout(1.0)

    node_os.spawn("$srv", 0, server)
    done = node_os.spawn("$client", 1, client)
    gc.disable()  # reference counting alone must free it
    try:
        cluster.run(done.sim_process)
        assert cluster.env.now < deadline
        assert refs[0]() is None, "the pending deadline kept the reply alive"
    finally:
        gc.enable()


def test_events_processed_match_the_copying_simulator():
    """A banking run with a volume takeover schedules exactly the events
    it did when every image was deep-copied (value pinned from that
    version of the simulator)."""
    builder = SystemBuilder(seed=5)
    builder.add_node("alpha", cpus=4)
    builder.add_volume("alpha", "$data", cpus=(0, 1))
    install_banking(builder, "alpha", "$data", server_instances=2)
    builder.add_tcp("alpha", "$tcp1", cpus=(2, 3), restart_limit=8)
    builder.add_program("alpha", "$tcp1", "debit-credit", debit_credit_program)
    terminals = [f"T{i}" for i in range(4)]
    for terminal in terminals:
        builder.add_terminal("alpha", "$tcp1", terminal, "debit-credit")
    system = builder.build()
    populate_banking(system, "alpha", branches=2, tellers_per_branch=2,
                     accounts=12)
    env = system.env

    def fail_volume_primary():
        yield env.timeout(600.0)
        system.cluster.node("alpha").fail_cpu(0)

    env.process(fail_volume_primary())

    def make_input(rng, terminal_id, iteration):
        return {"account_id": rng.randrange(12), "teller_id": rng.randrange(4),
                "branch_id": rng.randrange(2), "amount": rng.choice([-5, 5, 10]),
                "allow_overdraft": True}

    result = run_closed_loop(system, "alpha", "$tcp1", terminals, make_input,
                             duration=1200.0, think_time=10.0,
                             rng=random.Random(7))
    assert system.disc_processes[("alpha", "$data")].takeovers == 1
    assert result.committed == 86
    assert env.events_processed == 11290
