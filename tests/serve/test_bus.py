"""The bounded queue fabric: capacity, backpressure, ordering, sharding."""

import queue
import threading

import numpy as np
import pytest

from repro.hpc.faults import app_key
from repro.serve import SHUTDOWN, Bus, Channel, WindowClosed, WindowSample


def test_channel_rejects_bad_depth():
    with pytest.raises(ValueError):
        Channel("c", 0)


def test_channel_fifo_order():
    channel = Channel("c", 8)
    for i in range(5):
        channel.publish(i)
    assert [channel.consume(timeout=0.1) for _ in range(5)] == [0, 1, 2, 3, 4]


def test_channel_consume_timeout_raises_empty():
    channel = Channel("c", 2)
    with pytest.raises(queue.Empty):
        channel.consume(timeout=0.01)


def test_channel_counts_backpressure_and_blocks_until_drained():
    channel = Channel("c", 2)
    channel.publish("a")
    channel.publish("b")
    assert channel.backpressure_waits == 0

    # The third publish must block on the full channel until a consumer
    # frees a slot — and the block must be counted.
    unblocked = threading.Event()

    def blocked_publish():
        channel.publish("c")
        unblocked.set()

    thread = threading.Thread(target=blocked_publish, daemon=True)
    thread.start()
    assert not unblocked.wait(timeout=0.05), "publish into a full channel returned"
    assert channel.consume(timeout=1.0) == "a"
    assert unblocked.wait(timeout=1.0), "publish never unblocked after a consume"
    thread.join(timeout=1.0)
    assert channel.backpressure_waits == 1
    assert channel.published == 3
    assert len(channel) == 2


def test_bus_rejects_zero_shards():
    with pytest.raises(ValueError):
        Bus(0, 4)


def test_bus_sharding_is_stable_and_total():
    bus = Bus(3, 4)
    hosts = [f"host-{i}" for i in range(20)]
    shards = [bus.shard_for(host) for host in hosts]
    assert shards == [app_key(host) % 3 for host in hosts]
    assert all(0 <= shard < 3 for shard in shards)
    for host, shard in zip(hosts, shards):
        assert bus.channel_for(host) is bus.shards[shard]


def test_bus_aggregates_counters():
    bus = Bus(2, 1)
    bus.shards[0].publish("x")
    bus.shards[1].publish("y")
    assert bus.published == 2
    assert bus.backpressure_waits == 0


def test_messages_are_frozen_and_self_contained():
    trace = np.ones((8, 44))
    block = trace[1:5]
    sample = WindowSample("h", 3, 1, block)
    closed = WindowClosed("h", 3, "app", 8)
    with pytest.raises(AttributeError):
        sample.seq = 2
    with pytest.raises(AttributeError):
        sample.rows = trace
    with pytest.raises(AttributeError):
        closed.n_windows = 9
    # a chunk is a block of consecutive windows carried as a view
    assert sample.rows is block
    assert sample.rows.shape == (4, 44)
    assert np.shares_memory(sample.rows, trace)
    assert SHUTDOWN is not None
