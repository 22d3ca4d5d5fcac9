import pytest

from minimapred import Cluster, ClusterConfig, register, resolve


@pytest.fixture
def small_cluster():
    """4 nodes, tiny chunks, in-memory store."""
    return Cluster(ClusterConfig(num_nodes=4, chunk_size=64, replication=2, seed=7))


@pytest.fixture
def disk_cluster(tmp_path):
    return Cluster.open_disk(
        str(tmp_path / "store"),
        ClusterConfig(num_nodes=4, chunk_size=64, replication=2, seed=7),
    )


@pytest.fixture
def recording_reducer():
    """``make(reducer_id)`` registers a reducer that logs every (key, value)
    it is given and then calls the reducer ``reducer_id``; it returns the
    new id and the log. The log fills only where the reducer runs in this
    process, so jobs using it run on the serial executor."""

    def make(reducer_id: str):
        real = resolve(reducer_id)
        seen: list[tuple[bytes, bytes]] = []

        def reducer(key, values):
            seen.extend((key, v) for v in values)
            return real(key, values)

        recording_id = f"recording.{reducer_id}"
        register(recording_id, reducer)
        return recording_id, seen

    return make
