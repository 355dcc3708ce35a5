"""Single-process deployment helper: both clusters' shard servers on
AF_UNIX sockets in a private temporary directory, plus a front-end
factory. Used by the CLI's --local mode and throughout the tests."""

from __future__ import annotations

import os
import shutil
import tempfile

from .builder import EncryptedDatabase
from .crypto import MasterKeyBundle
from .planner import FrontEnd
from .server import IndexServer, server_name
from .transport import SERVER_TIMEOUT, Topology, Transcript

__all__ = ["LocalCluster"]


class LocalCluster:
    """Starts one IndexServer per (cluster, shard) of an in-memory EDB;
    stop() stops them and removes their socket directory."""

    def __init__(
        self,
        edb: EncryptedDatabase,
        *,
        run_mode: str = "secure",
        transcript: Transcript | None = None,
        timeout: float = SERVER_TIMEOUT,
    ):
        self.transcript = transcript
        self.n_shards = edb.shards_per_cluster
        names = [server_name(c, j) for c in (0, 1) for j in range(self.n_shards)]
        self.socket_dir = tempfile.mkdtemp(prefix="privgraph-")
        self.topology = Topology({n: os.path.join(self.socket_dir, n) for n in names})
        self.servers: dict[str, IndexServer] = {}
        try:
            for cluster in (0, 1):
                for j in range(self.n_shards):
                    server = IndexServer(
                        cluster, j, self.n_shards, edb.clusters[cluster][j], self.topology,
                        run_mode=run_mode, transcript=transcript, timeout=timeout,
                    )
                    self.servers[server.name] = server
                    server.start()
        except BaseException:
            self.stop()
            raise

    def server(self, cluster: int, shard: int) -> IndexServer:
        return self.servers[server_name(cluster, shard)]

    def front_end(self, keys: MasterKeyBundle, **kwargs) -> FrontEnd:
        kwargs.setdefault("transcript", self.transcript)
        return FrontEnd(keys, self.topology, self.n_shards, **kwargs)

    def stop(self) -> None:
        for server in self.servers.values():
            server.stop()
        self.servers.clear()
        shutil.rmtree(self.socket_dir, ignore_errors=True)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.stop()
        return False
