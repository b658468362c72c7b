"""A small blocking client for the serve protocol.

Used by the test suite and the CI smoke script; production callers can
speak the one-line-of-JSON-per-request protocol from any language.

::

    with ServeClient(port=7332) as client:
        answer = client.query("SyntheticNetwork-BA", "adaalg", k=3,
                              eps=0.5, gamma=0.1, seed=7)
        print(answer["result"]["group"])
"""

from __future__ import annotations

import json
import socket

from ..exceptions import ServeError

__all__ = ["ServeClient"]

_DEFAULT_TIMEOUT = 300.0


class ServeClient:
    """One connection to a running ``repro-gbc serve`` daemon.

    Parameters
    ----------
    host, port:
        TCP endpoint (ignored when ``socket_path`` is given).
    socket_path:
        Unix-socket endpoint, when the daemon was started with
        ``--socket``.
    timeout:
        Per-response socket timeout in seconds — generous by default,
        since a cold query on a large dataset legitimately samples for
        a while.
    """

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int | None = None,
        socket_path: str | None = None,
        timeout: float = _DEFAULT_TIMEOUT,
    ):
        if socket_path:
            self._sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
            self._sock.settimeout(timeout)
            self._sock.connect(socket_path)
        else:
            if port is None:
                raise ServeError("ServeClient needs a port or a socket_path")
            self._sock = socket.create_connection(
                (host, int(port)), timeout=timeout
            )
        self._reader = self._sock.makefile("rb")

    # ------------------------------------------------------------------
    def request(self, frame: dict) -> dict:
        """Send one frame, block for its response line."""
        self._sock.sendall(json.dumps(frame).encode() + b"\n")
        line = self._reader.readline()
        if not line:
            raise ServeError("server closed the connection mid-request")
        return json.loads(line)

    def query(
        self,
        dataset: str,
        algorithm: str = "adaalg",
        *,
        k: int = 1,
        eps: float = 0.3,
        gamma: float = 0.01,
        seed: int = 0,
    ) -> dict:
        """One top-K query; raises :class:`~repro.exceptions.ServeError`
        on a server-side rejection or failure."""
        answer = self.request(
            {
                "op": "query",
                "dataset": dataset,
                "algorithm": algorithm,
                "k": k,
                "eps": eps,
                "gamma": gamma,
                "seed": seed,
            }
        )
        if not answer.get("ok"):
            raise ServeError(answer.get("error", "query failed"))
        return answer

    def mutate(
        self,
        dataset: str,
        *,
        insert=(),
        delete=(),
        reweight=(),
    ) -> dict:
        """Apply an edge delta to a held dataset.

        ``insert`` rows are ``(u, v)`` or ``(u, v, w)``, ``delete``
        rows ``(u, v)``, ``reweight`` rows ``(u, v, w)``.  Returns the
        server's answer, whose ``mutated`` summary counts the warm-lane
        samples tested, invalidated (= redrawn in place) and kept
        surviving, and carries the new graph version; raises
        :class:`~repro.exceptions.ServeError` on rejection.
        """
        answer = self.request(
            {
                "op": "mutate",
                "dataset": dataset,
                "insert": [list(map(int, row)) for row in insert],
                "delete": [list(map(int, row)) for row in delete],
                "reweight": [list(map(int, row)) for row in reweight],
            }
        )
        if not answer.get("ok"):
            raise ServeError(answer.get("error", "mutation failed"))
        return answer

    def ping(self) -> dict:
        return self.request({"op": "ping"})

    def stats(self) -> dict:
        return self.request({"op": "stats"})

    def close(self) -> None:
        try:
            self._reader.close()
        finally:
            self._sock.close()

    def __enter__(self) -> "ServeClient":
        return self

    def __exit__(self, *_exc) -> None:
        self.close()
