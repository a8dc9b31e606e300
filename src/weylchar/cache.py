"""File-backed result cache for the command-line surface.

One file per (operation, canonical key); the key is serialized
deterministically and hashed with a fixed digest recorded in the file.
Bumping FORMAT_VERSION invalidates every entry. Writes go through a
temporary file and an atomic rename.
"""

import hashlib
import json
import os
import tempfile

FORMAT_VERSION = 3


def _digest(op: str, key_obj) -> str:
    payload = json.dumps(
        {"version": FORMAT_VERSION, "op": op, "key": key_obj},
        separators=(",", ":"),
        sort_keys=True,
    )
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


class FileCache:
    def __init__(self, directory: str):
        self.directory = directory
        os.makedirs(directory, exist_ok=True)

    def _path(self, op: str, key_obj) -> str:
        return os.path.join(self.directory, f"{op}-{_digest(op, key_obj)[:24]}.json")

    def get(self, op: str, key_obj):
        path = self._path(op, key_obj)
        try:
            with open(path, "rb") as fh:
                payload = json.loads(fh.read().decode("utf-8"))
        except (OSError, ValueError):
            return None
        if (
            not isinstance(payload, dict)
            or payload.get("format_version") != FORMAT_VERSION
            or payload.get("op") != op
            or payload.get("digest") != "sha256"
            or payload.get("key") != key_obj
        ):
            return None
        return payload.get("result")

    def put(self, op: str, key_obj, result) -> None:
        payload = {
            "format_version": FORMAT_VERSION,
            "op": op,
            "digest": "sha256",
            "key": key_obj,
            "result": result,
        }
        data = json.dumps(payload, separators=(",", ":")).encode("utf-8")
        fd, tmp = tempfile.mkstemp(dir=self.directory, suffix=".tmp")
        try:
            with os.fdopen(fd, "wb") as fh:
                fh.write(data)
                fh.flush()
                os.fsync(fh.fileno())
            os.replace(tmp, self._path(op, key_obj))
        except OSError:
            try:
                os.unlink(tmp)
            except OSError:
                pass
