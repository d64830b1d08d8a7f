"""Subprocess half of the remove kill-window test.

Opens a zone whose default resource is on localfs, puts /home/keep and
/home/o, then removes /home/o with LocalFsDriver.unlink patched to
delete the blob and end the process at once (os._exit(9)): a kill
between the driver's unlink and whatever the remove does after it. The
parent reopens the zone and checks what a restart sees.

Usage: python _remove_kill_session.py JOURNAL_DIR BLOB_ROOT
"""

import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(__file__), os.pardir, "src"))

from pgzone.common import SYSTEM
from pgzone.drivers import LocalFsDriver
from pgzone.zone import Zone


def main() -> None:
    journal_dir, blob_root = sys.argv[1], sys.argv[2]
    zone = Zone(journal_dir=journal_dir, admin_secret="pw",
                default_resource="disk")
    zone.ensure_resource(SYSTEM, "disk", "localfs", blob_root, "cache")
    zone.engine.put("admin", "/home/keep", b"kept")
    zone.engine.put("admin", "/home/o", b"removed")

    unlink = LocalFsDriver.unlink

    def unlink_then_die(self, ref: str) -> None:
        unlink(self, ref)
        os._exit(9)  # hard kill: no close(), no atexit

    LocalFsDriver.unlink = unlink_then_die
    zone.engine.remove("admin", "/home/o")
    os._exit(0)  # the remove never unlinked: the parent fails on this


if __name__ == "__main__":
    main()
