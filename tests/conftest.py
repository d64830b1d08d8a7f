import random
import socket

import pytest

from pgzone.common import SYSTEM
from pgzone.zone import Zone

ADMIN = "admin"
ADMIN_SECRET = "admin-secret"

# The driver docs/api.md uploads: a dict-backed Driver with the four calls.
DRIVER_CODE = '''
from pgzone.drivers import Driver
from pgzone.errors import DriverError, NoSuchRef


class DictDriver(Driver):
    def __init__(self):
        self.blobs = {}

    def store(self, ref, data):
        if ref in self.blobs:
            raise DriverError(f"ref already exists: {ref!r}")
        self.blobs[ref] = bytes(data)

    def read_all(self, ref):
        try:
            return self.blobs[ref]
        except KeyError:
            raise NoSuchRef(ref) from None

    def unlink(self, ref):
        try:
            del self.blobs[ref]
        except KeyError:
            raise NoSuchRef(ref) from None


def make_driver():
    return DictDriver()
'''


def make_zone(journal_dir=None, default_resource="main") -> Zone:
    """Zone with an admin, a mem-backed default resource, and /home."""
    zone = Zone(journal_dir=journal_dir, admin_user=ADMIN,
                admin_secret=ADMIN_SECRET, default_resource=default_resource)
    zone.ensure_resource(SYSTEM, "main", "mem", "/blobs/main", "cache")
    if not zone.catalog.collection_exists("/home"):
        zone.catalog.make_collection(ADMIN, "/home")
    return zone


@pytest.fixture
def zone():
    z = make_zone()
    yield z
    z.close()


@pytest.fixture
def dead_url():
    """URL of a loopback port that stays bound, but not listening, for
    the whole test: a connection to it is refused, and no other process
    can take the port meanwhile."""
    with socket.socket() as s:
        s.bind(("127.0.0.1", 0))
        yield "http://127.0.0.1:%d" % s.getsockname()[1]


@pytest.fixture
def rng():
    return random.Random(0xC0FFEE)


def add_user(zone: Zone, name: str, role: str = "user",
             secret: str = "pw") -> str:
    zone.catalog.create_user(ADMIN, name, role, secret)
    zone.catalog.make_collection(ADMIN, f"/home/{name}", owner=name)
    return name
