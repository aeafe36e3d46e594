"""An in-memory Unix-style filesystem.

Backs the workload applications: NGINX serves a static page from it, SQLite
keeps its database and journal files in it, vsftpd serves the 100 MB
download from it.  File *contents* are Python ``bytes`` on the kernel side;
the kernel's read/write handlers copy a bounded prefix into simulated
memory (data-plane elision, DESIGN.md) while charging cycle costs for the
full transfer size.
"""

import posixpath
from dataclasses import dataclass, field

from repro.kernel import errno

#: st_mode type bits (subset)
S_IFREG = 0o100000
S_IFDIR = 0o040000
S_IFIFO = 0o010000
S_IFSOCK = 0o140000

#: open(2) flags (subset)
O_RDONLY = 0
O_WRONLY = 1
O_RDWR = 2
O_CREAT = 0o100
O_TRUNC = 0o1000
O_APPEND = 0o2000
O_NONBLOCK = 0o4000


@dataclass
class Inode:
    """A file or directory node."""

    kind: str  # 'file' | 'dir'
    mode: int = 0o644
    uid: int = 0
    gid: int = 0
    data: bytes = b""
    children: dict = field(default_factory=dict)

    @property
    def size(self):
        return len(self.data) if self.kind == "file" else len(self.children)


class FileSystem:
    """The mount: a directory tree addressed by absolute paths."""

    def __init__(self):
        self.root = Inode("dir", mode=0o755)

    # -- path resolution -------------------------------------------------

    @staticmethod
    def _parts(path):
        norm = posixpath.normpath("/" + path.strip())
        return [p for p in norm.split("/") if p]

    def lookup(self, path):
        """Resolve ``path`` to an :class:`Inode`, or None."""
        node = self.root
        for part in self._parts(path):
            if node.kind != "dir":
                return None
            node = node.children.get(part)
            if node is None:
                return None
        return node

    def _lookup_parent(self, path):
        parts = self._parts(path)
        if not parts:
            return None, None
        node = self.root
        for part in parts[:-1]:
            if node.kind != "dir":
                return None, None
            node = node.children.get(part)
            if node is None:
                return None, None
        return node, parts[-1]

    # -- operations --------------------------------------------------------

    def mkdir(self, path, mode=0o755):
        parent, name = self._lookup_parent(path)
        if parent is None or parent.kind != "dir":
            return -errno.ENOENT
        if name in parent.children:
            return -errno.EEXIST
        parent.children[name] = Inode("dir", mode=mode)
        return 0

    def makedirs(self, path):
        """Create all missing directories along ``path`` (setup helper)."""
        node = self.root
        for part in self._parts(path):
            nxt = node.children.get(part)
            if nxt is None:
                nxt = Inode("dir", mode=0o755)
                node.children[part] = nxt
            node = nxt
        return node

    def create(self, path, mode=0o644):
        parent, name = self._lookup_parent(path)
        if parent is None or parent.kind != "dir":
            return None
        node = parent.children.get(name)
        if node is None:
            node = Inode("file", mode=mode)
            parent.children[name] = node
        return node

    def write_file(self, path, data, mode=0o644):
        """Setup helper: create/overwrite a file with ``data`` bytes."""
        node = self.create(path, mode)
        if node is None:
            raise FileNotFoundError(path)
        node.data = bytes(data)
        return node

    def unlink(self, path):
        parent, name = self._lookup_parent(path)
        if parent is None or name not in parent.children:
            return -errno.ENOENT
        if parent.children[name].kind == "dir":
            return -errno.EISDIR
        del parent.children[name]
        return 0

    def rename(self, old, new):
        node = self.lookup(old)
        if node is None:
            return -errno.ENOENT
        new_parent, new_name = self._lookup_parent(new)
        if new_parent is None or new_parent.kind != "dir":
            return -errno.ENOENT
        old_parent, old_name = self._lookup_parent(old)
        del old_parent.children[old_name]
        new_parent.children[new_name] = node
        return 0

    def chmod(self, path, mode):
        node = self.lookup(path)
        if node is None:
            return -errno.ENOENT
        node.mode = (node.mode & ~0o7777) | (mode & 0o7777)
        return 0


@dataclass
class OpenFile:
    """A file description (shared offset object behind an fd)."""

    node: Inode
    flags: int = O_RDONLY
    pos: int = 0
    path: str = ""

    def read(self, count):
        if self.node.kind != "file":
            return None
        chunk = self.node.data[self.pos : self.pos + count]
        self.pos += len(chunk)
        return chunk

    def write(self, data):
        if self.node.kind != "file":
            return -errno.EISDIR
        if self.flags & O_APPEND:
            self.pos = len(self.node.data)
        buf = bytearray(self.node.data)
        end = self.pos + len(data)
        if end > len(buf):
            buf.extend(b"\x00" * (end - len(buf)))
        buf[self.pos : end] = data
        self.node.data = bytes(buf)
        self.pos = end
        return len(data)

    def seek(self, offset, whence):
        if whence == 0:
            new = offset
        elif whence == 1:
            new = self.pos + offset
        elif whence == 2:
            new = len(self.node.data) + offset
        else:
            return -errno.EINVAL
        if new < 0:
            return -errno.EINVAL
        self.pos = new
        return new
