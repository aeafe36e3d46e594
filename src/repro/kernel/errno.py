"""Linux error numbers (the subset the simulated kernel returns).

Syscall handlers return ``-errno`` on failure, exactly like the real ABI.
"""

EPERM = 1
ENOENT = 2
ESRCH = 3
EINTR = 4
EIO = 5
EBADF = 9
EAGAIN = 11
ENOMEM = 12
EACCES = 13
EFAULT = 14
EEXIST = 17
ENOTDIR = 20
EISDIR = 21
EINVAL = 22
ENFILE = 23
EMFILE = 24
ENOSPC = 28
ESPIPE = 29
EPIPE = 32
ENOSYS = 38
ENOTEMPTY = 39
ENOTSOCK = 88
EOPNOTSUPP = 95
EADDRINUSE = 98
ENOTCONN = 107
ECONNREFUSED = 111

_NAMES = {
    value: name
    for name, value in sorted(globals().items())
    if name.isupper() and isinstance(value, int)
}


def errno_name(code):
    """Name of a (positive) errno value, for trace printing."""
    return _NAMES.get(code, "E%d" % code)
