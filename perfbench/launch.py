"""Start one command and report its timing and resource use.

    python3 -I -S perfbench/launch.py FD ARGV...

Forks and execs ARGV, waits for it with os.wait4, and writes one line
"<start> <end> <user+sys seconds> <maxrss KiB> <exit code>" to the file
descriptor FD; start and end are CLOCK_MONOTONIC seconds.  A forked child's
ru_maxrss starts at its parent's resident size, so the command is started
from this small process instead of from run.py, whose own memory would
otherwise show up in the command's peak RSS.
"""

import os
import sys
import time


def main() -> int:
    fd = int(sys.argv[1])
    argv = sys.argv[2:]
    os.set_inheritable(fd, False)
    start = time.clock_gettime(time.CLOCK_MONOTONIC)
    pid = os.fork()
    if pid == 0:
        try:
            os.execv(argv[0], argv)
        finally:
            os._exit(127)
    _, status, usage = os.wait4(pid, 0)
    end = time.clock_gettime(time.CLOCK_MONOTONIC)
    cpu = usage.ru_utime + usage.ru_stime
    code = os.waitstatus_to_exitcode(status)
    os.write(fd, f"{start!r} {end!r} {cpu!r} {usage.ru_maxrss} {code}\n".encode())
    os.close(fd)
    return 0


if __name__ == "__main__":
    sys.exit(main())
