"""Host speed readings taken in a process of their own.

`HostSpeed` starts this file as a reader process.  Each `read()` asks it
for one timing of a fixed reference kernel (a numpy exp over 100k values
into a preallocated array and a 20k-step Python loop, about 1 ms) while
the measuring process waits, idle.  The kernel shares no code with
entroflow and allocates nothing.  Because the reader is another process,
anything the measured code leaves behind in its own process (threads
holding the GIL, garbage) slows the measured tasks but not the readings,
so it cannot lower the scaled times that bench/run.py reports.
"""

import subprocess
import sys
import time

#: a reader that does not answer within this long is treated as broken
READ_TIMEOUT_S = 30


def _serve():
    import numpy

    x = numpy.linspace(-1.0, 1.0, 100_000)
    y = numpy.empty_like(x)
    for _ in sys.stdin:
        for _ in range(2):  # the first call warms caches; keep the second
            start = time.perf_counter()
            acc = float(numpy.exp(x, out=y).sum())
            for j in range(20_000):
                acc += j
            elapsed = time.perf_counter() - start
        sys.stdout.write(f"{elapsed!r}\n")
        sys.stdout.flush()


class HostSpeed:
    """Client of one reader process; a context manager that stops it."""

    def __init__(self):
        self.readings = []
        self._proc = subprocess.Popen(
            [sys.executable, __file__], stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True
        )

    def read(self):
        self._proc.stdin.write("\n")
        self._proc.stdin.flush()
        line = self._proc.stdout.readline()
        if not line:
            raise RuntimeError(f"host speed reader exited {self._proc.wait(READ_TIMEOUT_S)}")
        self.readings.append(float(line))

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self._proc.stdin.close()  # the reader ends at end of input
        try:
            self._proc.wait(READ_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            self._proc.kill()
            self._proc.wait()
        self._proc.stdout.close()


if __name__ == "__main__":
    _serve()
