"""The one harness for the thread races on the package's shared caches."""

import sys
import threading


def race(*calls):
    """Run each call in a thread of its own, all started under a 1 µs switch interval, so the
    interpreter switches threads between a few bytecodes; join each thread within 60 s, fail
    if any is still alive, and restore the interval. A call that raises ends its thread only:
    the caller checks what the calls recorded."""
    saved = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=call) for call in calls]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
        assert not any(thread.is_alive() for thread in threads)
    finally:
        sys.setswitchinterval(saved)
