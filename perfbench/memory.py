"""Peak resident memory of the calling process."""

import resource

MARKER = "perfbench-peak-kb"


def peak_rss_kb() -> int:
    """VmHWM: the peak of this program image alone.

    ``ru_maxrss`` is not used when /proc is there: it also counts the copy of
    the parent process that existed between fork and exec.
    """
    try:
        with open("/proc/self/status", encoding="ascii") as status:
            for line in status:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
