"""Run one snrsched CLI op in this fresh process and report what it cost.

Usage: python3 child.py SPEC.json

SPEC holds ``src`` (directory that contains the snrsched package), ``argv``
(CLI arguments, or null to time the import alone), ``trace`` (install the
span tracer) and ``result`` (where to write the JSON report). The report has
``setup_s`` (time of ``import snrsched.cli``), ``op_s`` (time of
``snrsched.cli.main(argv)``), the calibration times right after the import
and after the op (see calibrate.py), the exit code, any exception, the
process's peak RSS, and the library versions. ``trace``, ``op_id`` and
``spans`` install the span tracer and say where it writes. Only the
standard library is imported before the timed import, so nothing is warm
when it starts.
"""

import json
import os
import resource
import sys
import time
import traceback


def peak_rss_mib() -> float:
    """Peak RSS of this process image.

    VmHWM belongs to the memory map exec created. ru_maxrss is kept across
    exec on Linux, so it can report the parent's size at fork instead.
    """
    try:
        with open("/proc/self/status") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def main() -> int:
    with open(sys.argv[1]) as fh:
        spec = json.load(fh)
    src = os.path.realpath(spec["src"])
    sys.path.insert(0, src)

    t0 = time.perf_counter()
    import snrsched.cli as cli

    setup_s = time.perf_counter() - t0

    import numpy
    import scipy

    report = {
        "setup_s": setup_s,
        "package": os.path.realpath(cli.__file__),
        "versions": {
            "python": sys.version.split()[0],
            "numpy": numpy.__version__,
            "scipy": scipy.__version__,
        },
    }
    ours = report["package"].startswith(src + os.sep)
    if not ours:
        report["error"] = f"snrsched imported from {report['package']}, not from {src}"
    else:
        sys.path.append(os.path.dirname(os.path.abspath(__file__)))
        from calibrate import calibration_s

        report["cal_before_s"] = calibration_s()
    if ours and spec["argv"] is not None:
        tracer = None
        if spec.get("trace"):
            from spans import Tracer

            tracer = Tracer(spec.get("op_id", 0))
            tracer.install()
        t1 = time.perf_counter()
        try:
            rc = cli.main(spec["argv"])
        except SystemExit as exc:
            rc = exc.code if isinstance(exc.code, int) else 2
        except Exception:
            rc = None
            report["error"] = traceback.format_exc()
        report["op_s"] = time.perf_counter() - t1
        report["maxrss_mib"] = peak_rss_mib()
        report["cal_after_s"] = calibration_s()
        report["rc"] = rc
        if tracer is not None:
            tracer.dump(spec["spans"])
    report.setdefault("maxrss_mib", peak_rss_mib())
    with open(spec["result"], "w") as fh:
        json.dump(report, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
