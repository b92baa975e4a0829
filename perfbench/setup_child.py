"""Fresh-interpreter readiness probe for the design and analysis workloads.

Imports freqbin, loads the bundled crystal, the named Sellmeier sets and
the james16 projectors, makes one call into each hot path (first-call
warm-up), then prints one JSON line and exits. The parent times the
interval from spawning this script to reading that line. With ``--trace``
the span wrappers are installed and the line also carries the total time
of each load function.

    python perfbench/setup_child.py [--trace] SELLMEIER_SET ...
"""
import json
import sys
import time


def main() -> int:
    t0 = time.perf_counter()
    import freqbin
    import_s = time.perf_counter() - t0

    import numpy as np

    args = sys.argv[1:]
    trace = "--trace" in args
    sets = [a for a in args if a != "--trace"]
    if trace:
        from spans import Tracer
        tracer = Tracer()
        tracer.install()
    spec = freqbin.load_crystal("default")
    for name in sets:
        freqbin.load_sellmeier(name)
    freqbin.load_projectors("james16")
    point = freqbin.solve_signal_idler(spec, 0)
    freqbin.group_index(spec.field(point.signal_wavelength, point.signal_pol),
                        spec.sellmeier_for(point.signal_pol),
                        method="analytic")
    truth = freqbin.HomParams(N=1.0, V=0.9, delta_omega=2 * np.pi * 11e12,
                              tau_c=2e-12)
    freqbin.fit_homi(freqbin.synthesize_scan(
        truth, np.linspace(-3e-12, 3e-12, 241), 2000.0, 1))
    report = {"import_s": import_s}
    if trace:
        from spans import summarize
        tracer.uninstall()
        report["totals"] = {k: v["total_s"]
                            for k, v in summarize(tracer.spans).items()}
        report["absent"] = tracer.absent
    print(json.dumps(report), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
