"""One benchmark child process: an mflab CLI run, optionally traced.

    python3 child.py REPORT MODE TRACE CONFIG [mflab CLI flags...]

MODE is ``setup`` (import mflab, parse CONFIG, stop) or ``run`` (the full
``mflab --config CONFIG ...`` pipeline). TRACE is 0 or 1. The child writes
REPORT, a JSON file, once at exit. It holds the ``time.monotonic()`` instant
at which ``parse_config`` returned, so that the parent, which reads the same
clock before spawning, can compute set-up time from spawn.

With TRACE=1 the public names that the mflab modules import are wrapped, and
each call's inclusive and self time (inclusive minus the wrapped calls made
inside it) is summed in memory per layer, and per particle number N for the
many-body layers. A name the program no longer has is skipped: the parent
reports its metrics as absent.
"""
import sys
import time


class Tracer:
    """Per-layer call counts and times, kept in memory until the report."""

    def __init__(self):
        import threading
        self.totals = {}   # layer key -> [calls, inclusive ns, self ns]
        self.counts = {}   # count name -> value
        self.wrapped = []
        self._local = threading.local()

    def wrap(self, module, attr, layer):
        import inspect
        fn = getattr(module, attr, None)
        if not inspect.isfunction(fn):
            return
        per_n = fn.__module__ == "mflab.manybody"
        probe = _PROBES.get(layer)
        perf = time.perf_counter_ns
        local = self._local
        record = self._record

        def traced(*args, **kwargs):
            stack = getattr(local, "stack", None)
            if stack is None:
                stack = local.stack = []
            stack.append(0)
            start = perf()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = perf() - start
                inner = stack.pop()
                if stack:
                    stack[-1] += elapsed
                record(layer, elapsed, elapsed - inner)
            if per_n:
                n = _particle_count(result, args)
                if n is not None:
                    record(f"{layer}.N{n}", elapsed, elapsed - inner)
                    if probe is not None:
                        probe(self.counts, n, result)
            return result

        traced.__wrapped__ = fn
        setattr(module, attr, traced)
        self.wrapped.append(f"{module.__name__}.{attr}")

    def _record(self, key, incl_ns, self_ns):
        slot = self.totals.get(key)
        if slot is None:
            slot = self.totals[key] = [0, 0, 0]
        slot[0] += 1
        slot[1] += incl_ns
        slot[2] += self_ns

    def report(self):
        return {
            "layers": {k: {"calls": c, "incl_s": i / 1e9, "self_s": s / 1e9}
                       for k, (c, i, s) in sorted(self.totals.items())},
            "counts": dict(sorted(self.counts.items())),
            "wrapped": self.wrapped,
        }


def _particle_count(result, args):
    """N of the sector a many-body call worked on, or None if not visible."""
    for obj in (result, *args):
        basis = getattr(obj, "basis", obj)
        n = getattr(basis, "n_particles", None)
        if isinstance(n, int):
            return n
    return None


def _fock_dim(counts, n, basis):
    counts[f"manybody.fock_dim.N{n}"] = len(basis)


def _h_nnz(counts, n, h):
    nnz = getattr(getattr(h, "matrix", None), "nnz", None)
    if nnz is not None:
        counts[f"manybody.h_nnz.N{n}"] = int(nnz)


_PROBES = {"manybody.build_fock_basis": _fock_dim,
           "manybody.assemble_hamiltonian": _h_nnz}


def install_tracer(mflab):
    """Wrap the layer boundaries the pipeline calls through module globals."""
    import inspect
    tracer = Tracer()
    cli, ensemble, hartree = mflab.cli, mflab.ensemble, mflab.hartree
    for name, obj in sorted(vars(ensemble).items()):
        if (inspect.isfunction(obj) and not name.startswith("_")
                and obj.__module__.startswith("mflab.")):
            tracer.wrap(ensemble, name, f"{obj.__module__[6:]}.{name}")
    for name in ("parse_config", "run_ensemble", "estimate", "tail_diagnostic",
                 "operator_norm"):
        obj = getattr(cli, name, None)
        if inspect.isfunction(obj):
            tracer.wrap(cli, name, f"{obj.__module__[6:]}.{name}")
    tracer.wrap(hartree, "hartree_step", "hartree.hartree_step")
    tracer.wrap(hartree, "convolve", "grid.convolve")
    tracer.wrap(cli, "main", "cli.main")
    return tracer


def main(argv):
    report_path, mode, trace, config = argv[:4]
    cli_args = ["--config", config, *argv[4:]]
    started = time.perf_counter()
    import mflab.cli
    import_s = time.perf_counter() - started
    report = {"import_s": import_s, "mflab_file": mflab.__file__}

    tracer = install_tracer(mflab) if trace == "1" else None
    parse = mflab.cli.parse_config

    def parse_and_stamp(*args, **kwargs):
        result = parse(*args, **kwargs)
        report["parse_config_done"] = time.monotonic()
        return result

    try:
        if mode == "setup":
            parse_and_stamp(config)
            return 0
        mflab.cli.parse_config = parse_and_stamp
        return mflab.cli.main(cli_args)
    finally:
        if tracer is not None:
            report.update(tracer.report())
        import json
        with open(report_path, "w") as fh:
            json.dump(report, fh)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
