"""Record the reference outputs of every job at the default seed.

    python3 bench/record_reference.py

Writes bench/reference.json.  Re-record only when a change is meant to
alter a verdict, a reason, a rank or a residual beyond the agreement bar
of 1e-12 * max(1, |reference|), and say why in the change.
"""
import json
import shutil
import sys

import run


def main() -> int:
    run.import_program()
    import workloads

    workdir = str(run.ROOT / ".bench_work" / "reference")
    out = {}
    try:
        for name in workloads.WORKLOADS:
            wl = workloads.build(name, workloads.DEFAULT_SEED, workdir)
            out[name] = [job.summary(job.call()) for job in wl.jobs]
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    with open(run.REFERENCE, "w", encoding="utf-8") as fh:
        fh.write("{\n")
        for i, (name, summaries) in enumerate(out.items()):
            rows = ",\n".join("  " + json.dumps(s) for s in summaries)
            fh.write(f' "{name}": [\n{rows}\n ]{"," if i < len(out) - 1 else ""}\n')
        fh.write("}\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
