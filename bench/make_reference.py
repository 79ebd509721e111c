"""Write the reference outputs the checker compares against at the reference seed.

    python3 bench/make_reference.py [workload ...]

Runs one untraced pass of each named workload (default: all) at
`check.REFERENCE_SEED` and stores every sweep CSV and the eig-compare CSV
in `bench/reference/<workload>.json`.  Rerun only when a change is meant
to alter krrlab's numbers, and say why in CHANGES.md.
"""

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import check  # noqa: E402
import workloads  # noqa: E402

WORKDIR = workloads.ROOT / ".bench_work"


def main(names) -> None:
    krrlab = workloads.import_krrlab()
    WORKDIR.mkdir(exist_ok=True)
    check.REFERENCE_DIR.mkdir(exist_ok=True)
    for name in names:
        seed = check.REFERENCE_SEED
        real = (workloads.write_real_input(krrlab, seed, str(WORKDIR), False)
                if name == "real_exact" else None)
        wl = workloads.build(krrlab, name, seed, str(WORKDIR))
        wl.real = real
        out = workloads.run_pass(krrlab, wl)
        for s in out.sweeps + [out.eig, out.plot]:
            if isinstance(s, Exception):
                raise s
        doc = {"seed": seed, **check.reference_outputs(out)}
        check.reference_path(name).write_text(json.dumps(doc, indent=1) + "\n")
        print(f"wrote {check.reference_path(name)}")


if __name__ == "__main__":
    main(sys.argv[1:] or list(workloads.WORKLOADS))
