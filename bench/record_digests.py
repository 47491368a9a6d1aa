"""Record expected.json: SHA-256 of the report bytes that a serial
`repbench sequence` writes for each workload at the default seed.

    python3 bench/record_digests.py

Run it on the commit whose outputs are the reference; a change that alters
report bytes on purpose re-records them and says so.
"""

import json
import os
import shutil

import common


def main():
    common.import_repbench()
    import check
    import workloads
    from repbench import cli

    out = {"seed": workloads.DEFAULT_SEED, "workloads": {}}
    work = os.path.join(common.WORK, f"record-pid{os.getpid()}")
    try:
        for w in workloads.WORKLOADS.values():
            manifest = workloads.setup(w, workloads.DEFAULT_SEED, os.path.join(work, w.name))
            stem = os.path.join(work, f"{w.name}-report")
            argv = ["sequence", "--manifest", manifest, "--out", stem,
                    "--matcher", w.matcher, "--workers", "1"]
            if cli.main(argv) != cli.EXIT_OK:
                raise SystemExit(f"repbench {' '.join(argv)} failed")
            with open(stem + ".json", "rb") as fj, open(stem + ".csv", "rb") as fc:
                out["workloads"][w.name] = check.digests(fj.read(), fc.read())
            print(w.name, out["workloads"][w.name])
    finally:
        shutil.rmtree(work, ignore_errors=True)
    with open(check.EXPECTED_PATH, "w") as fh:
        fh.write(json.dumps(out, indent=2) + "\n")


if __name__ == "__main__":
    main()
