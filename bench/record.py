"""Record the matchings digests of every default-seed video.

    python3 bench/record.py

Rewrites the "digests" entry of bench/expected.json. Run it only when a
change to the tracker's output is intended; bench/run.py fails any video
of the default seed whose matchings differ from the recorded digest.
"""

from __future__ import annotations

import json

import run


def main() -> None:
    digests = {}
    for name, w in run.WORKLOADS.items():
        digests[name] = [
            run.digest(run.vt.track(run.simulate_video(w, run.DEFAULT_SEED, i).seq).matchings)
            for i in range(w.videos)
        ]
        print(name, digests[name])
    data = {"default_seed": run.DEFAULT_SEED, "digests": digests}
    with open(run.EXPECTED, "w", encoding="utf-8") as fh:
        json.dump(data, fh, indent=1)
        fh.write("\n")


if __name__ == "__main__":
    main()
