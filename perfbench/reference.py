"""The benchmark's reference task: a fixed pass over a dump, in plain Python.

    python3 perfbench/reference.py <dump.json> <passes>

It does the kinds of work ``pefcoh evaluate`` does on the same file (a JSON
load, per-prototype grouping and sorting, box arithmetic for every entry,
a JSON dump of the result), ``passes`` times, and imports
nothing from ``pefcoh``. ``run.py`` times it between the CLI calls and
reports the CLI's times as multiples of its time, so a host that runs
everything slower for a while moves both alike and the ratio stays put,
while a change to ``pefcoh`` moves only the CLI's side. Keep this file unchanged: editing it rescales every ratio the
benchmark has recorded.
"""

import json
import sys

PATCH = 130


def main(path: str) -> None:
    with open(path, encoding="utf-8") as fh:
        dump = json.load(fh)
    by_prototype: dict[str, list] = {}
    overlap = 0.0
    for image in dump["images"]:
        cell_w = image["width"] / image["feature_w"]
        cell_h = image["height"] / image["feature_h"]
        roi = (0.3 * image["width"], 0.3 * image["height"],
               0.6 * image["width"], 0.5 * image["height"])
        roi_area = (roi[2] - roi[0]) * (roi[3] - roi[1])
        for entry in image["entries"]:
            by_prototype.setdefault(entry["prototype_id"], []).append(
                (entry["score"], image["image_id"], entry["row"], entry["col"]))
            x0 = (entry["col"] + 0.5) * cell_w - PATCH / 2
            y0 = (entry["row"] + 0.5) * cell_h - PATCH / 2
            iw = min(x0 + PATCH, roi[2]) - max(x0, roi[0])
            ih = min(y0 + PATCH, roi[3]) - max(y0, roi[1])
            if iw > 0 and ih > 0:
                overlap += iw * ih / (PATCH * PATCH + roi_area - iw * ih)
    top = {p: sorted(v, reverse=True)[:10] for p, v in by_prototype.items()}
    json.dumps({"top": top, "overlap": overlap})


if __name__ == "__main__":
    for _ in range(int(sys.argv[2])):
        main(sys.argv[1])
