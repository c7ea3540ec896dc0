"""Emit the excursion arcs of the four D = 1365 geodesics as CSV files.

Each rotation of a period word contributes one semicircle (center, radius);
the radius is the apex height, so the largest radius shows how far the
geodesic climbs toward the cusp.  Files land in the working directory.
"""

import csv

from thinsieve import emit_arcs, geodesic_profile, is_low_lying, serialize_word

WORDS = [(1, 35), (5, 7), (1, 1, 1, 11), (1, 1, 1, 2, 1, 2)]

for word in WORDS:
    profile = geodesic_profile(word)
    name = "arcs_" + "_".join(map(str, word)) + ".csv"
    with open(name, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["center", "radius"])
        for center, radius in emit_arcs(word):
            writer.writerow([repr(center), repr(radius)])
    tag = "low-lying (below 2)" if is_low_lying(word, 2) else "high excursion"
    print(
        f"word {serialize_word(word):<13} D = {profile.discriminant}  "
        f"max height {profile.max_height:7.3f}  {tag}  -> {name}"
    )
