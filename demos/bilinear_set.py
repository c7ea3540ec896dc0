"""Assembling the bilinear product set Xi * Aleph * Omega.

Xi and Omega are the most populous fixed-wordlength slices of norm balls, so
triple products factor uniquely; Aleph is the residue-balanced alphabet-2 set
whose classes mod B are hit exactly equally by construction.
"""

from thinsieve import (
    aleph_construct,
    aleph_error,
    build_fixed_length_ball,
    build_pi,
    remainder_profile,
    sift_values,
)

print("=== the residue-balanced set (B = 2) ===")
aleph = aleph_construct(1e6, 2)
print(f"|aleph| = {len(aleph)} = {aleph.group_order} classes x {aleph.base_size} each")
print(f"pivot ball bound U = {aleph.pivot_bound}, pilot word = {aleph.pilot.word}")
for q in (1, 2, 3, 6):
    print(f"  residue deviation at q = {q}: {aleph_error(aleph, q):.4f}")
print("(zero at q = 2: every class of SL2(Z/2) is hit equally by construction)")

print("\n=== error decay in the bound (measured, q = 3) ===")
for bound in (1e6, 1e7, 1e8):
    a = aleph_construct(bound, 2)
    print(f"  Y = {bound:>10.0e}  |aleph| = {len(a):>4}  deviation = {aleph_error(a, 3):.4f}")

print("\n=== the product set ===")
xi = build_fixed_length_ball(2, 40)
omega = build_fixed_length_ball(2, 12)
pi = build_pi(xi, aleph, omega)
print(f"|Xi| = {len(xi)} (wordlength {xi.wordlength}), |Omega| = {len(omega)} "
      f"(wordlength {omega.wordlength}), |Pi| = {pi.size}")
print(f"norm bound on members: {pi.norm_bound():.0f}")

seq = sift_values(pi)
profile = remainder_profile(seq, 30)
print(f"sifted {seq.source_size} products; sum_q<30 |r(q)|/size = {float(profile.summary):.4f}")
