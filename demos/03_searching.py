"""
Exhaustive searches at desk scale
=================================

Each search mode enumerates every candidate up to 2**max_bits and emits
self-contained solution records.  The bounds here are small so the whole
script runs in seconds; raise max_bits to push further.
"""

from fcspread import search

# Fermat-Catalan triples A x^n + B y^m = C z^k with total weight < 1.
cfg = search.make_config("fermat-catalan", max_bits=20)
res = search.run_chunked(cfg, n_chunks=8, threads=2)
print(f"fermat-catalan up to 2^20: {len(res.records)} solutions "
      f"({res.candidates} candidates)")
for rec in res.records:
    vx, vy, vz = rec["values"]
    print(f"  {vx} + {vy} = {vz}  exponents {rec['assignment']}, "
          f"weight {rec['weight']}")
print()

# Degree-3 products of spread >= 1 equal to a difference of non-maxgcd
# perfect powers.
cfg = search.make_config("nonmaxgcd3", max_bits=24)
res = search.run_chunked(cfg, n_chunks=8, threads=2)
print(f"nonmaxgcd3 up to 2^24: {len(res.records)} solutions")
for rec in res.records:
    print(f"  {rec['p']} - {rec['q']} = {rec['z']} = {rec['witness']}  "
          f"exponent pairs {rec['assignments']}")
print()

# Consecutive bounded-spread products: X and Z = X + 1, both perfect
# powers here (spread 0), with 1/dx + 1/dz <= 41/42.
cfg_pillai = search.make_config("pillai", difference=1, max_bits=16)
recs = search.run_chunked(cfg_pillai).records
print("products at difference 1 up to 2^16:")
for rec in recs:
    print(f"  {rec['x']} = {rec['x_witness']}, {rec['z']} = {rec['z_witness']}, "
          f"weight {rec['weight']}")
print()

# The survey mode counts solutions cell by cell over (n, m, d) ranges.
cfg = search.make_config(
    "survey", max_bits=16, n_range=(3, 5), m_range=(3, 5), degree=(3, 4)
)
counts = {tuple(r["cell"]): r["count"]
          for r in search.run_chunked(cfg).records}
nonzero = {cell: k for cell, k in counts.items() if k}
print(f"survey up to 2^16 over n,m in 3..5, d in 3..4: "
      f"{len(nonzero)}/{len(counts)} cells populated")
print("nonzero cells:", nonzero)
print()

# Every record can be re-derived from scratch against its config.
problems = [search.verify_record(rec, cfg_pillai) for rec in recs]
print("pillai records re-verified:", all(p == [] for p in problems))
