"""Build a staircase LDPC code and look at what came out.

The parity-check matrix H = (H_x | H_z) has a sparse progressive-edge-growth
systematic part and a fixed unit lower bidiagonal staircase part. This script
builds the small desk-scale code, inspects both halves, and round-trips the
matrix through the alist text format.
"""

import tempfile

import numpy as np

import swldpc as sw

spec = sw.get_code_spec("D1")
print(f"code {spec.id}: k={spec.k} source bits, n={spec.n} total, "
      f"rate {sw.compression_rate(spec):.4f} parity bits per source bit")

h = sw.build_code(spec, seed=0)
m = h.n_rows
print(f"built H with {m} rows, {h.n_cols} columns")

# The systematic half carries the degree profile. A fractional target mean
# is met exactly by mixing two consecutive integer degrees, unless the spec
# lists its own (degree, count) profile, as L2 does.
col_deg = np.zeros(h.k, dtype=int)
for row in h.rows:
    for j in row:
        if j < h.k:
            col_deg[j] += 1
counts = {int(d): int((col_deg == d).sum()) for d in np.unique(col_deg)}
print(f"systematic column degrees: {counts}, mean {col_deg.mean():.4f} "
      f"(target {spec.dv_target})")

# The staircase half is deterministic: column j of H_z appears in row j and,
# except for the last column, in row j + 1.
dense = h.to_dense()
hz = dense[:, h.k:]
expected = np.eye(m, dtype=np.uint8)
expected[np.arange(1, m), np.arange(m - 1)] = 1
print(f"staircase half is unit lower bidiagonal: {np.array_equal(hz, expected)}")

# Short cycles hurt message passing. The placement keeps the systematic
# subgraph free of length-4 cycles: no two source columns share two rows.
# The Gram product runs in float64, which BLAS multiplies and which holds its
# entries, counts of at most m, exactly.
hx = dense[:, : h.k].astype(np.float64)
col_gram = (hx.T @ hx).astype(np.int64)
np.fill_diagonal(col_gram, 0)
print(f"largest systematic column-pair overlap: {col_gram.max()} "
      f"(2 or more would be a 4-cycle among source bits)")
print(f"systematic_four_cycle_free() agrees: {h.systematic_four_cycle_free()}")

# alist round trip: text in, identical matrix out.
with tempfile.NamedTemporaryFile(mode="w+", suffix=".alist") as f:
    sw.save_alist(h, f.name)
    again = sw.load_alist(f.name)
    f.seek(0)
    header = f.read().splitlines()[0]
print("alist leading comment:", header)
print(f"round trip preserved every entry: "
      f"{np.array_equal(again.to_dense(), dense)}")
