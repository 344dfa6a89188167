"""Regenerate reference_data.json: answers too slow to recompute per run.

Uses only the benchmark's own reference code, never diamray. Takes about
two minutes, most of it the plain search refuting a 3-coloring of H3(kk4).

    python3 bench/make_reference.py
"""

import json
from pathlib import Path

import reference as ref


def main():
    kk4 = ref.kk_adjacency(4)
    kk4_h3 = ref.cliques(kk4, 3)
    chi, witness = ref.chromatic(35, kk4_h3)
    kk6_h3 = ref.cliques(ref.kk_adjacency(6), 3)
    data = {
        "kk4_h3_edges": len(kk4_h3),
        "kk4_h3_chi": chi,
        "kk4_h3_witness": list(witness),
        "kneser_3_2_3_h3_edges": len(ref.cliques(ref.kneser_adjacency(3, 2, 3), 3)),
        "kk6_h3_edges": len(kk6_h3),
        "kk6_h3_sha256": ref.edges_digest(kk6_h3),
    }
    out = Path(__file__).with_name("reference_data.json")
    out.write_text(json.dumps(data, indent=1) + "\n")
    print(json.dumps({k: v for k, v in data.items() if k != "kk4_h3_witness"}))


if __name__ == "__main__":
    main()
