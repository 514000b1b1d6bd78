"""Write a workload's input tree files.

Usage: python3 gen_input.py '[[<GenSpec fields>, <shape seed>, "OUT.tsv"], ...]'

Each tree has the shape (parent array) and the important nodes that
``gen_random_tree`` makes for the shape seed, and the weights it draws for
the GenSpec's own seed: both trees are generated, and the second one's
weights, in node order, go to the first one's important nodes in node order.
When the two seeds are equal the file is just the generated tree.

Runs in its own process, so that the generator's peak memory never counts
against the process being measured.  Prints the total generation and write
times as ``{"gen_s": ..., "write_s": ...}`` on its standard output.
"""
import json
import sys
import time
from dataclasses import replace

from treesum import GenSpec, WeightedTree, gen_random_tree, write_tree_tsv


def make_tree(spec: GenSpec, shape_seed: int) -> WeightedTree:
    drawn = gen_random_tree(spec)
    if shape_seed == spec.seed:
        return drawn
    shape = gen_random_tree(replace(spec, seed=shape_seed))
    # both trees have spec.important_count weights, each at least weight_low
    weights = iter([w for w in drawn.feq if w > 0])
    feq = [next(weights) if w > 0 else 0.0 for w in shape.feq]
    return WeightedTree(shape.ids, shape.parent, feq)


def main(argv) -> int:
    (jobs_json,) = argv
    gen_s = write_s = 0.0
    for fields, shape_seed, out in json.loads(jobs_json):
        start = time.perf_counter()
        tree = make_tree(GenSpec(**fields), shape_seed)
        mid = time.perf_counter()
        write_tree_tsv(tree, out)
        gen_s += mid - start
        write_s += time.perf_counter() - mid
        del tree
    print(json.dumps({"gen_s": gen_s, "write_s": write_s}))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
