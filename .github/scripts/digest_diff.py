"""Compare two runs of cli_digest.py or of library_digest.py, a base tree's and a head tree's.

    python .github/scripts/digest_diff.py BASE.txt HEAD.txt

A cli_digest.py line reads ``<workload> seed=<seed> rung=<rung> N=<N>
<file> <sha256>``, or ``... exit=<code>`` for an op that failed; a
library_digest.py line reads ``<chain> seed=<seed> rung=<rung> N=<N>
<sha256>``, with no file field.  Either way the first four fields name the
op and the rest is its output.  Lines found in one run only are printed,
``-`` for the base and ``+`` for the head.  The exit status is 1 when an
op that both runs hold differs: a library op or a file with two digests, a
file written by one run only, or an exit in one run only.  An op in one
run only (a rung the workload gained or lost) is printed but not failed.
"""

from __future__ import annotations

import sys


def _ops(lines) -> dict:
    """(workload or chain, seed, rung, N) -> the sorted output lines of that op: "<file> <sha256>" or "<sha256>"."""
    ops: dict = {}
    for line in lines:
        fields = line.split()
        ops.setdefault(tuple(fields[:4]), []).append(" ".join(fields[4:]))
    return {op: sorted(files) for op, files in ops.items()}


def main(argv) -> int:
    if len(argv) != 2:
        print("usage: digest_diff.py BASE.txt HEAD.txt", file=sys.stderr)
        return 2
    base, head = ({ln.strip() for ln in open(path, encoding="utf-8") if ln.strip()} for path in argv)
    for line in sorted(base - head):
        print(f"- {line}")
    for line in sorted(head - base):
        print(f"+ {line}")
    base_ops, head_ops = _ops(base), _ops(head)
    shared = base_ops.keys() & head_ops.keys()
    changed = [op for op in shared if base_ops[op] != head_ops[op]]
    print(f"{len(shared)} ops in both runs, {len(changed)} with different output", file=sys.stderr)
    return 1 if changed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
