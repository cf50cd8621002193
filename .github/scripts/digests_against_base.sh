#!/usr/bin/env bash
# Print this tree's library or CLI digests and how they differ from the base commit's.
#
#     BASE=<commit> digests_against_base.sh library|cli WORKDIR
#
# Run from the repository root.  BASE is the commit to compare with (a pull
# request's base, or the commit before a push); it is checked out once, in a
# worktree at WORKDIR/base, which a later call reuses.  This tree's digest.py
# digests both trees, the base's src/ and perfbench/ through --root, so one
# version of the script makes both runs.  Both modes print this tree's lines,
# then `digest.py diff`'s comparison with the base's.  `library` then prints,
# for each op whose digest moved, the largest entrywise move of each result
# leaf (`digest.py moved`), and never fails, as library results are pinned by
# tolerances, not bits; `cli` fails when an op both trees run writes
# different bytes.  Without a base, nothing is compared.
set -euo pipefail

mode=$1
work=$2
digest=.github/scripts/digest.py
python "$digest" "$mode" | tee "$work/head_$mode.txt"
if [ ! -d "$work/base" ]; then
  if [ -z "${BASE:-}" ] || ! git cat-file -e "$BASE^{commit}" 2>/dev/null; then
    echo "no base commit to compare with"; exit 0
  fi
  git worktree add --detach "$work/base" "$BASE"
fi
if [ "$mode" = library ]; then
  python "$digest" --root "$work/base" library > "$work/base_library.txt" || { echo "the base could not be digested"; exit 0; }
  python "$digest" diff "$work/base_library.txt" "$work/head_library.txt" || true
  python "$digest" moved "$work/base" "$work/base_library.txt" "$work/head_library.txt" || true
else
  python "$digest" --root "$work/base" cli > "$work/base_cli.txt"
  python "$digest" diff "$work/base_cli.txt" "$work/head_cli.txt"
fi
