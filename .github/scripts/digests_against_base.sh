#!/usr/bin/env bash
# Print this tree's library or CLI digests and how they differ from the base commit's.
#
#     BASE=<commit> digests_against_base.sh library|cli WORKDIR
#
# Run from the repository root.  BASE is the commit to compare with (a pull
# request's base, or the commit before a push); it is checked out once, in a
# worktree at WORKDIR/base, which a later call reuses.  Both modes print this
# tree's lines, then digest_diff.py's comparison with the base's.  `library`
# then prints, for each op whose digest moved, the largest entrywise move of
# each result leaf (library_digest.py --moved), and never fails, as library
# results are pinned by tolerances, not bits; `cli` fails when an op both
# trees run writes different bytes.
# Without a base, or with a base that has no such script, nothing is compared.
set -euo pipefail

mode=$1
work=$2
script=.github/scripts/${mode}_digest.py
python "$script" | tee "$work/head_$mode.txt"
if [ ! -d "$work/base" ]; then
  if [ -z "${BASE:-}" ] || ! git cat-file -e "$BASE^{commit}" 2>/dev/null; then
    echo "no base commit to compare with"; exit 0
  fi
  git worktree add --detach "$work/base" "$BASE"
fi
if [ ! -f "$work/base/$script" ]; then
  echo "the base commit has no $script"; exit 0
fi
python "$work/base/$script" > "$work/base_$mode.txt"
if [ "$mode" = library ]; then
  python .github/scripts/digest_diff.py "$work/base_$mode.txt" "$work/head_$mode.txt" || true
  python "$script" --moved "$work/base" "$work/base_$mode.txt" "$work/head_$mode.txt" || true
else
  python .github/scripts/digest_diff.py "$work/base_$mode.txt" "$work/head_$mode.txt"
fi
