#!/usr/bin/env bash
# Lines of code per source tree: for each `crates/*/src` and for
# `examples/`, the non-test lines (every line of a `.rs` file before its
# first `#[cfg(test)]`) and the code-only lines among them (no blank and no
# comment-only lines). With a git revision, also the same figures at that
# revision (read with `git show <rev>:<path>`) and the delta.
#
#   scripts/loc.sh            # the working tree
#   scripts/loc.sh HEAD~1     # the working tree against HEAD~1
set -euo pipefail
cd "$(dirname "$0")/.."

rev="${1:-}"
if [ -n "$rev" ]; then
    git rev-parse --verify --quiet "$rev^{commit}" >/dev/null || {
        echo "loc.sh: unknown revision '$rev'" >&2
        exit 2
    }
fi

# Prints "<non-test> <code-only>" for the Rust source on stdin.
count() {
    awk '
        /^[[:space:]]*#\[cfg\(test\)\]/ { exit }
        { all++ }
        /^[[:space:]]*$/ || /^[[:space:]]*\/\// { next }
        { code++ }
        END { printf "%d %d\n", all, code }
    '
}

# Sums count() over the .rs files of a tree: the working tree when no
# revision is given, else the tree at that revision.
tree_loc() { # <dir> [<rev>]
    local dir="$1" at="${2:-}" files f n c all=0 code=0
    if [ -n "$at" ]; then
        files="$(git ls-tree -r --name-only "$at" -- "$dir" | grep '\.rs$' || true)"
    else
        files="$(find "$dir" -name '*.rs' 2>/dev/null | sort || true)"
    fi
    for f in $files; do
        if [ -n "$at" ]; then
            read -r n c < <(git show "$at:$f" | count)
        else
            read -r n c < <(count <"$f")
        fi
        all=$((all + n))
        code=$((code + c))
    done
    echo "$all $code"
}

# Every tree in the working tree or at the revision, so a deleted or a new
# crate still shows up.
trees="$( {
    ls -d crates/*/src examples 2>/dev/null || true
    if [ -n "$rev" ]; then
        git ls-tree -d --name-only "$rev" crates/ | sed 's|$|/src|'
        echo examples
    fi
} | sort -u)"

if [ -n "$rev" ]; then
    printf '%-24s %10s %10s %8s %10s %10s %8s\n' \
        tree non-test "@$rev" delta code-only "@$rev" delta
else
    printf '%-24s %10s %10s\n' tree non-test code-only
fi
tot=(0 0 0 0)
for t in $trees; do
    read -r n c < <(tree_loc "$t")
    if [ -n "$rev" ]; then
        read -r on oc < <(tree_loc "$t" "$rev")
        [ $((n + on)) -eq 0 ] && continue
        printf '%-24s %10d %10d %+8d %10d %10d %+8d\n' \
            "$t" "$n" "$on" $((n - on)) "$c" "$oc" $((c - oc))
        tot=($((tot[0] + n)) $((tot[1] + on)) $((tot[2] + c)) $((tot[3] + oc)))
    else
        [ "$n" -eq 0 ] && continue
        printf '%-24s %10d %10d\n' "$t" "$n" "$c"
        tot=($((tot[0] + n)) 0 $((tot[2] + c)) 0)
    fi
done
if [ -n "$rev" ]; then
    printf '%-24s %10d %10d %+8d %10d %10d %+8d\n' total \
        "${tot[0]}" "${tot[1]}" $((tot[0] - tot[1])) "${tot[2]}" "${tot[3]}" $((tot[2] - tot[3]))
else
    printf '%-24s %10d %10d\n' total "${tot[0]}" "${tot[2]}"
fi
