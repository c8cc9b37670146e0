#!/usr/bin/env bash
# Fails if any markdown file, recorded benchmark file (BENCH_*.json) or
# bench target (benches/*.rs) referenced from a markdown file or a
# rustdoc comment does not exist (CI runs this in the docs job; the
# bench crate additionally enforces its own DESIGN.md/EXPERIMENTS.md from
# a unit test so tier-1 catches the dangling-reference case too).
#
# Scope: every git-tracked .md and .rs file, except the archival files
# that quote *external* repositories and papers (their mentions are not
# cross-links into this repo).
set -u
cd "$(dirname "$0")/.."

status=0
scan() {
    local src="$1" dir ref
    dir=$(dirname "$src")
    for ref in $(grep -ohE '[A-Za-z0-9_./-]+\.md|[A-Za-z0-9_./-]*(BENCH_[A-Za-z0-9_]+\.json|benches/[A-Za-z0-9_]+\.rs)' "$src" | sort -u); do
        # resolve relative to the referencing file, its crate root, or
        # the repository root
        if [ -e "$ref" ] || [ -e "$dir/$ref" ] || [ -e "$dir/../$ref" ]; then
            continue
        fi
        echo "MISSING: $src references $ref" >&2
        status=1
    done
}

for f in $(git ls-files '*.md' | grep -vE '^(PAPER|PAPERS|SNIPPETS|CHANGES|ISSUE)\.md$') \
    $(git ls-files '*.rs'); do
    [ -f "$f" ] && scan "$f"
done

if [ "$status" -ne 0 ]; then
    echo "docs check failed: fix the references above or add the files" >&2
fi
exit $status
